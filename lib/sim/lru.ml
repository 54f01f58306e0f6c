(* Doubly-linked recency list threaded through a sentinel: the list is
   circular, [s.next] is the MRU node and [s.prev] the LRU node, so
   links are never options and unlinking needs no head/tail cases. *)

type 'v node = {
  key : int;
  mutable value : 'v;
  mutable prev : 'v node;  (* towards MRU *)
  mutable next : 'v node;  (* towards LRU *)
}

module Tbl = Hashtbl.Make (Int)

type 'v t = { cap : int; table : 'v node Tbl.t; s : 'v node }

let create ?capacity () =
  let cap =
    match capacity with
    | Some c when c <= 0 -> invalid_arg "Lru.create: capacity must be positive"
    | Some c -> c
    | None -> max_int
  in
  (* The sentinel's value is never read: every traversal stops at it. *)
  let rec s = { key = min_int; value = Obj.magic (); prev = s; next = s } in
  { cap; table = Tbl.create 64; s }

let length t = Tbl.length t.table

let mem t k = Tbl.mem t.table k

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let s = t.s in
  n.prev <- s;
  n.next <- s.next;
  s.next.prev <- n;
  s.next <- n

let promote t n =
  if t.s.next != n then begin
    unlink n;
    push_front t n
  end

let touch t k =
  match Tbl.find t.table k with
  | n ->
      promote t n;
      true
  | exception Not_found -> false

let find t k =
  match Tbl.find t.table k with
  | n ->
      promote t n;
      Some n.value
  | exception Not_found -> None

let remove t k =
  match Tbl.find t.table k with
  | n ->
      unlink n;
      Tbl.remove t.table k;
      Some n.value
  | exception Not_found -> None

let put t k v =
  match Tbl.find t.table k with
  | n ->
      n.value <- v;
      promote t n;
      None
  | exception Not_found ->
      let s = t.s in
      let n = { key = k; value = v; prev = s; next = s } in
      Tbl.replace t.table k n;
      push_front t n;
      if Tbl.length t.table > t.cap then begin
        let victim = s.prev in
        unlink victim;
        Tbl.remove t.table victim.key;
        Some (victim.key, victim.value)
      end
      else None

let lru t =
  let n = t.s.prev in
  if n == t.s then None else Some (n.key, n.value)

let fold f t acc =
  let s = t.s in
  let rec go n acc = if n == s then acc else go n.next (f n.key n.value acc) in
  go s.next acc
