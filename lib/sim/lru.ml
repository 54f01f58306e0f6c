type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  cap : int option;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* MRU *)
  mutable tail : ('k, 'v) node option;  (* LRU *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Lru.create: capacity must be positive"
  | _ -> ());
  { cap = capacity; table = Hashtbl.create 64; head = None; tail = None }

let capacity t = t.cap

let length t = Hashtbl.length t.table

let mem t k = Hashtbl.mem t.table k

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let promote t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      promote t n;
      Some n.value

let peek t k =
  match Hashtbl.find_opt t.table k with None -> None | Some n -> Some n.value

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table k;
      Some n.value

let evict_lru t =
  match t.tail with
  | None -> None
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      Some (n.key, n.value)

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      promote t n;
      None
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n;
      (match t.cap with
      | Some c when Hashtbl.length t.table > c -> evict_lru t
      | _ -> None)

let lru t = match t.tail with None -> None | Some n -> Some (n.key, n.value)

let fold f t acc =
  let rec go node acc =
    match node with None -> acc | Some n -> go n.next (f n.key n.value acc)
  in
  go t.head acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])
