(* Pooled, intrusive FIFO of parked processes.

   Entries are pooled per queue and linked through their own [next]
   field (the queue's [nil] sentinel terminates both the FIFO and the
   free list), and each entry embeds an {!Engine.park_cell}, so a
   steady-state park/wake cycle allocates nothing beyond the effect
   continuation. A wake carries no value: a woken process reads what
   it waited for from the state it shares with its waker. *)

type entry = {
  cell : Engine.park_cell;
  mutable next : entry;  (* FIFO / free-list link; nil terminates *)
}

type t = {
  nil : entry;  (* sentinel: list terminator, never parked *)
  mutable head : entry;
  mutable tail : entry;
  mutable free : entry;
  mutable len : int;
}

let create () =
  let c = Engine.make_park_cell () in
  let rec nil = { cell = c; next = nil } in
  { nil; head = nil; tail = nil; free = nil; len = 0 }

let length q = q.len

let park q =
  let nil = q.nil in
  let e =
    if q.free != nil then begin
      let e = q.free in
      q.free <- e.next;
      e.next <- nil;
      e
    end
    else { cell = Engine.make_park_cell (); next = nil }
  in
  if q.head == nil then q.head <- e else q.tail.next <- e;
  q.tail <- e;
  q.len <- q.len + 1;
  Engine.park e.cell

let wake q =
  let nil = q.nil in
  if q.head == nil then false
  else begin
    let e = q.head in
    q.head <- e.next;
    if q.head == nil then q.tail <- nil;
    q.len <- q.len - 1;
    Engine.unpark e.cell;
    (* The woken process never touches its entry again, so it can go
       straight back on the free list. *)
    e.next <- q.free;
    q.free <- e;
    true
  end

let wake_all q =
  let n = q.len in
  for _ = 1 to n do
    ignore (wake q)
  done;
  n
