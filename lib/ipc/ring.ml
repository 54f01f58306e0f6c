(* Slots are an [Obj.t] array behind the phantom ['a]: the head/tail
   discipline guarantees a slot is only read back as ['a] between push
   and pop, so no option wrapper is needed per entry. [try_push] is
   thereby allocation-free (the old ['a option array] layout allocated
   a [Some] per push), and the [_arr]/[_into] batch operations move
   entries between caller-owned scratch arrays and the ring without
   building lists. Popped slots are reset to a dummy so the ring never
   pins dead entries for the GC. *)

type 'a t = {
  slots : Obj.t array;
  mask : int;
  mutable head : int;  (* next pop position (consumer index) *)
  mutable tail : int;  (* next push position (producer index) *)
}

let dummy : Obj.t = Obj.repr ()

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let cap = next_pow2 capacity in
  { slots = Array.make cap dummy; mask = cap - 1; head = 0; tail = 0 }

let capacity t = Array.length t.slots

let length t = t.tail - t.head

let is_empty t = t.head = t.tail

let is_full t = length t = capacity t

let try_push t v =
  if is_full t then false
  else begin
    t.slots.(t.tail land t.mask) <- Obj.repr v;
    t.tail <- t.tail + 1;
    true
  end

let try_pop (type a) (t : a t) : a option =
  if is_empty t then None
  else begin
    let idx = t.head land t.mask in
    let v : a = Obj.obj t.slots.(idx) in
    t.slots.(idx) <- dummy;
    t.head <- t.head + 1;
    Some v
  end

(* [try_pop] that hands back [none] for an empty ring instead of
   wrapping the entry in [Some]. *)
let pop_or (type a) (t : a t) (none : a) : a =
  if is_empty t then none
  else begin
    let idx = t.head land t.mask in
    let v : a = Obj.obj t.slots.(idx) in
    t.slots.(idx) <- dummy;
    t.head <- t.head + 1;
    v
  end

let peek (type a) (t : a t) : a option =
  if is_empty t then None else Some (Obj.obj t.slots.(t.head land t.mask))

let space t = capacity t - length t

let push_n t vs =
  let rec go pushed = function
    | [] -> pushed
    | v :: rest -> if try_push t v then go (pushed + 1) rest else pushed
  in
  go 0 vs

let pop_into (type a) (t : a t) (dst : a array) ~off ~max =
  if off < 0 || max < 0 || off + max > Array.length dst then
    invalid_arg "Ring.pop_into";
  let avail = length t in
  let n = if max < avail then max else avail in
  for i = 0 to n - 1 do
    let idx = (t.head + i) land t.mask in
    dst.(off + i) <- Obj.obj t.slots.(idx);
    t.slots.(idx) <- dummy
  done;
  t.head <- t.head + n;
  n

let total_pushed t = t.tail
