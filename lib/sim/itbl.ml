(* Open addressing over a power-of-two bucket array. A key's home
   bucket is the top bits of its product with an odd constant near
   2^63 / golden ratio (Fibonacci hashing), so keys at a power-of-two
   stride spread as well as consecutive ones. The table doubles before
   it is half full, so a probe run always ends at a free bucket. *)

let empty = min_int

let golden = 0x4F1BBCDCBFA53E0B

type 'v t = {
  mutable keys : int array;  (* bucket -> key, [empty] when free *)
  mutable vals : 'v array;  (* bucket -> value; [||] until the first binding *)
  mutable len : int;
  mutable shift : int;  (* [Sys.int_size] - log2 (number of buckets) *)
}

let[@inline] home t k = (k * golden) lsr t.shift

let rec bits_for n b = if 1 lsl b >= 2 * n then b else bits_for n (b + 1)

let create n =
  let bits = bits_for (Stdlib.max 1 n) 1 in
  { keys = Array.make (1 lsl bits) empty; vals = [||]; len = 0; shift = Sys.int_size - bits }

(* The bucket holding [k], or -1. [empty] is tested first, so [min_int]
   is never found. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = empty then -1
  else if x = k then i
  else probe keys mask k ((i + 1) land mask)

let[@inline] index t k =
  let keys = t.keys in
  probe keys (Array.length keys - 1) k (home t k)

let length t = t.len

let mem t k = index t k >= 0

let find t k =
  let i = index t k in
  if i < 0 then raise_notrace Not_found else Array.unsafe_get t.vals i

(* The bucket holding [k], or the free bucket ending its probe run. *)
let rec slot keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i else slot keys mask k ((i + 1) land mask)

let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  let nkeys = Array.make n empty and nvals = Array.make n vals.(0) in
  t.keys <- nkeys;
  t.vals <- nvals;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = slot nkeys (n - 1) k (home t k) in
        nkeys.(j) <- k;
        nvals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k = empty then invalid_arg "Itbl.replace: min_int is not a key";
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v;
  let keys = t.keys in
  let i = slot keys (Array.length keys - 1) k (home t k) in
  t.vals.(i) <- v;
  if keys.(i) = empty then begin
    keys.(i) <- k;
    t.len <- t.len + 1;
    if 2 * t.len > Array.length keys then grow t
  end

(* Backward-shift deletion: walk the probe run after the hole and move
   back each entry whose home bucket does not lie between the hole and
   the entry, so every key stays reachable from its home. *)
let remove t k =
  let i = index t k in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let h = home t keys.(!j) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    t.len <- t.len - 1
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
