(* Dense bitset over 32-bit words with de Bruijn count-trailing-zeros
   iteration — the same trick as {!Evq}'s calendar occupancy bitmap,
   packaged for readiness tracking (e.g. which of a worker's thousands
   of queue pairs have doorbells pending). 32-bit words keep every
   value an immediate int on 64-bit OCaml and let one multiply index
   the ctz table. *)

type t = { mutable words : int array; mutable nbits : int }

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ctz x =
  let lsb = x land -x in
  Array.unsafe_get ctz_table (((lsb * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let create nbits =
  let nbits = Stdlib.max 0 nbits in
  { words = Array.make (Stdlib.max 1 ((nbits + 31) lsr 5)) 0; nbits }

(* Growth keeps existing bits; [resize] is expected at reconfiguration
   time (queue reassignment), never on the per-event path. *)
let resize t nbits =
  let needed = Stdlib.max 1 ((nbits + 31) lsr 5) in
  if needed > Array.length t.words then begin
    let words = Array.make needed 0 in
    Array.blit t.words 0 words 0 (Array.length t.words);
    t.words <- words
  end;
  t.nbits <- Stdlib.max t.nbits nbits

let[@inline] set t i =
  let w = i lsr 5 in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w lor (1 lsl (i land 31)))

let[@inline] clear t i =
  let w = i lsr 5 in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i land 31)))

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

(* A plain loop: the local recursive [go] it replaces closed over the
   word array and cost a closure on every call. *)
let is_empty t =
  let words = t.words in
  let n = Array.length words in
  let i = ref 0 in
  while !i < n && Array.unsafe_get words !i = 0 do
    incr i
  done;
  !i >= n

(* First set bit at index >= [from], or -1. Reads words live (no
   snapshot): bits set behind the cursor during iteration are seen on
   the next scan, bits ahead of it on this one — matching a linear
   scan's semantics while skipping empty words. *)
let next_set t from =
  if from >= t.nbits then -1
  else begin
    let nw = Array.length t.words in
    let w = ref (from lsr 5) in
    (* Mask off bits below [from] in its own word. *)
    let first = Array.unsafe_get t.words !w land ((-1) lsl (from land 31)) in
    let bits = ref (first land 0xFFFFFFFF) in
    while !bits = 0 && !w + 1 < nw do
      incr w;
      bits := Array.unsafe_get t.words !w
    done;
    if !bits = 0 then -1
    else begin
      let i = (!w lsl 5) lor ctz !bits in
      if i >= t.nbits then -1 else i
    end
  end
