(* Monomorphic simulator event queue: a bucketed calendar-queue front
   end over a flat structure-of-arrays binary heap for far-future
   events.

   Entries are (time : float, seq : int, slot : int) triples kept in
   parallel unboxed arrays — no boxed keys, no closures, no comparator
   indirection: every comparison is an inlined (time, seq) test on
   unboxed floats and ints. Pop order is exactly ascending (time, seq),
   i.e. byte-identical to the binary heap the engine used before
   (same-time entries drain in push order because seqs are unique and
   monotonic).

   Layout. The calendar covers one window of [nbuckets] buckets of
   [width] ns starting at [wstart]. Every entry due inside the window
   lives in one shared entry pool (parallel time/seq/slot/next arrays
   with a free list); a bucket is just a head and a tail index into it,
   and its list is kept sorted by (time, seq) on insert. Pop therefore
   always takes the head of the draining bucket. Insert checks the tail
   first: seqs only grow, so schedule-at-now and later-than-everything
   pushes append in O(1); only an out-of-order time walks the (short)
   list. Entries at or before the drain cursor join the draining
   bucket. Entries past the window go to the overflow heap. When the
   window is exhausted it is re-anchored at the overflow minimum and
   every heap entry now inside the new window migrates into buckets, so
   an idle stretch costs one re-anchor, not a walk over empty buckets.

   Footprint is the point of the pool: the queue holds a handful of
   entries at a time, so the pool stays a few cache lines, a push
   touches two words of bucket state, and the GC has a fixed, small
   set of blocks to mark.

   Floats must never cross a function boundary on the hot path (the
   compiler would box them), so the API is staged: writers store the
   time into [key_in] before calling {!push}; {!pop} returns the slot
   and leaves the key in [key_out]/[out_seq]. The record is deliberately
   transparent so the engine reads those cells without a call. *)

type t = {
  key_in : float array;  (* [0] = time staged by the caller before push *)
  key_out : float array;  (* [0] = time of the last popped entry *)
  mutable out_seq : int;  (* seq of the last popped entry *)
  nbuckets : int;
  (* Hot float state lives in a flat array, not record fields: a float
     field in a mixed record is boxed, so reads cost two loads and
     writes allocate. fq.(0) = wstart (bucket 0's left edge) ·
     fq.(1) = 1/width (the per-push divide is a multiply) ·
     fq.(2) = float nbuckets · fq.(3) = width *)
  fq : float array;
  mutable cur : int;  (* draining bucket; [nbuckets] = window exhausted *)
  (* entry pool: one node per in-window entry *)
  mutable ptime : float array;
  mutable pseq : int array;
  mutable pslot : int array;
  mutable pnext : int array;  (* bucket-list link, or free-list link *)
  mutable free : int;  (* free-list head; -1 = pool exhausted *)
  bhead : int array;  (* per-bucket first node; -1 = empty *)
  btail : int array;  (* per-bucket last node; -1 = empty *)
  occ : int array;  (* occupancy bitmap, 32 buckets per word *)
  mutable ht : float array;  (* overflow heap, SoA *)
  mutable hs : int array;
  mutable hv : int array;
  mutable hsize : int;
  mutable count : int;
}

(* Narrow buckets keep each bucket's list short (so an out-of-order
   insert walks one or two nodes) even under thousands of outstanding
   events; the occupancy bitmap makes skipping the many empty buckets
   O(1), so sparse workloads don't pay for the width. 16384 x 8 ns = a
   131 us window before the overflow heap kicks in. *)
let default_nbuckets = 16384

let default_width = 8.0

let initial_pool = 64

(* Make nodes [lo, length) the whole free list. [lo] is below the pool
   length: 0 for a fresh or cleared pool, the old length after growth
   (which runs only with the free list empty). *)
let pool_thread t lo =
  let n = Array.length t.pnext in
  for i = lo to n - 2 do
    t.pnext.(i) <- i + 1
  done;
  t.pnext.(n - 1) <- -1;
  t.free <- lo

let create ?(nbuckets = default_nbuckets) ?(width = default_width) () =
  if nbuckets <= 0 then invalid_arg "Evq.create: nbuckets must be positive";
  if not (width > 0.0) then invalid_arg "Evq.create: width must be positive";
  let t =
    {
      key_in = Array.make 1 0.0;
      key_out = Array.make 1 0.0;
      out_seq = 0;
      nbuckets;
      fq = [| 0.0; 1.0 /. width; Stdlib.float_of_int nbuckets; width |];
      cur = 0;
      ptime = Array.make initial_pool 0.0;
      pseq = Array.make initial_pool 0;
      pslot = Array.make initial_pool 0;
      pnext = Array.make initial_pool 0;
      free = -1;
      bhead = Array.make nbuckets (-1);
      btail = Array.make nbuckets (-1);
      occ = Array.make ((nbuckets + 31) / 32) 0;
      ht = [||];
      hs = [||];
      hv = [||];
      hsize = 0;
      count = 0;
    }
  in
  pool_thread t 0;
  t

let length t = t.count

let is_empty t = t.count = 0

(* (t1, s1) < (t2, s2) in event order. Seqs are unique, so this is a
   strict total order. The annotations are load-bearing: without them
   [<] is the polymorphic compare, which boxes both floats at every
   call site and dwarfs the queue's entire allocation budget. *)
let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

(* ---------------- overflow heap ---------------- *)

let heap_grow t =
  let n = Stdlib.max 64 (2 * Array.length t.ht) in
  let ht = Array.make n 0.0 and hs = Array.make n 0 and hv = Array.make n 0 in
  Array.blit t.ht 0 ht 0 t.hsize;
  Array.blit t.hs 0 hs 0 t.hsize;
  Array.blit t.hv 0 hv 0 t.hsize;
  t.ht <- ht;
  t.hs <- hs;
  t.hv <- hv

(* The entry's time is read from [key_in] (staged by the caller of
   {!push}) rather than passed: a float argument to this non-inlined
   function would be boxed at every overflow push. *)
let heap_push t seq slot =
  if t.hsize >= Array.length t.ht then heap_grow t;
  let time = t.key_in.(0) in
  let ht = t.ht and hs = t.hs and hv = t.hv in
  let i = ref t.hsize in
  t.hsize <- t.hsize + 1;
  (* Sift up with the new entry held in registers: one store per level. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before time seq ht.(parent) hs.(parent) then begin
      ht.(!i) <- ht.(parent);
      hs.(!i) <- hs.(parent);
      hv.(!i) <- hv.(parent);
      i := parent
    end
    else continue := false
  done;
  ht.(!i) <- time;
  hs.(!i) <- seq;
  hv.(!i) <- slot

(* Remove the heap minimum; the caller reads it from ht/hs/hv.(0) first. *)
let heap_drop_min t =
  t.hsize <- t.hsize - 1;
  let n = t.hsize in
  if n > 0 then begin
    let ht = t.ht and hs = t.hs and hv = t.hv in
    let time = ht.(n) and seq = hs.(n) and slot = hv.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before ht.(r) hs.(r) ht.(l) hs.(l) then r else l
        in
        if before ht.(c) hs.(c) time seq then begin
          ht.(!i) <- ht.(c);
          hs.(!i) <- hs.(c);
          hv.(!i) <- hv.(c);
          i := c
        end
        else continue := false
      end
    done;
    ht.(!i) <- time;
    hs.(!i) <- seq;
    hv.(!i) <- slot
  end

(* ---------------- occupancy bitmap ---------------- *)

(* Unchecked accesses throughout the occupancy/bucket/heap hot paths:
   every index is maintained internally (bucket indices are clamped to
   [0, nbuckets), nodes come from the free list, which only ever holds
   pool indices, and heap positions are bounded by [hsize]), and these
   run several times per simulated event. *)

let[@inline] occ_set t b =
  let w = b lsr 5 in
  Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (b land 31)))

let[@inline] occ_clear t b =
  let w = b lsr 5 in
  Array.unsafe_set t.occ w
    (Array.unsafe_get t.occ w land lnot (1 lsl (b land 31)))

(* Trailing-zero count of a nonzero value < 2^32 via the classic
   de Bruijn multiply (no ctz intrinsic in the compiler's portable
   subset). The product is masked to 32 bits before the shift because
   native ints are wider. *)
let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ctz x =
  let lsb = x land -x in
  Array.unsafe_get ctz_table (((lsb * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* First occupied bucket >= [b], or [nbuckets] if none: one masked word
   test for the common dense case, then whole empty words are skipped
   32 buckets at a time. *)
let next_occupied t b =
  if b >= t.nbuckets then t.nbuckets
  else begin
    let nw = Array.length t.occ in
    let w = ref (b lsr 5) in
    let bits = ref (Array.unsafe_get t.occ !w land (-1 lsl (b land 31))) in
    while !bits = 0 && !w + 1 < nw do
      incr w;
      bits := Array.unsafe_get t.occ !w
    done;
    if !bits = 0 then t.nbuckets else (!w lsl 5) + ctz !bits
  end

(* ---------------- entry pool and bucket lists ---------------- *)

(* Only runs with the free list empty; doubles every pool array. *)
let[@inline never] pool_grow t =
  let old = Array.length t.pnext in
  let n = 2 * old in
  let ptime = Array.make n 0.0
  and pseq = Array.make n 0
  and pslot = Array.make n 0
  and pnext = Array.make n 0 in
  Array.blit t.ptime 0 ptime 0 old;
  Array.blit t.pseq 0 pseq 0 old;
  Array.blit t.pslot 0 pslot 0 old;
  Array.blit t.pnext 0 pnext 0 old;
  t.ptime <- ptime;
  t.pseq <- pseq;
  t.pslot <- pslot;
  t.pnext <- pnext;
  pool_thread t old

(* Link node [n] (key already stored) into the sorted list of bucket
   [b], which is non-empty and whose tail sorts after [n]. Takes only
   ints, so it can stay out of line without boxing. *)
let insert_sorted t b n =
  let ptime = t.ptime and pseq = t.pseq and pnext = t.pnext in
  let time = Array.unsafe_get ptime n and seq = Array.unsafe_get pseq n in
  let hd = Array.unsafe_get t.bhead b in
  if before time seq (Array.unsafe_get ptime hd) (Array.unsafe_get pseq hd)
  then begin
    Array.unsafe_set pnext n hd;
    Array.unsafe_set t.bhead b n
  end
  else begin
    (* The tail sorts after [n], so the walk stops before the end. *)
    let prev = ref hd and nx = ref (Array.unsafe_get pnext hd) in
    while
      not
        (before time seq (Array.unsafe_get ptime !nx)
           (Array.unsafe_get pseq !nx))
    do
      prev := !nx;
      nx := Array.unsafe_get pnext !nx
    done;
    Array.unsafe_set pnext n !nx;
    Array.unsafe_set pnext !prev n
  end

(* Forced inline: [time] must not cross a real call boundary — a float
   argument to a non-inlined function is boxed (2 words), which is the
   entire per-event allocation budget. *)
let[@inline] bucket_add t b time seq slot =
  if t.free < 0 then pool_grow t;
  let n = t.free in
  let pnext = t.pnext in
  t.free <- Array.unsafe_get pnext n;
  Array.unsafe_set t.ptime n time;
  Array.unsafe_set t.pseq n seq;
  Array.unsafe_set t.pslot n slot;
  let tl = Array.unsafe_get t.btail b in
  if tl < 0 then begin
    Array.unsafe_set pnext n (-1);
    Array.unsafe_set t.bhead b n;
    Array.unsafe_set t.btail b n;
    occ_set t b
  end
  else if
    before (Array.unsafe_get t.ptime tl) (Array.unsafe_get t.pseq tl) time seq
  then begin
    Array.unsafe_set pnext n (-1);
    Array.unsafe_set pnext tl n;
    Array.unsafe_set t.btail b n
  end
  else insert_sorted t b n

(* ---------------- push / pop ---------------- *)

(* The time is staged in key_in.(0) (see the header comment). *)
let push t ~seq ~slot =
  let time = Array.unsafe_get t.key_in 0 in
  let fq = t.fq in
  let f = (time -. Array.unsafe_get fq 0) *. Array.unsafe_get fq 1 in
  if t.count = 0 then begin
    t.count <- 1;
    (* Empty queue: jump the cursor straight to the entry's bucket when
       it still fits the window (the common closed-loop case), else
       re-anchor the window at the entry. *)
    if f >= 0.0 && f < Array.unsafe_get fq 2 then begin
      let b = int_of_float f in
      t.cur <- b;
      bucket_add t b time seq slot
    end
    else begin
      Array.unsafe_set fq 0 time;
      t.cur <- 0;
      bucket_add t 0 time seq slot
    end
  end
  else begin
    t.count <- t.count + 1;
    if f >= Array.unsafe_get fq 2 || t.cur >= t.nbuckets then
      heap_push t seq slot
    else begin
      (* At or before the drain cursor: join the draining bucket. *)
      let b = int_of_float f in
      bucket_add t (if b < t.cur then t.cur else b) time seq slot
    end
  end

(* Re-anchor the window at the overflow minimum and migrate every heap
   entry that now falls inside it. Called with all buckets empty; the
   heap yields ascending keys, so every migration is a tail append. *)
let advance_window t =
  let fq = t.fq in
  fq.(0) <- t.ht.(0);
  t.cur <- 0;
  let fmax = fq.(2) in
  let continue = ref true in
  while !continue && t.hsize > 0 do
    let time = t.ht.(0) in
    let f = (time -. fq.(0)) *. fq.(1) in
    if f >= fmax then continue := false
    else begin
      let seq = t.hs.(0) and slot = t.hv.(0) in
      heap_drop_min t;
      bucket_add t (int_of_float f) time seq slot
    end
  done

(* Pop the minimum entry: returns its slot, or -1 when empty; the key
   is left in key_out.(0) / out_seq. While entries remain, the draining
   bucket is never empty, so the minimum is its list head. *)
let rec pop t =
  if t.count = 0 then -1
  else if t.cur < t.nbuckets then begin
    let b = t.cur in
    let n = Array.unsafe_get t.bhead b in
    let pnext = t.pnext in
    Array.unsafe_set t.key_out 0 (Array.unsafe_get t.ptime n);
    t.out_seq <- Array.unsafe_get t.pseq n;
    let slot = Array.unsafe_get t.pslot n in
    let nx = Array.unsafe_get pnext n in
    Array.unsafe_set pnext n t.free;
    t.free <- n;
    t.count <- t.count - 1;
    if nx >= 0 then Array.unsafe_set t.bhead b nx
    else begin
      Array.unsafe_set t.bhead b (-1);
      Array.unsafe_set t.btail b (-1);
      occ_clear t b;
      (* With nothing left, the next push re-aims the cursor itself. *)
      if t.count > 0 then t.cur <- next_occupied t (b + 1)
    end;
    slot
  end
  else begin
    (* Window exhausted; count > 0 means the overflow heap is live. *)
    advance_window t;
    pop t
  end

(* Slots, times and seqs are scalars — resetting the lists is enough
   for the GC; the engine owns (and blanks) the payload pool. *)
let clear t =
  Array.fill t.bhead 0 t.nbuckets (-1);
  Array.fill t.btail 0 t.nbuckets (-1);
  Array.fill t.occ 0 (Array.length t.occ) 0;
  pool_thread t 0;
  t.cur <- 0;
  t.fq.(0) <- 0.0;
  t.hsize <- 0;
  t.count <- 0
