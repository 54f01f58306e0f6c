(* High-resolution latency histogram.

   HDR-style: log2 majors split into 32 linear sub-buckets, so a
   quantile estimate is within 2^-4 of the true value (a pure log2
   histogram is only within 2x), with exact min/max/sum/count kept
   beside the buckets. Values are nanoseconds.

   The bucket array grows on demand to the highest index observed, so
   an idle histogram costs a few words and one that only ever saw
   microsecond latencies never pays for the multi-second range. This
   matters where histograms are per object (one per QoS tenant).

   Recording is plain arithmetic: no clocks, no engine events, so a
   histogram can never perturb a deterministic run. *)

let sub_bits = 5

let subs = 1 lsl sub_bits (* 32 linear sub-buckets per log2 major *)

let half = 1 lsl (sub_bits - 1)

(* The float state lives unboxed in [stats]: a mutable float field of a
   mixed record would box a fresh float on every [observe]. *)
let i_sum = 0

let i_min = 1

let i_max = 2

type t = {
  mutable buckets : int array; (* index i < length; grows, never shrinks *)
  mutable count : int;
  stats : float array; (* [i_sum], [i_min], [i_max] *)
}

let create () =
  { buckets = [||]; count = 0; stats = [| 0.0; infinity; neg_infinity |] }

let clear h =
  Array.fill h.buckets 0 (Array.length h.buckets) 0;
  h.count <- 0;
  h.stats.(i_sum) <- 0.0;
  h.stats.(i_min) <- infinity;
  h.stats.(i_max) <- neg_infinity

let msb v =
  let r = ref 0 and v = ref v in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

(* Indexed by the value's whole nanoseconds. Whole values below [subs]
   ns are exact (a fractional one reads its whole part, up to 1 ns
   low); above, a value with top bit p shares a bucket with the other
   values agreeing on its top [sub_bits] bits — relative error below
   2^-(sub_bits-1). *)
let index_of iv =
  if iv < subs then iv
  else begin
    let b = msb iv - sub_bits + 1 in
    (b * half) + (iv lsr b)
  end

(* [max_int] lands in the last bucket: every value the simulator can
   produce has an index below [nbuckets]. *)
let nbuckets = index_of max_int + 1

(* Floats at or past 2^62 do not fit an OCaml int ([int_of_float]
   would wrap to a negative index); they all share the last bucket. *)
let int_limit = Float.ldexp 1.0 62

let upper_of idx =
  if idx < subs then Float.of_int idx
  else begin
    let b = (idx / half) - 1 in
    let top = idx - (b * half) in
    Float.ldexp (Float.of_int (top + 1)) b -. 1.0
  end

let grow h idx =
  let len = Array.length h.buckets in
  let n = Stdlib.min nbuckets (Stdlib.max (idx + 1) (2 * len)) in
  let b = Array.make n 0 in
  Array.blit h.buckets 0 b 0 len;
  h.buckets <- b

(* The one recording body, inlined into both entry points so a value
   read from a cell stays unboxed. *)
let[@inline] record h v =
  let v = if Float.is_finite v && v > 0.0 then v else 0.0 in
  let idx =
    if v >= int_limit then nbuckets - 1 else index_of (Stdlib.int_of_float v)
  in
  if idx >= Array.length h.buckets then grow h idx;
  h.buckets.(idx) <- h.buckets.(idx) + 1;
  h.count <- h.count + 1;
  let s = h.stats in
  s.(i_sum) <- s.(i_sum) +. v;
  if v < s.(i_min) then s.(i_min) <- v;
  if v > s.(i_max) then s.(i_max) <- v

let observe h v = record h v

let observe_cell h cells i = record h cells.(i)

let count h = h.count

let sum h = h.stats.(i_sum)

let mean h = if h.count = 0 then 0.0 else sum h /. Float.of_int h.count

let min_value h = if h.count = 0 then 0.0 else h.stats.(i_min)

let max_value h = if h.count = 0 then 0.0 else h.stats.(i_max)

(* Nearest-rank quantile over the buckets; the estimate is the
   bucket's upper bound clamped into the exact [min, max] envelope,
   so p0/p100 are exact and no estimate can exceed the true range. *)
let quantile h q =
  if h.count = 0 then 0.0
  else begin
    let rank =
      let r = Stdlib.int_of_float (ceil (q *. Float.of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let cum = ref 0 and i = ref 0 in
    while !cum < rank do
      cum := !cum + h.buckets.(!i);
      incr i
    done;
    Float.min h.stats.(i_max) (Float.max h.stats.(i_min) (upper_of (!i - 1)))
  end

let buckets h =
  let acc = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then acc := (upper_of i, h.buckets.(i)) :: !acc
  done;
  !acc
