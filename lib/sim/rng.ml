(* The 64-bit state lives in 8 bytes, read and written with
   [Bytes.get/set_int64_le]: a mutable [int64] field would box the state
   on every store. [next_raw] is inlined into each draw, so the
   SplitMix64 arithmetic runs on unboxed values and a draw that returns
   an int or a bool allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = of_state (next_raw t)

let copy t = Bytes.copy t

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits in OCaml's native non-negative int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_raw t) 1L = 1L

let[@inline] exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    (* Inverse-CDF on the generalized harmonic number, computed lazily.
       Good enough for workload skew; not on any hot path. *)
    let h = ref 0.0 in
    for k = 1 to n do
      h := !h +. (1.0 /. Float.pow (Stdlib.float_of_int k) theta)
    done;
    let target = float t !h in
    let acc = ref 0.0 in
    let result = ref (n - 1) in
    (try
       for k = 1 to n do
         acc := !acc +. (1.0 /. Float.pow (Stdlib.float_of_int k) theta);
         if !acc >= target then begin
           result := k - 1;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end
