(** Monomorphic simulator event queue: calendar-queue buckets over a
    flat structure-of-arrays overflow heap.

    Entries are [(time : float, seq : int, slot : int)] triples held in
    parallel unboxed arrays; {!pop} returns them in strictly ascending
    [(time, seq)] order — identical to a stable binary heap keyed on
    [(time, seq)] with unique seqs (same-time entries drain in push
    order). In-window entries live in one shared pool; each bucket is a
    sorted list threaded through it.

    Because a [float] crossing a function boundary would be boxed by
    the compiler, the key is exchanged through staging cells instead of
    arguments/results: write the time into [key_in.(0)] before calling
    {!push}; after {!pop}, read the popped entry's time from
    [key_out.(0)] and its seq from [out_seq]. The record is exposed so
    those reads/writes compile to plain array/field accesses. Treat
    every other field as private. *)

type t = {
  key_in : float array;  (** [key_in.(0)] = time staged before {!push} *)
  key_out : float array;  (** [key_out.(0)] = time of the last {!pop} *)
  mutable out_seq : int;  (** seq of the last {!pop} *)
  nbuckets : int;
  fq : float array;
      (** [0] wstart · [1] 1/width · [2] float nbuckets · [3] width *)
  mutable cur : int;  (** draining bucket; [nbuckets] = window exhausted *)
  mutable ptime : float array;  (** entry pool: times *)
  mutable pseq : int array;
  mutable pslot : int array;
  mutable pnext : int array;  (** bucket-list or free-list link *)
  mutable free : int;
  bhead : int array;  (** per-bucket first pool node, [-1] = empty *)
  btail : int array;  (** per-bucket last pool node, [-1] = empty *)
  occ : int array;  (** occupancy bitmap, 32 buckets per word *)
  mutable ht : float array;
  mutable hs : int array;
  mutable hv : int array;
  mutable hsize : int;
  mutable count : int;
}

val create : ?nbuckets:int -> ?width:float -> unit -> t
(** [create ()] uses 16384 buckets of 8 ns — one 131 µs window. Narrow
    buckets keep per-bucket lists short under high concurrency, and the
    occupancy bitmap makes skipping empty buckets O(1), so sparse
    workloads don't pay for the width. Entries past the window fall
    back to the overflow heap and migrate in when the window advances,
    so any spread of times is correct; geometry only affects speed.
    @raise Invalid_argument unless both are positive. *)

val push : t -> seq:int -> slot:int -> unit
(** Inserts the entry [(key_in.(0), seq, slot)]. Seqs must be unique
    per queue ({!pop} order among equal times follows seqs). Amortized
    O(1); allocates only when the entry pool or the heap grows. *)

val pop : t -> int
(** Removes the minimum-[(time, seq)] entry and returns its slot, or
    [-1] if the queue is empty. The popped key is left in [key_out.(0)]
    and [out_seq]. Amortized O(log n) worst case, O(1) typical. *)

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Drops all entries. Entries are scalar triples, so no heap
    references are retained; callers owning payloads indexed by slot
    must blank those separately. *)
