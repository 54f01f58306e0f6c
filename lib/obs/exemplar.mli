(** Tail-latency exemplar store: retroactive capture of the slowest
    requests with full stage anatomy.

    Every request's spans are recorded into a pooled fixed-capacity
    buffer by the tracer (see {!Trace}); on completion the buffer is
    recycled when latency is under the adaptive {!val-threshold_ns}, or
    promoted — copied into a preallocated slot — when it lands in the
    tail. The store keeps the K slowest requests seen (strict-greater
    eviction, deterministic ties), so a run ends with the anatomy of
    exactly the outliers a prospective 1-in-N sampler would have
    missed. Steady state allocates nothing. *)

val stage_capacity : int
(** Stage records captured per request (24): the deepest stock stack's
    telescoping stages + per-LabMod spans + instants fit inside it;
    overflow is counted, not grown. *)

type t

val create : ?threshold:(unit -> float) -> k:int -> unit -> t
(** [k] slots; no store is an absent one, so [k <= 0] raises
    [Invalid_argument].
    Without [threshold] the store is self-adaptive: it keeps its own
    {!Hist} of every offered latency (one per traced attempt, not the
    registry's per-request "client.latency_ns") and, while a slot is
    free, promotes what clears its corrected p99 (whose estimate never
    exceeds the exact running max, so a new slowest-so-far always
    promotes). Once the store is full, an offer promotes exactly when
    it beats the stored minimum. An explicit [threshold] closure (ns)
    overrides the p99 and applies whether full or not; it is re-read on
    every offer, so it can track any live signal. *)

val offer :
  t ->
  id:int ->
  t0:float ->
  latency:float ->
  n:int ->
  dropped:int ->
  names:string array ->
  cats:string array ->
  t0s:float array ->
  t1s:float array ->
  bool
(** Offer a completed request's captured stages (first [n] records of
    the parallel arrays; [dropped] counts records past
    {!stage_capacity}). Copies in on promotion; never retains the
    caller's arrays. Returns [true] iff promoted. *)

val threshold_ns : t -> float
(** Current promotion threshold (reads the live closure). *)

val k : t -> int
val stored : t -> int

val offered : t -> int
val promoted : t -> int
val recycled : t -> int
val evicted : t -> int

(** {1 Read-out} *)

type stage = { s_name : string; s_cat : string; s_t0 : float; s_t1 : float }

type view = {
  v_id : int;
  v_t0 : float;
  v_latency : float;
  v_dropped : int;
  v_stages : stage list;
}

val dump : t -> view list
(** Stored exemplars, slowest first (ties by request id — stable for
    same-seed runs). *)

val to_json : t -> string
(** Byte-stable JSON: store counters plus the ranked exemplar list
    with per-stage name/cat/begin/duration. *)
