(** Multi-tenant QoS: token-bucket admission control plus a weighted
    deficit-round-robin (DRR) dispatch stage whose per-op cost is O(1)
    in the number of registered tenants.

    Tenants are dense-indexed records; the index rides on each request
    so the scheduler's lookup is one array read. Backlogged tenants sit
    on an intrusive active list (int links inside the records), so
    dispatch never scans idle tenants. Queued ops are (bytes,
    {!Lab_sim.Engine.park_cell}) pairs in per-tenant rings: a dispatch
    is a ring pop plus an unpark — no per-op allocation.

    Ops divide into two classes, mirroring blk-switch's L-app/T-app
    split: latency-class ops (at most 16 KiB, the device's
    urgent-transfer threshold) skip the dispatch window;
    throughput-class ops pass DRR, which keeps total outstanding
    throughput-class bytes under {!window_bytes} and shares that window
    by weight among backlogged tenants, replenishing each visited
    tenant's deficit by {!quantum_bytes} per unit weight. *)

type tenant

type t

val create : unit -> t

val window_bytes : int
(** Cap on outstanding throughput-class bytes (128 KiB). *)

val quantum_bytes : int
(** DRR replenishment per visit per unit weight (64 KiB). *)

val register :
  t ->
  ext_id:int ->
  weight:int ->
  rate_mbps:float ->
  burst_bytes:int ->
  qcap:int ->
  tenant
(** Registers a tenant under external id [ext_id] (a client uid).
    [rate_mbps <= 0.] means uncapped admission; [weight] below 1 is
    clamped to 1. @raise Invalid_argument on duplicate [ext_id]. *)

val n_tenants : t -> int

val get : t -> int -> tenant
(** Dense-index lookup — the scheduler's per-request path. *)

val find : t -> ext_id:int -> tenant option
(** External-id lookup (Hashtbl) — registration/CLI path, not per-op. *)

(** {2 Admission control — client side} *)

val admit : t -> tenant -> bytes:int -> now:float -> bool
(** Charges the token bucket and the outstanding-op cap. [false] means
    the op must be refused (EAGAIN) — the refusal is counted in
    {!throttled}. A [true] admission must be paired with {!complete}.

    On a rate-capped tenant an op of [b] bytes is admitted when the
    bucket holds at least [min b burst_bytes] tokens, and it always
    takes all [b]. An op larger than the burst therefore needs a full
    bucket and leaves it in debt; refused ops wait until the refill
    repays the debt, so the long-run rate stays [rate_mbps]. *)

val complete :
  t -> tenant -> bytes:int -> latency_ns:float -> ok:bool -> unit
(** Ends an admitted op: releases its cap slot and records its
    end-to-end latency (and, when [ok], its throughput). *)

(** {2 DRR dispatch — scheduler side} *)

val windowed : bytes:int -> bool
(** True for throughput-class ops (they must pass {!submit} /
    {!release}); false for latency-class ops, which bypass the window. *)

val submit : t -> tenant -> bytes:int -> Lab_sim.Engine.park_cell -> bool
(** Offers a throughput-class op to the dispatch window. [true]: the op
    was dispatched immediately (accounted in flight; do {e not} park).
    [false]: the op was queued — the caller must park on [cell] at
    once (no intervening yield) and will be unparked in DRR order.
    Either way the op must later be paired with {!release}. *)

val release : t -> bytes:int -> unit
(** Returns a dispatched op's bytes to the window and drains the DRR
    stage into the freed room. *)

(** {2 Introspection / probes} *)

val idx : tenant -> int

val ext_id : tenant -> int

val weight : tenant -> int

val deficit : tenant -> float

val throttled : tenant -> int

val queued : tenant -> int

val ops_done : tenant -> int

val bytes_done : tenant -> int

val dispatched : tenant -> int

val served_bytes : tenant -> int

val latency : tenant -> Lab_obs.Hist.t

val backlog : t -> int

val inflight_bytes : t -> int

