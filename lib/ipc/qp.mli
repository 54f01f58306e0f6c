(** Queue pairs: a submission ring and a completion ring, the unit of
    client↔runtime communication.

    Properties from the paper: {e primary} queues carry requests
    initiated by clients; {e intermediate} queues carry requests spawned
    by other requests. {e Ordered} queues must be drained by a single
    worker in sequence; {e unordered} queues may be drained by many.
    Queues carry an upgrade mark used by the Module Manager's live
    upgrade protocol.

    Time costs of ring operations are charged by the caller (see
    {!Lab_sim.Costs}); this module only manages structure, blocking and
    wake-ups. *)

type role = Primary | Intermediate

type ordering = Ordered | Unordered

type mark = Normal | Update_pending | Update_acked

type 'a t

val create :
  ?metrics:Lab_obs.Metrics.t ->
  ?sq_depth:int ->
  role:role ->
  ordering:ordering ->
  id:int ->
  unit ->
  'a t
(** [?metrics] attaches the queue pair's doorbell/stall counters to a
    registry under ["ipc.qp<id>."]; without it the counters are still
    maintained but only visible through the accessors below. The
    submission ring holds [sq_depth] (default 256) requests, the
    completion ring 256. *)

val id : 'a t -> int

val role : 'a t -> role

val ordering : 'a t -> ordering

val mark : 'a t -> mark

val set_mark : 'a t -> mark -> unit

(** {2 Client side} *)

val submit : 'a t -> 'a -> unit
(** Enqueues into the submission ring and rings the assigned worker's
    doorbell. Under backpressure (full ring) the caller parks on the
    SQ-space wait queue and is woken when the worker pops an entry.
    Must run inside a simulated process. *)

val submit_n : 'a t -> 'a array -> int -> unit
(** Batched submit: [submit_n t vs n] enqueues [vs.(0 ...)] through
    [vs.(n-1)] in order (parking on SQ space as needed) and rings the
    doorbell {e once} for the whole batch — the io_uring-style
    coalesced doorbell. [n = 0] does not ring. *)

val try_submit : 'a t -> 'a -> bool
(** Non-blocking variant; still rings the doorbell on success. *)

val await_completion : 'a t -> 'a
(** Blocks the calling process until a completion entry is available. *)

val try_completion : 'a t -> 'a option

val completion_or : 'a t -> 'a -> 'a
(** [completion_or t none] is {!try_completion} without the option: the
    next completion, or [none] (compared by physical equality) when the
    ring is empty. [none] must be a value never submitted, such as one
    request built at module initialisation. Allocation-free. *)

val wait_completion_event : 'a t -> unit
(** Parks until a completion is posted {e or} the waiters are flushed by
    {!wake_all_waiters}; the caller must re-check the completion ring.
    Lets clients detect Runtime crashes instead of sleeping forever. *)

val wake_all_waiters : 'a t -> unit
(** Wakes every process blocked on completions or parked on ring space
    (crash notification). *)

(** {2 Worker side} *)

val poll_sq : 'a t -> 'a option
(** Non-blocking pop from the submission ring; wakes one producer
    parked on SQ space. *)

val poll_sq_into : 'a t -> 'a array -> int -> int
(** Batched pop: [poll_sq_into t dst n] pops up to [n] entries in
    FIFO order into [dst.(0 ...)], wakes one parked producer per freed
    slot, and returns the count. Allocation-free. The caller owns
    [dst] and should dummy-out the filled prefix after processing
    so the scratch array does not pin completed requests. *)

val peek_sq : 'a t -> 'a option

val complete : 'a t -> 'a -> unit
(** Pushes into the completion ring and wakes a client blocked in
    {!await_completion}. Retries under backpressure. *)

val sq_depth : 'a t -> int
(** Requests currently queued for service (orchestrator input). *)

val cq_depth : 'a t -> int

val total_submitted : 'a t -> int

(** {2 Backpressure & doorbell observability} *)

val doorbell_rings : 'a t -> int
(** Lifetime count of doorbell rings ({!submit}/{!try_submit} ring once
    per entry; {!submit_n} once per batch) — the numerator of the
    doorbells-per-request metric. *)

val sq_stalls : 'a t -> int
(** Times a producer parked on a full submission ring. *)

val set_doorbell : 'a t -> Lab_sim.Waitq.t option -> unit
(** Attaches the doorbell of the worker assigned to this queue: each
    submission wakes that worker if it is idle-parked. [None] clears
    every attached doorbell. *)

val add_doorbell : 'a t -> Lab_sim.Waitq.t -> unit
(** Unordered queues may be drained by several workers: attach another
    doorbell. Submissions ring every attached doorbell. Idempotent. *)

val remove_doorbell : 'a t -> Lab_sim.Waitq.t -> unit

val doorbell : 'a t -> Lab_sim.Waitq.t option
(** The first attached doorbell, if any. *)

val add_ready_listener : 'a t -> (unit -> unit) -> unit
(** Registers a callback fired synchronously on every doorbell ring and
    every {!set_mark}, letting a poller keep a readiness bitmap over
    thousands of queue pairs instead of scanning the idle ones.
    Idempotent by physical equality, like {!add_doorbell}. *)

val remove_ready_listener : 'a t -> (unit -> unit) -> unit
