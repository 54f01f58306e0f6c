(** LabStor client library.

    Plays the role of the LD_PRELOADed Generic LabMods: GenericFS
    (fd allocation + routing of POSIX calls to the right filesystem
    stack) and GenericKVS (routing of put/get/delete). Paths and keys
    are resolved against the LabStack Namespace by longest prefix.

    For stacks mounted [async], requests travel through shared-memory
    queue pairs to Runtime workers; for [sync] stacks the DAG executes
    directly in the client thread. The library also implements crash
    recovery (Wait detects an offline Runtime, waits for restart, runs
    StateRepair, and retries) and applies decentralized live upgrades at
    request boundaries. *)

type t

exception Runtime_gone
(** Raised when the Runtime stayed offline past the client's
    [recovery_timeout_ns]. Crash recovery works as follows: a client
    that finds the Runtime offline parks until it restarts, runs
    StateRepair on every mounted LabMod and resubmits; if the Runtime
    is still offline after [recovery_timeout_ns] of waiting — it never
    restarted — the request cannot be served by anyone and this
    exception escapes to the application. *)

(** {2 Fault policy} *)

type retry_policy = {
  max_retries : int;  (** additional attempts after the first *)
  base_backoff_ns : float;  (** wait before the first retry *)
  backoff_multiplier : float;  (** growth factor per retry *)
  max_backoff_ns : float;  (** backoff ceiling *)
  jitter : float;
      (** each wait is drawn uniformly from [b ± jitter·b] to decorrelate
          clients retrying in lockstep (seeded, deterministic) *)
  deadline_ns : float;
      (** per-request budget covering every attempt and backoff;
          [infinity] disables it. A miss yields an [ETIMEDOUT] failure
          and is never retried. *)
}

val default_retry_policy : retry_policy
(** 3 retries, 50µs base backoff doubling up to 5ms, 25% jitter, no
    deadline. *)

val connect :
  Runtime.t ->
  pid:int ->
  uid:int ->
  thread:int ->
  ?recovery_timeout_ns:float ->
  ?retry_policy:retry_policy ->
  unit ->
  t
(** Models the UNIX-socket handshake and credential exchange. Must run
    inside a simulated process.

    Transient failures ([EIO], [ENODEV], [ETORN], and [EAGAIN] from a
    refused QoS admission — see
    {!Lab_core.Request.is_transient_failure}) are retried per
    [retry_policy] with exponential backoff; an [ENODEV] retry is
    requeued to a different hardware queue (degraded-mode routing),
    [ENODEV] being the offline-device errno as opposed to a retryable
    [EIO] media error. When retries are exhausted the last failure is
    surfaced. *)

(** {2 GenericFS: POSIX interface} *)

val open_file : t -> ?create:bool -> string -> (int, string) result
(** Resolves the path to a stack, forwards the open, allocates an fd. *)

val close : t -> int -> (unit, string) result

val pwrite : t -> fd:int -> off:int -> bytes:int -> (int, string) result

val pread : t -> fd:int -> off:int -> bytes:int -> (int, string) result

val fsync : t -> fd:int -> (unit, string) result

val create : t -> string -> (unit, string) result

val stat : t -> string -> (unit, string) result
(** Existence/attribute lookup (an [open] without fd allocation). *)

val unlink : t -> string -> (unit, string) result

val rename : t -> src:string -> dst:string -> (unit, string) result

(** {2 GenericKVS: key-value interface} *)

val put : t -> key:string -> bytes:int -> (unit, string) result

val get : t -> key:string -> (int, string) result

val delete : t -> key:string -> (unit, string) result

(** {2 Raw block access} *)

val write_block :
  ?stream:int ->
  ?scheduled_at:float ->
  t ->
  mount:string ->
  lba:int ->
  bytes:int ->
  (int, string) result
(** Submits a block write to the stack at [mount] (whose entry LabMod
    must accept block requests, e.g. a scheduler or driver) — the
    direct-to-device path of the scheduler experiments. [stream] tags
    the request with a sequential-access stream id
    ({!Lab_core.Request.t.hint_stream}) so cache LabMods can track
    per-stream readahead; untagged requests are keyed by pid.

    [scheduled_at] is the open-loop arrival process's intended
    injection time ({!Lab_core.Request.t.times}[.(1)]): when given,
    the client measures latency (and feeds the runtime SLO, if
    configured) from it instead of from the send, which is the
    coordinated-omission-safe origin. Omitted = closed-loop behavior,
    identical to before the field existed. *)

val read_block :
  ?stream:int ->
  ?scheduled_at:float ->
  t ->
  mount:string ->
  lba:int ->
  bytes:int ->
  (int, string) result

(** {2 Batched block access}

    io_uring-style multi-submit: a batch of requests is pushed into the
    stack's submission ring with a {e single} doorbell ring, amortizing
    the worker wakeup across the batch. Per-entry enqueue time is still
    charged per request. *)

type batch_op = {
  op_kind : Lab_core.Request.io_kind;
  op_lba : int;
  op_bytes : int;
}

val block_batch :
  t -> mount:string -> batch_op list -> ((int, string) result list, string) result
(** Submits the whole batch with one doorbell, awaits every completion,
    and applies the client fault policy per request (retries of
    transient failures go through the single-request path). Results are
    in submission order. After a Runtime crash only the entries not yet
    completed are resubmitted, again with one doorbell; entries still
    outstanding at the deadline fail with [ETIMEDOUT]. On a sync stack
    the ops simply run back to back in the client thread. *)

(** {2 Control} *)

val control : t -> mount:string -> int -> (unit, string) result
(** Sends a control message to the stack at [mount] (upgrade tests). *)

(** {2 Process semantics} *)

val fork : t -> new_pid:int -> new_thread:int -> t
(** clone/execve support: the child reconnects and the parent's open
    file descriptors are copied to it (and it inherits the retry
    policy). *)

val open_fd_count : t -> int

(** {2 Fault observability} *)

val retries : t -> int
(** Retry attempts made (one per re-dispatched transient failure). *)

val requeues : t -> int
(** Retries that were steered to a different hardware queue because the
    original queue was offline. *)

val deadline_misses : t -> int
(** Requests abandoned because their deadline passed (waiting on a lost
    command or during backoff). *)

val exhausted_retries : t -> int
(** Requests that kept failing transiently after the last allowed
    retry and were surfaced to the application. *)
