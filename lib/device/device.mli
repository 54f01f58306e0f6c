(** Simulated storage device with multi-queue submission.

    The service model has two stages. A command first occupies one of
    [n_channels] latency slots (modelling internal parallelism: flash
    channels, PMEM banks, a disk's single actuator), then transfers its
    payload through the device's shared bandwidth. Small requests are
    therefore latency-bound but scale with parallel submission; large
    requests are bandwidth-bound regardless of queue count — matching
    the qualitative behaviour the paper's Figure 6 depends on.

    Requests submitted to the same hardware queue begin service in FIFO
    order. HDDs additionally pay a seek whenever a command's LBA is not
    contiguous with the previous command. *)

type t

type io_kind = Read | Write

type error =
  | E_io  (** media error: command consumed its latency, moved no data *)
  | E_offline
      (** queue/device offline window: rejected at submission, or the
          device disappeared while the command was queued/in service *)
  | E_torn of int
      (** torn write: only this many bytes were persisted — always
          strictly fewer than requested *)

val error_to_string : error -> string
(** [E_io] is ["EIO"] (retryable media error) and [E_offline] is
    ["ENODEV"] (the device is gone: requeue elsewhere or fail over to a
    mirror leg) — distinct errnos so retry logic can tell the cases
    apart. *)

val create : ?name:string -> Lab_sim.Engine.t -> Profile.t -> t
(** [name] identifies this device instance (e.g. one mirror leg) in
    metrics and volume-manager topology; defaults to ["dev"]. *)

val name : t -> string

val set_fault_plan : t -> Lab_sim.Fault.t -> unit
(** Installs a deterministic fault plan; every subsequently submitted
    command consults it (per chunk, at submission time). Without a plan
    the device is fault-free and behaves exactly as before.

    The plan's scripted offline windows additionally become device
    events: when a window opens, commands still queued on a covered
    hardware queue complete immediately with [E_offline] and commands
    already in service error out when their latency elapses — nothing
    hangs on a dead controller. Whole-device windows also fire the
    {!add_health_watcher} callbacks at their start and end. *)

val fault_plan : t -> Lab_sim.Fault.t option

(** Device-loss notifications, fired for whole-device offline windows
    ([queue = None]) of the installed fault plan. *)
type health_event =
  | Went_offline of { until_ns : float }
  | Came_online

val add_health_watcher : t -> (health_event -> unit) -> unit
(** Registers a callback run in simulated-event context at whole-device
    loss and return; watchers registered before the event fires (e.g.
    at mount time for a boot-time plan) see every transition. *)

val profile : t -> Profile.t

val engine : t -> Lab_sim.Engine.t

val n_hw_queues : t -> int

(** {2 Waiters}

    The device's one submission path. A waiter is a caller-owned,
    reusable completion record: {!submit_waiter} fans a command out
    into chunks, each finished chunk merges its outcome into the waiter
    in place, and the last one calls the waiter's notify. Pooled
    waiters make a steady-state command allocate nothing but the
    continuations of the processes it passes through. {!submit_wait}
    is the one blocking call over it. A caller that never reads
    {!waiter_error} masks faults; {!completed_errors} still counts
    them. *)

type waiter

val submit_waiter :
  t -> waiter -> hctx:int -> kind:io_kind -> lba:int -> bytes:int -> unit
(** Asynchronous submission: the waiter's notify fires in device
    context once every chunk has finished. [hctx] is taken modulo the
    queue count. Operations larger than the per-command transfer limit
    are split into chunks; the outcome is the most severe chunk error
    (offline > media error > torn), with [E_torn] carrying the total
    bytes persisted. A command hit by an unbounded transient timeout is
    {e lost}: the notify never fires and the waiter stays pending —
    recovering from that is the client deadline's job.
    @raise Invalid_argument if [bytes <= 0] or the waiter's previous
    command is still pending. *)

val wake : waiter -> unit
(** The default notify: continues the process {!await}ing the waiter
    at the current virtual time, with the (time, seq) key
    {!Lab_sim.Engine.unpark} takes. *)

val set_notify : waiter -> (waiter -> unit) -> unit
(** Replaces the waiter's notify (the default is {!wake}). A
    preallocated callback makes this free per use. *)

val await : waiter -> unit
(** Parks the calling process until the waiter's notify wakes it;
    returns at once when no command is pending. *)

val waiter_error : waiter -> error option
(** The finished command's outcome: [None] on success. *)

val waiter_hctx : waiter -> int
(** The hardware queue of the last submission (after the modulo). *)

val waiter_bytes : waiter -> int

val waiter_submitted : waiter -> float
(** Submission time of the last command, ns. *)

val waiter_completed : waiter -> float
(** Time the last command's final chunk finished, ns. *)

type waiter_pool
(** A stack of free waiters, for callers that keep one per in-flight
    command. *)

val waiter_pool : unit -> waiter_pool

val take_waiter : waiter_pool -> waiter
(** A free waiter from the pool, or a new one with the default notify
    when the pool is empty. *)

val give_waiter : waiter_pool -> waiter -> unit
(** Returns a waiter to the pool.
    @raise Invalid_argument if its command is still pending. *)

val submit_wait : t -> hctx:int -> kind:io_kind -> lba:int -> bytes:int -> unit
(** Blocking submission on a waiter pooled by the device: suspends the
    calling process until the command completes and ignores its
    outcome. The kernel baselines use it by design: they model stacks
    whose fault handling is out of scope. *)

val flush : t -> unit
(** Suspends the caller until every outstanding command has completed
    (fsync semantics at the device level). *)

val outstanding : t -> int

(** Observability counters. *)

val completed_reads : t -> int

val completed_writes : t -> int

val completed_errors : t -> int
(** Commands that completed with an injected fault (media errors and
    torn writes; offline rejections are counted by the fault plan, lost
    commands never complete). *)

val bytes_read : t -> int

val bytes_written : t -> int

val service_stats : t -> Lab_obs.Hist.t
(** Per-command service times (submission to completion), ns, as a
    histogram: fixed memory however many commands complete. *)

val reset_stats : t -> unit
(** Zero the completion counters and clear {!service_stats} in place
    (the same histogram, its buckets kept). *)
