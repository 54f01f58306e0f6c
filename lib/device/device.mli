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

type completion = {
  c_kind : io_kind;
  c_lba : int;
  c_bytes : int;
  c_submitted : float;
  c_completed : float;
}

type error =
  | E_io  (** media error: command consumed its latency, moved no data *)
  | E_offline
      (** queue/device offline window: rejected at submission, or the
          device disappeared while the command was queued/in service *)
  | E_timeout  (** reserved for upper layers fabricating deadline misses *)
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

val submit_result :
  t ->
  hctx:int ->
  kind:io_kind ->
  lba:int ->
  bytes:int ->
  on_complete:((completion, error) result -> unit) ->
  unit
(** Asynchronous submission; [on_complete] fires in device context with
    the command's outcome. [hctx] is taken modulo the queue count.
    Operations larger than the per-command transfer limit are split
    into chunks; the reported outcome is the most severe chunk error
    (offline > media error > torn), with [E_torn] carrying the total
    bytes persisted. A command hit by an unbounded transient timeout is
    {e lost}: [on_complete] never fires — recovering from that is the
    client deadline's job. *)

val submit_wait_result :
  t -> hctx:int -> kind:io_kind -> lba:int -> bytes:int ->
  (completion, error) result
(** Blocking variant of {!submit_result}. *)

val submit :
  t ->
  hctx:int ->
  kind:io_kind ->
  lba:int ->
  bytes:int ->
  on_complete:(completion -> unit) ->
  unit
(** Fault-masking submission: like {!submit_result}, but on error a
    fabricated completion is delivered, so callers without an error
    path still make progress ([completed_errors] still counts the
    fault). The kernel baselines use this path by design: they model
    stacks whose fault handling is out of scope. Callers that recover
    from faults use {!submit_result}. *)

val submit_wait : t -> hctx:int -> kind:io_kind -> lba:int -> bytes:int -> completion
(** Blocking submission: suspends the calling process until the command
    completes. Faults masked as in {!submit}. *)

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

val service_stats : t -> Lab_sim.Stats.t
(** Per-command service times (submission to completion), ns. *)

val reset_stats : t -> unit
