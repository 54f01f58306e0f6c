(** Simulated Linux block layer (multi-queue path).

    Submitting through the block layer allocates kernel request
    structures, runs the configured I/O scheduler to steer the request
    to a hardware dispatch queue, and — unless the caller polls —
    charges interrupt + wake-up costs on completion, as the real
    blk-mq path does. LabStor's Kernel Driver LabMod bypasses most of
    this via [submit_io_to_hctx]. *)

type sched =
  | Noop  (** steer to the queue of the originating core *)
  | Blk_switch  (** steer by per-queue load (blk-switch, NSDI'21) *)

type t

val create : Lab_sim.Machine.t -> Lab_device.Device.t -> sched:sched -> t

val device : t -> Lab_device.Device.t

val sched : t -> sched

val select_hctx : t -> thread:int -> bytes:int -> int
(** The scheduler decision, exposed for tests and for the userspace
    scheduler LabMods that reuse it. *)

val submit_bio_wait :
  t ->
  thread:int ->
  kind:Lab_device.Device.io_kind ->
  lba:int ->
  bytes:int ->
  polled:bool ->
  unit
(** Full kernel submission path, blocking until completion. [polled]
    models completion polling (no IRQ/wake-up charge). Runs in process
    context. *)

val submit_io_to_hctx :
  t ->
  thread:int ->
  hctx:int ->
  kind:Lab_device.Device.io_kind ->
  lba:int ->
  bytes:int ->
  on_complete:(unit -> unit) ->
  unit
(** LabStor's direct hardware-queue submission: skips the scheduler and
    the interrupt path (the caller polls for completion); still pays the
    kernel request allocation. Device faults are masked, the
    fault-masking path the kernel baselines use by design (see
    {!Lab_device.Device.submit}); {!submit_io_to_hctx_result} observes
    them. *)

val submit_io_to_hctx_result :
  t ->
  thread:int ->
  hctx:int ->
  kind:Lab_device.Device.io_kind ->
  lba:int ->
  bytes:int ->
  on_complete:
    ((Lab_device.Device.completion, Lab_device.Device.error) result -> unit) ->
  unit
(** Like {!submit_io_to_hctx} but delivers the device outcome, so driver
    LabMods can propagate injected faults upstream. In-flight accounting
    ends on either outcome; a lost command (unbounded timeout) never
    completes and keeps its in-flight slot, mirroring the device. *)

val submit_io_to_hctx_waiter :
  t ->
  thread:int ->
  hctx:int ->
  kind:Lab_device.Device.io_kind ->
  lba:int ->
  bytes:int ->
  Lab_device.Device.waiter ->
  unit
(** {!submit_io_to_hctx_result} on a caller-owned waiter: the caller
    {!Lab_device.Device.await}s it and reads the outcome from it. The
    waiter's notify is replaced by one preallocated per block layer,
    which ends the in-flight accounting and then wakes the waiter, so
    no closure is built per command. *)

val inflight : t -> int -> int
(** In-flight requests on a given hardware queue. *)

val note_dispatch : t -> hctx:int -> bytes:int -> unit
(** Manual in-flight accounting for callers that submit to the device
    directly (batched APIs); pair with {!note_completion}. *)

val note_completion : t -> hctx:int -> bytes:int -> unit
