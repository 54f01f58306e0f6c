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

val select_hctx : t -> thread:int -> bytes:int -> int
(** The scheduler decision: [Noop] steers to the originating core's
    queue, [Blk_switch] applies {!switch_hctx} to this layer's
    in-flight bytes. *)

val switch_hctx : float array -> bytes:int -> int
(** blk-switch's steering rule over per-queue in-flight bytes: a
    request of at most 16 KiB goes to the least-loaded queue of the
    last quarter (the latency class), a larger one to the least-loaded
    of the rest; ties go to the lowest queue. The blkswitch_sched
    LabMod steers with it too. *)

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
  Lab_device.Device.waiter ->
  unit
(** LabStor's direct hardware-queue submission on a caller-owned
    waiter: skips the scheduler and the interrupt path (the caller
    polls for completion); still pays the kernel request allocation.
    [hctx] is taken modulo the queue count, so the in-flight slot and
    {!Lab_device.Device.waiter_hctx} agree. The waiter's notify is the
    caller's and must start with {!note_completion} for the waiter's
    queue and bytes: in-flight accounting then ends in device context,
    before any process resumes, and blk-switch steering reads it in
    between. A lost command never notifies and keeps its in-flight
    slot, mirroring the device. *)

val inflight : t -> int -> int
(** In-flight requests on a given hardware queue. *)

val note_dispatch : t -> hctx:int -> bytes:int -> unit
(** Manual in-flight accounting for callers that submit to the device
    directly (batched APIs); pair with {!note_completion}. *)

val note_completion : t -> hctx:int -> bytes:int -> unit
(** Ends the in-flight accounting {!note_dispatch} or
    {!submit_io_to_hctx} started; called from the completion's
    notify. *)
