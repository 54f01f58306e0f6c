(** Kernel I/O APIs for raw device files (O_DIRECT), as used by the
    paper's Figure 6 baselines: POSIX synchronous I/O, POSIX AIO,
    libaio, and io_uring.

    Cost structure per 1-deep request:
    - [Psync]: one syscall; the thread blocks — IRQ + wake-up + reschedule
      on completion.
    - [Posix_aio]: [Psync] executed by a helper thread, adding two
      thread hand-offs (the paper measures 60-70 % overhead on fast
      devices).
    - [Libaio]: submit + getevents syscalls; completion is interrupt
      driven but the caller busy-polls, avoiding the sleep/wake cycle.
    - [Io_uring]: one submission syscall; completions are reaped from
      the user-mapped ring (no second syscall; IRQ still fires). *)

type api = Psync | Posix_aio | Libaio | Io_uring

type t

val all : api list

val create : Lab_sim.Machine.t -> Blk.t -> t

val submit_wait :
  t -> api:api -> thread:int -> kind:Lab_device.Device.io_kind -> off:int -> bytes:int -> unit
(** One blocking request (I/O depth 1) to the raw device. *)

val submit_batch_wait :
  t ->
  api:api ->
  thread:int ->
  kind:Lab_device.Device.io_kind ->
  offs:int array ->
  bytes:int ->
  unit
(** Submits [Array.length offs] requests as one batch and waits for all
    completions — models fio's iodepth > 1 with libaio/io_uring
    (for [Psync]/[Posix_aio] the batch degenerates to a loop). *)
