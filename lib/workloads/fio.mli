(** FIO-style synthetic I/O workload generator.

    A job describes the access pattern; the storage under test is
    supplied as a pair of callbacks so the same job can drive kernel
    APIs, raw devices, or LabStor stacks. *)

type pattern = Randwrite | Randread | Seqwrite | Seqread

type job = {
  name : string;
  pattern : pattern;
  block_bytes : int;
  total_bytes_per_thread : int;  (** ignored when [runtime_ns] is set *)
  iodepth : int;
  nthreads : int;
  runtime_ns : float option;  (** time-bounded run instead of size-bounded *)
  region_bytes : int;  (** per-thread offset space for random patterns *)
}

val default_job : job

type io_target = {
  submit :
    thread:int -> kind:Lab_core.Request.io_kind -> off:int -> bytes:int -> unit;
      (** one blocking operation *)
  submit_batch :
    thread:int ->
    kind:Lab_core.Request.io_kind ->
    offs:int array ->
    bytes:int ->
    unit;
      (** a batch of [iodepth] operations, blocking until all complete *)
}

val target_of_submit :
  (thread:int -> kind:Lab_core.Request.io_kind -> off:int -> bytes:int -> unit) ->
  io_target
(** Builds a target whose batches are sequential loops (APIs with no
    native batching). *)

type result = {
  ops : int;
  elapsed_ns : float;
  iops : float;
  bandwidth_mib_s : float;
  latency : Lab_obs.Hist.t;  (** per-op (iodepth 1) or per-batch-slot latency *)
}

val run : Lab_sim.Machine.t -> job -> io_target -> result
(** Spawns [nthreads] generator processes and blocks the calling
    process until they all finish. Must run inside a simulated
    process. *)
