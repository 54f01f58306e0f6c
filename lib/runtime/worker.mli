(** Runtime workers: processes that drain request queues, execute
    LabStacks, and post completions.

    A worker sweeps its assigned queue pairs; on an empty sweep it spins
    briefly (polling), then parks on its doorbell until a submission
    rings it — modelling the paper's workers that stop busy-waiting
    after an idle period. Awake wall-time is accounted as CPU
    utilization. Workers participate in the centralized upgrade
    protocol by acknowledging queue marks. *)

type t

val create :
  Lab_sim.Machine.t ->
  hooks:Lab_core.Hooks.t ->
  id:int ->
  thread:int ->
  exec:(thread:int -> Lab_core.Request.t -> Lab_core.Request.result) ->
  ?qstat:(qp_id:int -> float array -> int -> unit) ->
  ?qprime:(qp_id:int -> Lab_core.Request.t -> unit) ->
  ?spin_ns:float ->
  ?busy_poll:bool ->
  ?batch_size:int ->
  ?max_inflight:int ->
  unit ->
  t
(** [hooks] sees each request's stages and the worker's park/wake
    ({!Lab_core.Hooks.off} outside a runtime). [exec] runs a request
    through its stack. [qstat ~qp_id cells i]
    reports an observed per-queue service time, [cells.(i)], to the
    orchestrator (in a cell, so the float is not boxed). [spin_ns] is the idle
    polling budget before parking (default 5000). With [busy_poll] the
    worker never parks while it has assigned queues — it burns its core
    polling, like a statically-configured worker pool; utilization then
    reflects wall time. [batch_size] (default 1) is how many requests
    one sweep may drain from a queue per cross-core pull: the first
    entry pays the full {!Lab_sim.Costs.shmem_cross_core_ns}, the rest
    the {!Lab_sim.Costs.shmem_batch_frac} fraction. Queues are visited
    round-robin, so batching never starves a sibling queue.
    [max_inflight] (default 16, min 1) bounds how many requests the
    worker runs concurrently on its executors — its asynchronous window;
    a full window parks the worker until a completion frees a slot. *)

val id : t -> int

val thread : t -> int

val start : t -> unit
(** Spawns the worker process. *)

val assign : t -> Lab_core.Request.t Lab_ipc.Qp.t list -> unit
(** Replaces the worker's queue list (orchestrator rebalance) and wakes
    it. An empty list effectively decommissions the worker. *)

val queues : t -> Lab_core.Request.t Lab_ipc.Qp.t list

val doorbell : t -> Lab_sim.Waitq.t

val wake : t -> unit

val stop : t -> unit
(** The worker parks permanently at its next sweep (crash simulation). *)

val resume : t -> unit

val parked : t -> bool

val processed : t -> int

val inflight : t -> int
(** Requests currently running on executors (the asynchronous window
    occupancy); sampled by the continuous profiler. *)

val executors : t -> int
(** Executor processes spawned so far. Each request runs on a
    long-lived executor that parks on the worker's idle stack between
    requests; a new one is spawned only when none is idle, so this
    never exceeds [max_inflight]. *)

type executor

val take_idle : t -> executor
(** Pops the executor on top of the idle stack, as a dispatch does.
    @raise Not_found if no executor is idle. *)

val resume_executor :
  executor -> Lab_core.Request.t -> Lab_core.Request.t Lab_ipc.Qp.t -> unit
(** Hands the request and its queue to a parked idle executor and
    unparks it at the next (time, seq) key, exactly where a process
    spawned for the request would start.
    @raise Invalid_argument if the executor is busy or not parked. *)

val active_ns : t -> float
(** Total awake time (processing + polling), the utilization measure. *)

val reset_stats : t -> unit
