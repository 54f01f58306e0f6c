(** IPC Manager: connection handshakes, queue-pair allocation backed by
    shared-memory regions, and runtime-liveness tracking used by crash
    recovery.

    ['req] is the request payload type carried by queue pairs (the
    LabStor request record, supplied by the core library). *)

type 'req t

type connection = {
  pid : Shmem.process_id;
  uid : int;
  region : Shmem.region_id;  (** region holding this client's primary queues *)
}

val create :
  ?metrics:Lab_obs.Metrics.t ->
  ?timeseries:Lab_obs.Timeseries.t ->
  Lab_sim.Engine.t ->
  'req t
(** [?metrics] is handed to every queue pair this manager allocates, so
    their doorbell/stall counters appear in the registry under
    ["ipc.qp<id>."].  [?timeseries] registers per-QP occupancy probes
    (["ipc.qp<id>.sq_depth"], ["ipc.qp<id>.cq_depth"]) with the
    continuous-profiling sampler as queue pairs are created. *)

val shmem : 'req t -> Shmem.t

val connect : 'req t -> pid:int -> uid:int -> connection
(** Models the UNIX-domain-socket handshake: allocates and grants a
    queue region, records credentials, and charges the handshake
    latency. Must run inside a simulated process. *)

val disconnect : 'req t -> connection -> unit

val credentials : 'req t -> pid:int -> int option
(** The uid a connected process authenticated with. *)

val create_qp :
  'req t ->
  connection ->
  role:Qp.role ->
  ordering:Qp.ordering ->
  'req Qp.t
(** Allocates a queue pair owned by [connection]. Primary queues live in
    the connection's shared region; intermediate queues are private. *)

val qp : 'req t -> int -> 'req Qp.t option

val qps : 'req t -> 'req Qp.t list
(** All live queue pairs, in allocation order. *)

val primary_qps : 'req t -> 'req Qp.t list

(** {2 Runtime liveness} *)

val online : 'req t -> bool

val set_online : 'req t -> bool -> unit
(** Transitioning to online wakes every process blocked in
    {!wait_online}. *)

val wait_online : 'req t -> timeout_ns:float -> bool
(** Blocks until the runtime is online or [timeout_ns] elapses; returns
    whether the runtime came back. Must run inside a process. *)
