(** The LabStor Runtime: warehouse and execution engine of LabStacks.

    Owns the Module Registry, the LabStack Namespace, the IPC Manager,
    the Module Manager, the worker pool, and the admin process that
    processes upgrades and rebalances queues once per simulated
    millisecond. *)

type config = {
  nworkers : int;  (** worker pool size (upper bound for dynamic policy) *)
  policy : Orchestrator.policy;
  worker_core_base : int;  (** workers are pinned to cores starting here *)
  workers_busy_poll : bool;
      (** statically-provisioned workers that poll instead of sleeping *)
  worker_batch_size : int;
      (** requests a worker sweep drains per queue per cross-core pull
          (default 1 = unbatched); see {!Worker.create} *)
  worker_max_inflight : int;
      (** per-worker asynchronous window: concurrent requests a worker
          runs as coroutines (default 16, min 1); see {!Worker.create} *)
  trace_sample : int;
      (** span-tracer sampling: trace every request whose id is a
          multiple of this (1 = all, 0 = off, the default) *)
  trace_path : string option;
      (** where {!Platform.export} writes the Chrome trace-event JSON *)
  metrics_path : string option;
      (** where {!Platform.export} writes the JSONL metrics snapshot *)
  exemplar_k : int;
      (** tail-exemplar store slots (default 0 = no retroactive
          capture): when positive, {e every} request's stages are
          recorded into a pooled buffer and the K slowest completions
          are kept with full anatomy — see {!Lab_obs.Exemplar} *)
  exemplar_tail_us : float;
      (** fixed exemplar promotion threshold (µs); [<= 0] (the
          default) adapts to the live client-latency p99 instead *)
  exemplar_path : string option;
      (** where {!Platform.export} writes the exemplar JSON *)
  blackbox_cap : int;
      (** flight-recorder ring capacity in events (default 0 = no
          recorder, every hook is one option check) — see
          {!Lab_obs.Flightrec} *)
  blackbox_path : string option;
      (** where {!Platform.export} writes the black-box dump JSON *)
  profile_period_ns : float;
      (** continuous-profiling sampler period; [<= 0.0] (the default)
          disables the sampler entirely — no probes are registered and
          no clock hook is installed, so a run is indistinguishable
          from one without profiling support *)
  profile_path : string option;
      (** where {!Platform.export} writes the profile JSON (sampler
          timeline + span-based flamegraph and tail attribution) *)
  lvm_rebuild_rate_mbps : float;
      (** resilver rate cap (MB/s) of every {!Lab_mods.Lab_lvm}
          instance — the volume-topology knob bounding how hard a
          background mirror rebuild competes with foreground I/O
          (default 400) *)
  slo_p99_target_us : float;
      (** client-latency objective (µs): requests slower than this burn
          error budget (1% of requests, over 1 ms burn windows; gauges
          [slo.client.budget_remaining] and [slo.client.burn_rate]).
          [<= 0] with no floor (the default) means no SLO object is
          built at all — the request path is byte-identical to a build
          without SLO support *)
  slo_floor_kops : float;
      (** throughput floor (kops/s): a burn window that served fewer
          ops than the floor demanded burns budget for the unserved
          demand; [0] = no floor *)
}

val default_config : config

type t

val create :
  Lab_sim.Machine.t ->
  ?config:config ->
  backends:(string * Lab_mods.Mods_env.backend) list ->
  default_backend:string ->
  unit ->
  t
(** Installs the stock LabMods against [backends] and builds the worker
    pool. Call {!start} to spawn workers and the admin process. *)

val machine : t -> Lab_sim.Machine.t

val registry : t -> Lab_core.Registry.t

val namespace : t -> Lab_core.Namespace.t

val ipc : t -> Lab_core.Request.t Lab_ipc.Ipc_manager.t

val module_manager : t -> Lab_core.Module_manager.t

val workers : t -> Worker.t array

val config : t -> config

val hooks : t -> Lab_core.Hooks.t
(** The one lifecycle interface the clients, workers and LabMods report
    to. It fans out to the tracer (created with the config's
    [trace_sample]), the flight recorder and the SLO, whichever the
    config turns on. *)

val metrics : t -> Lab_obs.Metrics.t
(** The metrics registry: queue-pair, worker, module, client and (via
    {!Platform}) device/fault instruments all live here. *)

val timeseries : t -> Lab_obs.Timeseries.t option
(** The continuous-profiling sampler, present iff the config's
    [profile_period_ns] is positive.  Its probes cover per-core busy
    fraction, per-worker utilization and in-flight window occupancy,
    per-QP submission/completion queue depth, and per-cache-instance
    dirty-log depth; {!Platform} adds device queue occupancy. *)

val qos : t -> Lab_ipc.Tenant.t
(** The multi-tenant QoS table. Always present; inert (every request
    skips the dispatch gate) until a tenant is registered. *)

val exemplars : t -> Lab_obs.Exemplar.t option
(** The tail-exemplar store, present iff the config's [exemplar_k] is
    positive. Attached to the tracer: every finished request flow is
    offered and the K slowest survive with full stage anatomy. *)

val blackbox : t -> Lab_obs.Flightrec.t option
(** The flight recorder behind {!hooks}, present iff the config's
    [blackbox_cap] is positive. Client submit/complete/errno/deadline
    events, worker and scheduler park/wake, SLO window rolls and
    injected faults all record into its ring; faults, client-visible
    ENODEV/ETIMEDOUT, deadline misses and burn rates above 1 trigger
    black-box dumps. *)

val register_tenant :
  t ->
  ext_id:int ->
  ?weight:int ->
  ?rate_mbps:float ->
  ?burst_kb:int ->
  ?qcap:int ->
  unit ->
  Lab_ipc.Tenant.tenant
(** Registers a QoS tenant keyed by client uid (defaults: weight 1,
    uncapped rate, 256 KiB burst, 64 outstanding ops; admission refuses
    with EAGAIN beyond [qcap]) and installs its read-through gauges
    ([tenant.<id>.p99], [.throughput_bytes], [.deficit], [.throttled])
    plus, when profiling is on, timeline probes. Clients connecting
    with that uid are admission-controlled and their ops stamped with
    the tenant's dense index. *)

val tenant_for : t -> uid:int -> Lab_ipc.Tenant.tenant option

val start : t -> unit

val mount_text : t -> string -> (Lab_core.Stack.t, string) result
(** mount.stack: parse a YAML spec and mount it. Validates trust
    (untrusted LabMods may not run inside the Runtime) before inducting
    the stack into the Namespace. *)

val mount_repo :
  t ->
  name:string ->
  owner_uid:int ->
  mods:(string * Lab_core.Registry.factory) list ->
  (Lab_core.Repo.trust, string) result
(** mount.repo: installs a LabMod repo (unprivileged; quota applies).
    Repos owned by the Runtime's uid are trusted. *)


val modify_stack_text : t -> string -> (Lab_core.Stack.t, string) result

val modify_mods : t -> Lab_core.Module_manager.upgrade -> unit
(** Submit a live upgrade (processed by the admin within one period). *)

val next_request_id : t -> int

val exec_request : t -> thread:int -> Lab_core.Request.t -> Lab_core.Request.result
(** Executes a request through the stack named by its [stack_id] —
    used by workers (async stacks) and directly by clients of
    synchronous stacks. *)

val rebalance_now : t -> unit
(** Forced orchestration epoch (also triggered when clients connect). *)

val utilization : t -> elapsed_ns:float -> float
(** Awake-time fraction of the worker pool over the last [elapsed_ns]. *)

val reset_worker_stats : t -> unit

val requests_processed : t -> int

val crash : t -> unit
(** Simulates a Runtime crash: workers stop, the IPC manager goes
    offline; in-flight state in the Runtime's address space is lost. *)

val restart : t -> unit
(** Administrator restart: workers resume, clients blocked in Wait are
    released (they then run StateRepair). *)
