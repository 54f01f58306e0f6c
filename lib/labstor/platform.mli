(** High-level entry point: boots a simulated machine with storage
    devices and a LabStor Runtime, ready for stacks to be mounted and
    clients to connect. This is the API the examples and benchmarks
    use. *)

type t

val boot :
  ?config:Lab_runtime.Runtime.config ->
  ?ncores:int ->
  ?nworkers:int ->
  ?policy:Lab_runtime.Orchestrator.policy ->
  ?costs:Lab_sim.Costs.t ->
  ?devices:Lab_device.Profile.kind list ->
  ?seed:int ->
  ?fault_rates:Lab_sim.Fault.rates ->
  ?fault_script:Lab_sim.Fault.event list ->
  ?worker_max_inflight:int ->
  ?trace_sample:int ->
  unit ->
  t
(** Boots the machine and starts a Runtime configured by [config]
    (default {!Lab_runtime.Runtime.default_config}); every Runtime
    setting, its default and its meaning live in
    {!Lab_runtime.Runtime.config}. The other arguments give the machine
    shape.

    Defaults: 24 cores, one NVMe device. The first device listed backs
    the Runtime's default backend. The
    workers occupy the top [nworkers] cores, overriding the config's
    [worker_core_base]. [nworkers] overrides the config's pool size;
    the policy then defaults to [Round_robin nworkers] instead of the
    config's policy. Backends are named after their device kind in
    lowercase ("nvme", "ssd", "hdd", "pmem"); listing a kind more than
    once boots distinct instances — mirror legs — named "nvme",
    "nvme2", "nvme3", … (see {!devices} / {!device_by_name}). Device
    counters and service percentiles are registered as read-through
    gauges under ["device.<backend>."].

    If [fault_rates] or [fault_script] is given, every booted device
    gets a deterministic fault plan derived from [seed] (one independent
    stream per device); otherwise devices are fault-free.

    [worker_max_inflight] and [trace_sample] override the config fields
    of the same name. They are kept as arguments only because the
    benchmark harness (labbench/wl.ml) passes them and must not change
    until the next change to the benchmark; new callers set the config
    fields instead. *)

val machine : t -> Lab_sim.Machine.t

val runtime : t -> Lab_runtime.Runtime.t

val device : t -> Lab_device.Profile.kind -> Lab_device.Device.t
(** The first booted device of that kind.
    @raise Not_found if the kind was not booted. *)

val devices : t -> (string * Lab_device.Device.t) list
(** Every booted device instance with its name, in boot order. *)

val device_by_name : t -> string -> Lab_device.Device.t
(** Looks an instance up by name ("nvme", "nvme2", …).
    @raise Invalid_argument on an unknown name. *)

val fault_plan : t -> Lab_device.Profile.kind -> Lab_sim.Fault.t option
(** The device's installed fault plan; [None] when booted without
    faults. Per-category injection counts surface as
    ["fault.<backend>.<category>"] counters in {!metrics} snapshots
    (synced by {!export}); the live total is the
    ["fault.<backend>.injected_total"] gauge. *)

val backend : t -> Lab_device.Profile.kind -> Lab_mods.Mods_env.backend

val mount : t -> string -> (Lab_core.Stack.t, string) result
(** Mounts a LabStack from its YAML specification text. *)

val mount_exn : t -> string -> Lab_core.Stack.t

val register_tenant :
  t ->
  uid:int ->
  ?weight:int ->
  ?rate_mbps:float ->
  ?burst_kb:int ->
  ?qcap:int ->
  unit ->
  Lab_ipc.Tenant.tenant
(** Registers a QoS tenant keyed by client uid — see
    {!Lab_runtime.Runtime.register_tenant}. Register before connecting
    the tenant's clients: the uid-to-tenant lookup happens at
    {!client} connect time. *)

val tenant_for : t -> uid:int -> Lab_ipc.Tenant.tenant option

val client :
  t ->
  ?pid:int ->
  ?uid:int ->
  ?retry_policy:Lab_runtime.Client.retry_policy ->
  thread:int ->
  unit ->
  Lab_runtime.Client.t
(** Connects a client; must run inside a simulated process (e.g. within
    {!go}). Fresh pids are assigned when omitted. A uid registered via
    {!register_tenant} makes the client a metered tenant: token-bucket
    admission applies (refusals surface as retryable EAGAIN) and its
    requests pass the scheduler's DRR dispatch stage. *)

val go : t -> (unit -> 'a) -> 'a
(** [go t f] runs [f] as a simulated process to completion and returns
    its result, then freezes the platform's background processes: the
    engine stops right after the event in which [f] returns, and
    everything else stays queued for the next [go]. Call from outside
    the engine (top level of an example). *)

val now : t -> float
(** Virtual time, ns. *)

val tracer : t -> Lab_obs.Trace.t
(** The runtime's span tracer (shortcut for
    [Lab_runtime.Runtime.tracer (runtime t)]). *)

val metrics : t -> Lab_obs.Metrics.t
(** The runtime's metrics registry, holding queue-pair, worker, module,
    client, device and fault instruments. *)

val profile_json : t -> string
(** The profile artifact as a string:
    [{"timeline": <sampler series>, "spans": <flamegraph + tail>}].
    Byte-stable: two same-seed runs produce identical bytes. The
    timeline half is empty when the platform booted without
    [profile_period_ns]; the spans half is empty without [trace_sample]. *)

val export : t -> unit
(** Writes the observability artifacts to the paths in the config
    ([trace_path], [profile_path], [exemplar_path], [blackbox_path],
    [metrics_path]): the Chrome trace-event JSON (loadable in Perfetto /
    [chrome://tracing]), the profile JSON ({!profile_json}), the
    tail-exemplar store, the flight-recorder black box, and the JSONL
    metrics snapshot. A file is skipped when no path is configured for
    it (exemplar/black-box files additionally require the feature to be
    enabled). Missing parent directories are created. Fault counters are
    synced from the devices' fault plans first. *)
