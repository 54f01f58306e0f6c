(** Convenience installer: registers the stock LabMod implementations
    against a set of storage backends, as the Runtime configuration
    ("LabMod repos") would. *)

open Lab_core

type backend = {
  blk : Lab_kernel.Blk.t;
  device : Lab_device.Device.t;
}

val backend_of_device : Lab_sim.Machine.t -> Lab_device.Device.t -> backend
(** Wraps a device with a pass-through block layer (Noop steering). *)

val install :
  env:Mod_util.env ->
  Registry.t ->
  machine:Lab_sim.Machine.t ->
  backends:(string * backend) list ->
  default_backend:string ->
  nworkers:int ->
  lvm_rebuild_rate_mbps:float ->
  unit
(** [env] is the one record the cache, scheduler and volume-manager
    factories attach their instances to, in place of a handle per
    consumer. Its [metrics] registry gets every instance's counters
    (under ["mod.<uuid>."]) and gauges; its [timeseries] sampler gets
    each cache instance's ["mod.<uuid>.dirty_backlog"] probe; its [qos]
    table attaches the multi-tenant DRR dispatch stage to every
    [blkswitch_sched] instance; its [hooks] see the scheduler's
    merge/join decisions and QoS-gate park/wake. A ["__probe__"]
    instance attaches to none of them ({!Mod_util.for_instance}).

    Registers: [labfs], [labkvs], [lru_cache], [permissions],
    [compress], [noop_sched], [blkswitch_sched], [lab_lvm] (over all
    backends as candidate legs, resilvering at
    [lvm_rebuild_rate_mbps] by default), [dummy], plus per-backend
    drivers named [kernel_driver:<backend>], [spdk:<backend>] (polling
    devices only) and [dax:<backend>] (byte-addressable devices only).
    The unqualified [kernel_driver], [spdk], and [dax] names bind to
    [default_backend]. *)
