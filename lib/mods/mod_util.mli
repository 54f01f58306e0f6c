(** Shared helpers for LabMod implementations. *)

open Lab_core

val device_kind : Request.io_kind -> Lab_device.Device.io_kind

val device_error : string -> Lab_device.Device.error -> Request.result
(** [device_error mod_name e] renders a device fault as the errno-tagged
    [Request.Failed] form ([EIO]/[ENODEV]/[ETORN]) that
    {!Request.is_transient_failure} and client retry policy recognise. *)

val identity_state : Labmod.state -> Labmod.state
(** The common [state_update]: carry the old state over unchanged. *)

val no_repair : Labmod.t -> unit

type env = {
  metrics : Lab_obs.Metrics.t option;
  timeseries : Lab_obs.Timeseries.t option;
  qos : Lab_ipc.Tenant.t option;
  hooks : Hooks.t;
}
(** What a LabMod factory attaches its instances to (see
    {!Mods_env.install}). *)

val detached : env
(** Attached to nothing, every hook off: each factory's default. *)

val is_probe : uuid:string -> bool
(** Whether [uuid] is the reserved ["__probe__"] uuid of a throwaway
    probe instance, which must attach to nothing shared. *)

val for_instance : env -> uuid:string -> env
(** [env], or [detached] for a probe instance. *)
