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
