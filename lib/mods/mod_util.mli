(** Shared helpers for LabMod implementations. *)

open Lab_core

val device_kind : Request.io_kind -> Lab_device.Device.io_kind

val await_value : (('a -> unit) -> unit) -> 'a
(** [await_value submit] issues an asynchronous operation from process
    context and parks until its completion callback fires; returns the
    value passed to the callback (e.g. a device
    [(completion, error) result]). [submit] must call the callback
    exactly once (possibly before returning). *)

val device_error : string -> Lab_device.Device.error -> Request.result
(** [device_error mod_name e] renders a device fault as the errno-tagged
    [Request.Failed] form ([EIO]/[ENODEV]/[ETIMEDOUT]/[ETORN]) that
    {!Request.is_transient_failure} and client retry policy recognise. *)

val identity_state : Labmod.state -> Labmod.state
(** The common [state_update]: carry the old state over unchanged. *)

val no_repair : Labmod.t -> unit
