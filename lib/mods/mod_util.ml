(* Shared helpers for LabMod implementations. *)

open Lab_core

let device_kind = function
  | Request.Read -> Lab_device.Device.Read
  | Request.Write -> Lab_device.Device.Write

(* Map a device fault to the errno-tagged failure convention clients
   understand (Request.is_transient_failure etc.). *)
let device_error name e =
  let errno =
    match e with
    | Lab_device.Device.E_io -> "EIO"
    | Lab_device.Device.E_offline -> "ENODEV"
    | Lab_device.Device.E_torn _ -> "ETORN"
  in
  Request.failed_errno errno
    (name ^ ": " ^ Lab_device.Device.error_to_string e)

let identity_state : Labmod.state -> Labmod.state = fun s -> s

let no_repair (_ : Labmod.t) = ()
