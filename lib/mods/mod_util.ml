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

type env = {
  metrics : Lab_obs.Metrics.t option;
  timeseries : Lab_obs.Timeseries.t option;
  qos : Lab_ipc.Tenant.t option;
  hooks : Hooks.t;
}

let detached = { metrics = None; timeseries = None; qos = None; hooks = Hooks.off }

(* Probe instantiations (stack validation, `labstor_cli mods`) use the
   reserved "__probe__" uuid and must attach to nothing shared. *)
let is_probe ~uuid = uuid = "__probe__"

let for_instance env ~uuid = if is_probe ~uuid then detached else env
