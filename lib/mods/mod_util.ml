(* Shared helpers for LabMod implementations. *)

open Lab_sim
open Lab_core

let device_kind = function
  | Request.Read -> Lab_device.Device.Read
  | Request.Write -> Lab_device.Device.Write

(* Submit-then-await: issue an asynchronous operation from process
   context and park until its completion callback fires with a value
   (e.g. a device outcome), which becomes the return value. [submit]
   must call the callback exactly once (possibly before returning). *)
let await_value submit =
  let result = ref None in
  let resumer = ref None in
  submit (fun v ->
      result := Some v;
      match !resumer with Some r -> r () | None -> ());
  (match !result with
  | Some _ -> ()
  | None -> Engine.suspend (fun r -> resumer := Some r));
  match !result with Some v -> v | None -> assert false

(* Map a device fault to the errno-tagged failure convention clients
   understand (Request.is_transient_failure etc.). *)
let device_error name e =
  let errno =
    match e with
    | Lab_device.Device.E_io -> "EIO"
    | Lab_device.Device.E_offline -> "ENODEV"
    | Lab_device.Device.E_timeout -> "ETIMEDOUT"
    | Lab_device.Device.E_torn _ -> "ETORN"
  in
  Request.failed_errno errno
    (name ^ ": " ^ Lab_device.Device.error_to_string e)

let identity_state : Labmod.state -> Labmod.state = fun s -> s

let no_repair (_ : Labmod.t) = ()
