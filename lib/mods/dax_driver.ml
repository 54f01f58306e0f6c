(* DAX Driver LabMod: persistent memory mapped into the address space;
   I/O is CPU load/store plus a persistence fence. The PMEM device
   profile's latency/bandwidth stage models the NT-store path itself,
   so the only extra cost here is the fence. *)

open Lab_sim
open Lab_core
open Lab_device

(* [waiters] holds one completion record per command in flight, reused
   across calls. *)
type Labmod.state += State of { device : Device.t; waiters : Device.waiter_pool }

let name = "dax"

let fence_cost_ns = 100.0

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State { device; waiters }, Request.Block { b_kind; b_lba; b_bytes; _ } ->
      let machine = ctx.Labmod.machine in
      let w = Device.take_waiter waiters in
      Device.submit_waiter device w ~hctx:ctx.Labmod.thread
        ~kind:(Mod_util.device_kind b_kind) ~lba:b_lba ~bytes:b_bytes;
      Device.await w;
      let outcome = Device.waiter_error w in
      Device.give_waiter waiters w;
      Machine.compute machine ~thread:ctx.Labmod.thread fence_cost_ns;
      (match outcome with
      | None -> Request.Size b_bytes
      | Some e -> Mod_util.device_error name e)
  | _ -> Request.Failed "dax: expects block requests"

let est m req =
  ignore m;
  match req.Request.payload with
  | Request.Block { b_bytes; _ } -> 200.0 +. (0.12 *. Stdlib.float_of_int b_bytes)
  | _ -> 200.0

let factory ~device : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  if not (Device.profile device).Profile.byte_addressable then
    invalid_arg "dax: device is not byte addressable";
  Labmod.make ~name ~uuid ~mod_type:Labmod.Driver
    ~state:(State { device; waiters = Device.waiter_pool () })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
