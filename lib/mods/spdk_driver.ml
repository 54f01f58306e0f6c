(* SPDK Driver LabMod: the NVMe queue pair is mapped into userspace, so
   submission is a queue write plus a doorbell — no kernel entry, no
   kernel request allocation. *)

open Lab_sim
open Lab_core
open Lab_device

(* [waiters] holds one completion record per command in flight, reused
   across calls. *)
type Labmod.state += State of { device : Device.t; waiters : Device.waiter_pool }

let name = "spdk"

(* SQE write + doorbell MMIO. *)
let submit_cost_ns = 150.0

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State { device; waiters }, Request.Block { b_kind; b_lba; b_bytes; _ } ->
      let machine = ctx.Labmod.machine in
      Machine.compute machine ~thread:ctx.Labmod.thread submit_cost_ns;
      let nq = Device.n_hw_queues device in
      let hctx =
        match req.Request.hint_hctx with
        | Some h -> h mod nq
        | None -> ctx.Labmod.thread mod nq
      in
      let w = Device.take_waiter waiters in
      Device.submit_waiter device w ~hctx ~kind:(Mod_util.device_kind b_kind)
        ~lba:b_lba ~bytes:b_bytes;
      Device.await w;
      Engine.wait machine.Machine.costs.Costs.poll_spin_ns;
      let result =
        match Device.waiter_error w with
        | None -> Request.Size b_bytes
        | Some e -> Mod_util.device_error name e
      in
      Device.give_waiter waiters w;
      result
  | _ -> Request.Failed "spdk: expects block requests"

let est m req =
  ignore m;
  match req.Request.payload with
  | Request.Block { b_bytes; _ } -> 300.0 +. (0.01 *. Stdlib.float_of_int b_bytes)
  | _ -> 300.0

let factory ~device : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  if not (Device.profile device).Profile.supports_polling then
    invalid_arg "spdk: device does not support userspace polling";
  Labmod.make ~name ~uuid ~mod_type:Labmod.Driver
    ~state:(State { device; waiters = Device.waiter_pool () })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
