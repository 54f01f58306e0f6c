(* Kernel Driver LabMod: submits block I/O straight into the kernel's
   multi-queue hardware dispatch queues (submit_io_to_hctx), bypassing
   the upper block layer and the interrupt path — the client/worker
   polls for completion. *)

open Lab_sim
open Lab_core
open Lab_kernel
module Device = Lab_device.Device

(* [waiters] holds one completion record per command in flight, reused
   across calls; [notify], built once per module, ends the block
   layer's in-flight accounting and wakes the waiter's process; [poll]
   stages the completion poll's wait, so it is not boxed. *)
type Labmod.state +=
  | State of {
      blk : Blk.t;
      waiters : Device.waiter_pool;
      notify : Device.waiter -> unit;
      poll : float array;
    }

let name = "kernel_driver"

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State { blk; waiters; notify; poll }, Request.Block { b_kind; b_lba; b_bytes; _ } ->
      let machine = ctx.Labmod.machine in
      let hctx =
        match req.Request.hint_hctx with
        | Some h -> h
        | None -> ctx.Labmod.thread
      in
      let w = Device.take_waiter waiters in
      Device.set_notify w notify;
      Blk.submit_io_to_hctx blk ~thread:ctx.Labmod.thread ~hctx
        ~kind:(Mod_util.device_kind b_kind) ~lba:b_lba ~bytes:b_bytes w;
      Device.await w;
      (* The poller notices the completion entry. *)
      poll.(0) <- machine.Machine.costs.Costs.poll_spin_ns;
      Engine.wait_cell poll 0;
      let result =
        match Device.waiter_error w with
        | None ->
            Hooks.device req ~tid:ctx.Labmod.thread w;
            Request.Size b_bytes
        | Some e -> Mod_util.device_error name e
      in
      Device.give_waiter waiters w;
      result
  | _ -> Request.Failed "kernel_driver: expects block requests"

let est m req =
  ignore m;
  match req.Request.payload with
  | Request.Block { b_bytes; _ } -> 1500.0 +. (0.01 *. Stdlib.float_of_int b_bytes)
  | _ -> 500.0

let factory ~blk : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  let notify w =
    Blk.note_completion blk ~hctx:(Device.waiter_hctx w)
      ~bytes:(Device.waiter_bytes w);
    Device.wake w
  in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Driver
    ~state:
      (State { blk; waiters = Device.waiter_pool (); notify; poll = [| 0.0 |] })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
