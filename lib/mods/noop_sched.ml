(* No-Op I/O scheduler LabMod: keys the request to the hardware queue of
   the core it originated on, nothing more. *)

open Lab_sim
open Lab_core

type Labmod.state += State of { nqueues : int }

let name = "noop_sched"

let keying_cost_ns = 150.0

let operate m ctx req =
  match m.Labmod.state with
  | State { nqueues } ->
      Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread keying_cost_ns;
      (* An existing hint wins: the client's degraded-mode requeue (an
         offline queue was avoided on purpose) must not be undone. *)
      (match req.Request.hint_hctx with
      | None -> req.Request.hint_hctx <- Some (req.Request.thread mod nqueues)
      | Some _ -> ());
      ctx.Labmod.forward req
  | _ -> Request.Failed "noop_sched: bad state"

let factory ~nqueues : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Scheduler ~state:(State { nqueues })
    {
      Labmod.operate;
      est_processing_time = (fun _ _ -> keying_cost_ns);
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
