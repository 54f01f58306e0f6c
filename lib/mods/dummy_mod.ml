(* Dummy LabMod for the live-upgrade experiment (Table I): processes
   control messages with a configurable CPU cost and counts them; its
   transferable state is "a few bytes of pointers". *)

open Lab_sim
open Lab_core

type dummy_state = { mutable messages : int; op_ns : float; tag : string }

type Labmod.state += State of dummy_state

let name = "dummy"

let messages m =
  match m.Labmod.state with State s -> s.messages | _ -> 0

let tag m = match m.Labmod.state with State s -> s.tag | _ -> "?"

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State s, Request.Control _ ->
      Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread s.op_ns;
      s.messages <- s.messages + 1;
      Request.Done
  | _ -> Request.Failed "dummy: expects control requests"

let attr_table = [ Keys.float "op_ns" (fun _ ns -> ns) ]

let factory ?(op_ns = 1000.0) ?(tag = "v1") () : Registry.factory =
 fun ~uuid ~attrs ->
  let op_ns = Keys.decode attr_table op_ns attrs in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Control
    ~state:(State { messages = 0; op_ns; tag })
    {
      Labmod.operate;
      est_processing_time = (fun _ _ -> op_ns);
      state_update =
        (function
        | State old -> State { old with tag }  (* keep counters, adopt new code's tag *)
        | other -> other);
      state_repair = Mod_util.no_repair;
    }
