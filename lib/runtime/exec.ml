open Lab_sim
open Lab_core

(* Instrumentation reads the simulated clock but never charges compute
   or schedules events, so a traced run's timing is identical to an
   untraced one.  Each module span is attached to the flow carried by
   the request the module actually saw — a derived request (record
   copy) shares its parent's flow, a synthesized one carries none. *)
let mod_span (r : Request.t) ~name ~uuid ~thread ~t0 ~t1 =
  match r.Request.trace with
  | Some fl ->
      Lab_obs.Trace.span fl ~name ~cat:"mod" ~tid:thread ~t0 ~t1
        ~args:[ ("uuid", uuid) ]
  | None -> ()

let run machine ~registry ~stack ~thread req =
  let now () = Engine.now machine.Machine.engine in
  let rec run_vertex uuid req =
    match Registry.find registry uuid with
    | None -> Request.Failed (Printf.sprintf "no LabMod instance %S" uuid)
    | Some m ->
        req.Request.hop <- uuid;
        let ctx =
          {
            Labmod.machine;
            thread;
            forward = (fun r -> forward uuid r);
            forward_async =
              (fun r on_result ->
                Engine.spawn machine.Machine.engine (fun () ->
                    on_result (forward uuid r)));
          }
        in
        (* Read the clock only for a traced request: [Engine.now]
           returns a boxed float, and an untraced hop would box two
           just to drop them. *)
        (match req.Request.trace with
        | None -> m.Labmod.ops.Labmod.operate m ctx req
        | Some _ ->
            let t0 = now () in
            let result = m.Labmod.ops.Labmod.operate m ctx req in
            mod_span req ~name:m.Labmod.name ~uuid ~thread ~t0 ~t1:(now ());
            result)
  and forward uuid r = forward_all (Stack.next_uuids stack uuid) r
  (* Every successor runs; the last one's result is the hop's. *)
  and forward_all nexts r =
    match nexts with
    | [] -> Request.Done
    | [ next ] -> run_vertex next r
    | next :: rest ->
        ignore (run_vertex next r);
        forward_all rest r
  in
  match req.Request.trace with
  | None -> run_vertex (Stack.entry_uuid stack) req
  | Some fl ->
      let t0 = now () in
      let result = run_vertex (Stack.entry_uuid stack) req in
      Lab_obs.Trace.span fl ~name:"module_stack" ~cat:"stage" ~tid:thread ~t0
        ~t1:(now ());
      result
