(* The request-lifecycle hooks (see hooks.mli). With every consumer off
   a hook is one branch, on the request's trace flow or on the recorder
   option, taken before any clock read, boxed float or allocation. *)

open Lab_sim
module Trace = Lab_obs.Trace
module Flightrec = Lab_obs.Flightrec
module Slo = Lab_obs.Latrec.Slo

type t = {
  tracer : Trace.t;
  blackbox : Flightrec.t option;
  slo : Slo.t option;
  clock : float array;  (* [0]: the time of the record being made *)
  tick : unit -> unit;  (* reads the engine's time into [clock.(0)] *)
}

let now h =
  h.tick ();
  h.clock.(0)

(* A flight-recorder record or trigger at [h.clock.(0)]: the time
   crosses no call boxed. [note] first sets it to now. *)
let record h kind ~id ~arg ~tag =
  match h.blackbox with
  | Some bb -> Flightrec.record bb kind h.clock 0 ~id ~arg ~tag
  | None -> ()

let trigger h reason =
  match h.blackbox with
  | Some bb -> Flightrec.trigger bb ~reason h.clock 0
  | None -> ()

let note h kind ~id ~arg ~tag =
  match h.blackbox with
  | Some _ ->
      h.tick ();
      record h kind ~id ~arg ~tag
  | None -> ()

let slo_roll h ~now ~burn =
  h.clock.(0) <- now;
  record h Flightrec.Slo_roll ~id:(-1)
    ~arg:(Stdlib.int_of_float (burn *. 1000.0))
    ~tag:"";
  if burn > 1.0 then trigger h "slo_burn"

let create ~tracer ?blackbox ?slo engine =
  let clock = [| 0.0 |] in
  let tick () = Engine.stamp engine clock 0 in
  let h = { tracer; blackbox; slo; clock; tick } in
  (match (slo, blackbox) with
  | Some s, Some _ -> Slo.set_on_roll s (slo_roll h)
  | _ -> ());
  h

(* No engine (its event queue alone is 256 KiB): with every consumer
   off nothing reads the clock. *)
let off =
  let clock = [| 0.0 |] in
  { tracer = Trace.create (); blackbox = None; slo = None; clock; tick = ignore }

let tracer h = h.tracer

let blackbox h = h.blackbox

let submit h (req : Request.t) ~tid =
  req.Request.trace <-
    Trace.start h.tracer ~id:req.Request.id ~now:req.Request.scheduled_at;
  (match req.Request.trace with
  | Some fl ->
      if req.Request.scheduled_at < req.Request.submitted_at then begin
        Trace.open_stage fl ~name:"inject_lag" ~now:req.Request.scheduled_at;
        Trace.close_stage fl ~tid ~now:req.Request.submitted_at
      end;
      Trace.open_stage fl ~name:"submit" ~now:req.Request.submitted_at
  | None -> ());
  h.clock.(0) <- req.Request.submitted_at;
  record h Flightrec.Submit ~id:req.Request.id ~arg:0 ~tag:""

let next_stage h (req : Request.t) ~tid ~name =
  match req.Request.trace with
  | Some fl ->
      let now = now h in
      Trace.close_stage fl ~tid ~now;
      Trace.open_stage fl ~name ~now
  | None -> ()

let post h req ~tid = next_stage h req ~tid ~name:"queue_wait"

let dispatch h req ~tid = next_stage h req ~tid ~name:"dispatch"

let reap h req ~tid = next_stage h req ~tid ~name:"reap"

let execute h (req : Request.t) ~tid =
  match req.Request.trace with
  | Some fl -> Trace.close_stage fl ~tid ~now:(now h)
  | None -> ()

let complete h (req : Request.t) =
  match req.Request.trace with
  | Some fl -> Trace.open_stage fl ~name:"complete" ~now:(now h)
  | None -> ()

let module_stack fl ~tid ~t0 ~t1 =
  Trace.span fl ~name:"module_stack" ~cat:"stage" ~tid ~t0 ~t1

let module_span (req : Request.t) ~name ~uuid ~tid ~t0 ~t1 =
  match req.Request.trace with
  | Some fl ->
      Trace.span fl ~name ~cat:"mod" ~tid ~t0 ~t1 ~args:[ ("uuid", uuid) ]
  | None -> ()

let finish h (req : Request.t) ~tid result =
  (match req.Request.trace with
  | Some fl -> Trace.finish fl ~tid ~now:(now h)
  | None -> ());
  match h.blackbox with
  | None -> ()
  | Some _ -> (
      let id = req.Request.id in
      match Request.errno_of_result result with
      | Some e ->
          note h Flightrec.Errno ~id ~arg:0 ~tag:e;
          if e = "ENODEV" || e = "ETIMEDOUT" then trigger h ("errno:" ^ e)
      | None ->
          note h Flightrec.Complete ~id
            ~arg:(if Request.is_ok result then 0 else 1)
            ~tag:"")

let device (req : Request.t) ~tid w =
  match req.Request.trace with
  | Some fl ->
      Trace.span fl ~name:"device" ~cat:"device" ~tid
        ~t0:(Lab_device.Device.waiter_submitted w)
        ~t1:(Lab_device.Device.waiter_completed w)
  | None -> ()

let instant (ctx : Labmod.ctx) (req : Request.t) ~name =
  match req.Request.trace with
  | Some fl ->
      Trace.instant fl ~name ~tid:ctx.Labmod.thread
        ~now:(Machine.now ctx.Labmod.machine)
  | None -> ()

let cache ctx req ~hit =
  instant ctx req ~name:(if hit then "cache_hit" else "cache_miss")

let sched_merge h (ctx : Labmod.ctx) (req : Request.t) ~absorbed =
  note h Flightrec.Sched ~id:req.Request.id ~arg:absorbed ~tag:"merge";
  match req.Request.trace with
  | Some fl ->
      Trace.instant fl ~name:"sched_merge" ~tid:ctx.Labmod.thread
        ~now:(Machine.now ctx.Labmod.machine)
        ~args:[ ("absorbed", string_of_int absorbed) ]
  | None -> ()

let sched_join h ctx (req : Request.t) =
  note h Flightrec.Sched ~id:req.Request.id ~arg:0 ~tag:"join";
  instant ctx req ~name:"sched_join"

let park h ~id ~tag = note h Flightrec.Park ~id ~arg:0 ~tag

let wake h ~id ~arg ~tag = note h Flightrec.Wake ~id ~arg ~tag

let deadline_miss h ~id =
  note h Flightrec.Deadline ~id ~arg:0 ~tag:"";
  trigger h "deadline_miss"

let latency h cells ~latency ~at =
  match h.slo with
  | Some slo -> Slo.observe slo ~latency_ns:cells.(latency) ~now:cells.(at)
  | None -> ()

let fault_observer h =
  Option.map
    (fun _ ~now ~queue ~label ->
      h.clock.(0) <- now;
      record h Flightrec.Fault ~id:queue ~arg:0 ~tag:label;
      trigger h ("fault:" ^ label))
    h.blackbox
