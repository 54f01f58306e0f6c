open Lab_sim
open Lab_core

(* A stack's wiring for one thread, built on its first request and
   reused after: the uuid of every vertex reachable from the entry
   (vertex 0), each vertex's successors as vertex indices, and each
   vertex's module context with [forward] and [forward_async] built
   once. A hop then allocates nothing. Instances are still looked up by
   uuid on every hop, so a [Registry.replace] (live upgrade, a
   recording wrapper) takes effect on the next request. *)
type binding = {
  stack : Stack.t;
  machine : Machine.t;
  thread : int;
  registry : Registry.t;
  uuids : string array;
  mutable ctxs : Labmod.ctx array;
}

type Registry.binding += Bound of binding

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

let rec run_vertex b i req =
  let uuid = b.uuids.(i) in
  match Registry.find_exn b.registry uuid with
  | exception Not_found ->
      Request.Failed (Printf.sprintf "no LabMod instance %S" uuid)
  | m -> (
      req.Request.hop <- uuid;
      let ctx = b.ctxs.(i) in
      (* Read the clock only for a traced request: [Engine.now] returns
         a boxed float, and an untraced hop would box two just to drop
         them. *)
      match req.Request.trace with
      | None -> m.Labmod.ops.Labmod.operate m ctx req
      | Some _ -> traced_operate b m ctx uuid req)

and traced_operate b m ctx uuid req =
  let e = b.machine.Machine.engine in
  let t0 = Engine.now e in
  let result = m.Labmod.ops.Labmod.operate m ctx req in
  mod_span req ~name:m.Labmod.name ~uuid ~thread:b.thread ~t0
    ~t1:(Engine.now e);
  result

(* Every successor from [k] on runs; the last one's result is the
   hop's, and a vertex with none returns [Done]. *)
and forward_all b nexts k req =
  let last = Array.length nexts - 1 in
  if k > last then Request.Done
  else if k = last then run_vertex b nexts.(k) req
  else begin
    ignore (run_vertex b nexts.(k) req);
    forward_all b nexts (k + 1) req
  end

(* The vertices reachable from the entry, in discovery order, and each
   one's successors ([Stack.next_uuids], cross-mount outputs dropped)
   as indices into that order. *)
let resolve stack =
  let index = Hashtbl.create 8 and order = ref [] in
  let rec visit uuid =
    if not (Hashtbl.mem index uuid) then begin
      Hashtbl.add index uuid (Hashtbl.length index);
      order := uuid :: !order;
      List.iter visit (Stack.next_uuids stack uuid)
    end
  in
  visit (Stack.entry_uuid stack);
  let uuids = Array.of_list (List.rev !order) in
  let succ uuid =
    Array.of_list (List.map (Hashtbl.find index) (Stack.next_uuids stack uuid))
  in
  (uuids, Array.map succ uuids)

let make_binding machine registry stack thread =
  let uuids, succ = resolve stack in
  let b = { stack; machine; thread; registry; uuids; ctxs = [||] } in
  let ctx nexts =
    {
      Labmod.machine;
      thread;
      forward = (fun r -> forward_all b nexts 0 r);
      forward_async =
        (fun r on_result ->
          Engine.spawn machine.Machine.engine (fun () ->
              on_result (forward_all b nexts 0 r)));
    }
  in
  b.ctxs <- Array.map ctx succ;
  b

(* One binding per (stack id, thread) in the registry's store. A
   binding built for another stack record or machine is rebuilt:
   [Stack.update_spec] returns a new record, so a modified stack
   rebinds on its next request. *)
let binding_key (stack : Stack.t) thread = (stack.Stack.id lsl 32) lxor thread

let rebind machine registry stack thread key =
  let b = make_binding machine registry stack thread in
  Registry.bind registry key (Bound b);
  b

let bound machine registry stack thread =
  let key = binding_key stack thread in
  match Registry.binding registry key with
  | Bound b when b.stack == stack && b.machine == machine && b.thread = thread
    ->
      b
  | _ -> rebind machine registry stack thread key
  | exception Not_found -> rebind machine registry stack thread key

let run machine ~registry ~stack ~thread req =
  let b = bound machine registry stack thread in
  match req.Request.trace with
  | None -> run_vertex b 0 req
  | Some fl ->
      let e = machine.Machine.engine in
      let t0 = Engine.now e in
      let result = run_vertex b 0 req in
      Lab_obs.Trace.span fl ~name:"module_stack" ~cat:"stage" ~tid:thread ~t0
        ~t1:(Engine.now e);
      result
