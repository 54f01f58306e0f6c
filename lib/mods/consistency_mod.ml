(* Tunable-consistency LabMod (the paper lists "tunable consistency
   guarantees" among its stock modules and §III-B's configurable
   consistency idea).

   Modes, selectable per stack via the [mode] attribute and switchable
   live through a Control request:
   - [relaxed]: writes pass through unchanged (caches may absorb them);
   - [ordered]: writes to the same stack are serialized — a write is not
     forwarded until every earlier write has completed downstream;
   - [durable]: every write is tagged force-unit-access ([b_sync]), so
     caches pass it through and it reaches the device before the
     operation completes. *)

open Lab_sim
open Lab_core

type mode = Relaxed | Ordered | Durable

type cons_state = {
  mutable mode : mode;
  order_lock : Semaphore.t;
  mutable writes_seen : int;
}

type Labmod.state += State of cons_state

let name = "consistency"

let mode_of_string = function
  | "relaxed" -> Some Relaxed
  | "ordered" -> Some Ordered
  | "durable" -> Some Durable
  | _ -> None

let mode_name = function
  | Relaxed -> "relaxed"
  | Ordered -> "ordered"
  | Durable -> "durable"

let mode m = match m.Labmod.state with State s -> Some s.mode | _ -> None

let writes_seen m =
  match m.Labmod.state with State s -> s.writes_seen | _ -> 0

(* Control payloads 0/1/2 select relaxed/ordered/durable — dynamic
   semantics imposition without remounting. *)
let mode_of_control = function
  | 0 -> Some Relaxed
  | 1 -> Some Ordered
  | 2 -> Some Durable
  | _ -> None

let is_write req =
  match req.Request.payload with
  | Request.Block { b_kind = Request.Write; _ } -> true
  | Request.Posix (Request.Pwrite _) -> true
  | Request.Kv (Request.Put _) -> true
  | _ -> false

let make_durable req =
  match req.Request.payload with
  | Request.Block b ->
      { req with Request.payload = Request.Block { b with Request.b_sync = true } }
  | _ -> req

let operate m ctx req =
  match m.Labmod.state with
  | State s -> (
      match req.Request.payload with
      | Request.Control c -> (
          match mode_of_control c with
          | Some mode ->
              s.mode <- mode;
              Request.Done
          | None -> ctx.Labmod.forward req)
      | _ ->
          if is_write req then begin
            s.writes_seen <- s.writes_seen + 1;
            match s.mode with
            | Relaxed -> ctx.Labmod.forward req
            | Durable -> ctx.Labmod.forward (make_durable req)
            | Ordered ->
                Semaphore.acquire s.order_lock;
                let result = ctx.Labmod.forward req in
                Semaphore.release s.order_lock;
                result
          end
          else ctx.Labmod.forward req)
  | _ -> Request.Failed "consistency: bad state"

let est m req =
  ignore m;
  100.0 +. (0.001 *. Stdlib.float_of_int (Request.bytes_of req))

let attr_table =
  [
    Keys.string "mode" (fun _ s ->
        match mode_of_string s with
        | Some m -> m
        | None -> Keys.reject "relaxed, ordered or durable");
  ]

let factory : Registry.factory =
 fun ~uuid ~attrs ->
  let mode = Keys.decode attr_table Relaxed attrs in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Consistency
    ~state:(State { mode; order_lock = Semaphore.create 1; writes_seen = 0 })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
