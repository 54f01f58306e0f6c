open Lab_sim
open Lab_ipc

type kind = Centralized | Decentralized

type upgrade = {
  target : string;
  factory : Registry.factory;
  code_bytes : int;
  kind : kind;
}

type t = {
  machine : Machine.t;
  registry : Registry.t;
  load_code : thread:int -> bytes:int -> unit;
  queue : upgrade Queue.t;
  mutable published : (int * upgrade) list;  (* decentralized: (epoch, u), newest first *)
  mutable current_epoch : int;
}

let create machine registry ~load_code =
  {
    machine;
    registry;
    load_code;
    queue = Queue.create ();
    published = [];
    current_epoch = 0;
  }

let submit_upgrade t u =
  match u.kind with
  | Centralized -> Queue.add u t.queue
  | Decentralized ->
      t.current_epoch <- t.current_epoch + 1;
      t.published <- (t.current_epoch, u) :: t.published

let pending t = Queue.length t.queue

let epoch t = t.current_epoch

(* Rebuild one registry instance from new code, carrying state over. *)
let swap_instance t ~thread u (old_mod : Labmod.t) =
  t.load_code ~thread ~bytes:u.code_bytes;
  let fresh = u.factory ~uuid:old_mod.Labmod.uuid ~attrs:[] in
  fresh.Labmod.state <- fresh.Labmod.ops.Labmod.state_update old_mod.Labmod.state;
  fresh.Labmod.version <- old_mod.Labmod.version + 1;
  Registry.replace t.registry fresh

let wait_for t cond =
  let rec loop () =
    if not (cond ()) then begin
      Engine.wait 10_000.0;
      loop ()
    end
  in
  ignore t;
  loop ()

let process_centralized t ~thread ~primary_qps ~all_acked ~intermediate_idle =
  if not (Queue.is_empty t.queue) then begin
    (* 1. Pause the world: mark primary queues. *)
    List.iter (fun qp -> Qp.set_mark qp Qp.Update_pending) primary_qps;
    (* 2. Workers acknowledge; intermediate requests drain. *)
    wait_for t all_acked;
    wait_for t intermediate_idle;
    (* 3. Apply every queued upgrade to every matching instance. *)
    while not (Queue.is_empty t.queue) do
      let u = Queue.pop t.queue in
      List.iter
        (fun old_mod -> swap_instance t ~thread u old_mod)
        (Registry.instances_of_name t.registry u.target)
    done;
    (* 4. Resume request flow. *)
    List.iter (fun qp -> Qp.set_mark qp Qp.Normal) primary_qps
  end

let client_pending_upgrades t ~since_epoch =
  List.rev
    (List.filter_map
       (fun (e, u) -> if e > since_epoch then Some u else None)
       t.published)

(* A client that rebuilt an instance locally must publish the new
   entrypoints back to the Module Manager (registry update under its
   lock) — the overhead that makes decentralized upgrades slightly
   slower than centralized ones in Table I. *)
let client_reregistration_ns = 1.2e6

let apply_client_upgrade t ~thread ~local u =
  t.load_code ~thread ~bytes:u.code_bytes;
  Machine.compute t.machine ~thread client_reregistration_ns;
  let fresh = u.factory ~uuid:local.Labmod.uuid ~attrs:[] in
  fresh.Labmod.state <- fresh.Labmod.ops.Labmod.state_update local.Labmod.state;
  fresh.Labmod.version <- local.Labmod.version + 1;
  fresh
