open Lab_sim
open Lab_core

type t = {
  m : Machine.t;
  under_test : Labmod.t;
  downstream : Request.t -> Request.result;
  mutable sent : Request.t list;  (* newest first *)
  mutable next_id : int;
}

let create ?(ncores = 4) ?(downstream = fun _ -> Request.Done) make_factory =
  let m = Machine.create ~ncores () in
  {
    m;
    under_test = make_factory m ~uuid:"under-test" ~attrs:[];
    downstream;
    sent = [];
    next_id = 0;
  }

let forwarded t = List.rev t.sent

let clear_forwarded t = t.sent <- []

let run t ?(thread = 0) payload =
  t.next_id <- t.next_id + 1;
  let req =
    Request.make ~id:t.next_id ~pid:1 ~uid:0 ~thread ~stack_id:0
      ~now:(Machine.now t.m) payload
  in
  let forward r =
    t.sent <- r :: t.sent;
    t.downstream r
  in
  let ctx =
    {
      Labmod.machine = t.m;
      thread;
      forward;
      forward_async =
        (fun r on_result ->
          Engine.spawn t.m.Machine.engine (fun () -> on_result (forward r)));
    }
  in
  let result = ref None in
  let t0 = Machine.now t.m in
  Machine.spawn t.m (fun () ->
      result :=
        Some (t.under_test.Labmod.ops.Labmod.operate t.under_test ctx req));
  Machine.run t.m;
  match !result with
  | Some r -> (r, Machine.now t.m -. t0)
  | None -> (Request.Failed "mod harness: module deadlocked", 0.0)
