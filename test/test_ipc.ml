(* Tests for lab_ipc: ring buffer semantics, shmem grants, queue pairs,
   IPC manager liveness. *)

open Lab_sim
open Lab_ipc

let in_sim f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_capacity_pow2 () =
  Alcotest.(check int) "rounds up" 8 (Ring.capacity (Ring.create ~capacity:5));
  Alcotest.(check int) "exact" 4 (Ring.capacity (Ring.create ~capacity:4))

let test_ring_fifo () =
  let r = Ring.create ~capacity:4 in
  List.iter (fun x -> assert (Ring.try_push r x)) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "peek" (Some 1) (Ring.peek r);
  Alcotest.(check (option int)) "pop1" (Some 1) (Ring.try_pop r);
  Alcotest.(check (option int)) "pop2" (Some 2) (Ring.try_pop r);
  assert (Ring.try_push r 4);
  Alcotest.(check (option int)) "pop3" (Some 3) (Ring.try_pop r);
  Alcotest.(check (option int)) "pop4" (Some 4) (Ring.try_pop r);
  Alcotest.(check (option int)) "empty" None (Ring.try_pop r)

let test_ring_full () =
  let r = Ring.create ~capacity:2 in
  Alcotest.(check bool) "push1" true (Ring.try_push r 1);
  Alcotest.(check bool) "push2" true (Ring.try_push r 2);
  Alcotest.(check bool) "push3 rejected" false (Ring.try_push r 3);
  Alcotest.(check bool) "full" true (Ring.is_full r)

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring preserves FIFO across wraparound" ~count:200
    QCheck.(pair (int_range 1 64) (list small_int))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      let out = ref [] in
      (* Feed all xs through a ring that we drain whenever full. *)
      List.iter
        (fun x ->
          if not (Ring.try_push r x) then begin
            (match Ring.try_pop r with
            | Some v -> out := v :: !out
            | None -> ());
            ignore (Ring.try_push r x)
          end)
        xs;
      let rec drain () =
        match Ring.try_pop r with
        | Some v ->
            out := v :: !out;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = xs)

(* Pops up to [n] entries through the array primitive, as a list. *)
let pop_list r n =
  let dst = Array.make n 0 in
  Array.to_list (Array.sub dst 0 (Ring.pop_into r dst ~off:0 ~max:n))

let test_ring_batch_ops () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "space when empty" 4 (Ring.space r);
  Alcotest.(check int) "partial push on full ring" 4
    (Ring.push_n r [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check int) "no space left" 0 (Ring.space r);
  Alcotest.(check (list int)) "pop_into beyond length stops at empty"
    [ 1; 2; 3; 4 ] (pop_list r 10);
  Alcotest.(check (list int)) "pop_into on empty" [] (pop_list r 3);
  Alcotest.(check int) "push_n all fit" 2 (Ring.push_n r [ 7; 8 ]);
  Alcotest.(check (list int)) "pop_into exact" [ 7 ] (pop_list r 1);
  Alcotest.(check (option int)) "single pop still FIFO" (Some 8)
    (Ring.try_pop r)

(* Interleaving batch and single-entry operations must preserve FIFO
   order and the lifetime push count: drive a ring with a random op
   sequence next to a plain list model. *)
let prop_ring_batch_fifo =
  let op =
    QCheck.(
      oneof
        [
          map (fun xs -> `Push_n xs) (list_of_size Gen.(0 -- 6) small_int);
          map (fun x -> `Push x) small_int;
          map (fun n -> `Pop_n n) (int_range 0 6);
          always `Pop;
        ])
  in
  QCheck.Test.make ~name:"batch/single interleavings keep FIFO + total_pushed"
    ~count:300
    QCheck.(pair (int_range 1 16) (list op))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let model = ref [] (* queued, oldest first *) and pushed = ref 0 in
      let popped = ref [] and popped_model = ref [] in
      let push_model xs n =
        let took = ref 0 in
        List.iter
          (fun x ->
            if !took < n then begin
              model := !model @ [ x ];
              incr took
            end)
          xs;
        pushed := !pushed + n
      in
      let pop_model () =
        match !model with
        | [] -> ()
        | x :: rest ->
            model := rest;
            popped_model := x :: !popped_model
      in
      List.iter
        (function
          | `Push_n xs -> push_model xs (Ring.push_n r xs)
          | `Push x -> if Ring.try_push r x then push_model [ x ] 1
          | `Pop_n n ->
              let vs = pop_list r n in
              popped := List.rev_append vs !popped;
              List.iter (fun _ -> pop_model ()) vs
          | `Pop -> (
              match Ring.try_pop r with
              | Some v ->
                  popped := v :: !popped;
                  pop_model ()
              | None -> ()))
        ops;
      (* Drain what's left; the full pop order must equal everything the
         model saw queued, oldest first. *)
      let tail = pop_list r (Ring.length r) in
      popped := List.rev_append tail !popped;
      Ring.total_pushed r = !pushed
      && List.rev !popped = List.rev !popped_model @ !model)

let prop_ring_length_invariant =
  QCheck.Test.make ~name:"ring length = pushes - pops" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let r = Ring.create ~capacity:8 in
      let pushes = ref 0 and pops = ref 0 in
      List.iteri
        (fun i op ->
          if op then begin
            if Ring.try_push r i then incr pushes
          end
          else if Ring.try_pop r <> None then incr pops)
        ops;
      Ring.length r = !pushes - !pops)

(* ------------------------------------------------------------------ *)
(* Shmem                                                               *)
(* ------------------------------------------------------------------ *)

let test_shmem_grant_map () =
  let s = Shmem.create () in
  let r = Shmem.allocate s ~owner:1 ~size:4096 in
  Shmem.map s r 1;
  Alcotest.(check bool) "owner mapped" true (Shmem.is_mapped s r 1);
  Alcotest.check_raises "stranger denied"
    (Shmem.Permission_denied "process 2 has no grant for region 0")
    (fun () -> Shmem.map s r 2);
  Shmem.grant s r 2;
  Shmem.map s r 2;
  Alcotest.(check bool) "granted process mapped" true (Shmem.is_mapped s r 2)

let test_shmem_same_uid_isolation () =
  (* The paper stresses isolation even among processes of the same user:
     grants are per-process, not per-uid. *)
  let s = Shmem.create () in
  let r = Shmem.allocate s ~owner:10 ~size:4096 in
  (try
     Shmem.map s r 11;
     Alcotest.fail "expected denial"
   with Shmem.Permission_denied _ -> ());
  Alcotest.(check bool) "not mapped" false (Shmem.is_mapped s r 11)

let test_shmem_revoke_and_free () =
  let s = Shmem.create () in
  let r = Shmem.allocate s ~owner:1 ~size:8192 in
  Shmem.map s r 1;
  (try
     Shmem.free s r;
     Alcotest.fail "free should fail while mapped"
   with Invalid_argument _ -> ());
  Shmem.revoke s r 1;
  Alcotest.(check bool) "revoke unmaps" false (Shmem.is_mapped s r 1);
  Shmem.free s r;
  Alcotest.(check int) "no regions" 0 (Shmem.region_count s)

let test_shmem_accounting () =
  let s = Shmem.create () in
  let _ = Shmem.allocate s ~owner:1 ~size:4096 in
  let r2 = Shmem.allocate s ~owner:1 ~size:8192 in
  Alcotest.(check int) "total" 12288 (Shmem.total_allocated s);
  Shmem.free s r2;
  Alcotest.(check int) "after free" 4096 (Shmem.total_allocated s)

(* ------------------------------------------------------------------ *)
(* Qp                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qp_roundtrip () =
  in_sim (fun e ->
      let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
      let served = ref None in
      Engine.spawn e (fun () ->
          (* worker: poll until a request shows up, then complete it *)
          let rec loop () =
            match Qp.poll_sq qp with
            | Some v ->
                Engine.wait 100.0;
                Qp.complete qp (v * 2)
            | None ->
                Engine.wait 10.0;
                loop ()
          in
          loop ());
      Qp.submit qp 21;
      served := Some (Qp.await_completion qp);
      Alcotest.(check (option int)) "doubled" (Some 42) !served)

let test_qp_doorbell_wakes_worker () =
  in_sim (fun e ->
      let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
      let bell = Waitq.create () in
      Qp.set_doorbell qp (Some bell);
      let woken_at = ref Float.nan in
      Engine.spawn e (fun () ->
          (* worker parks on its doorbell rather than busy-polling *)
          Waitq.park bell;
          woken_at := Engine.now e;
          match Qp.poll_sq qp with
          | Some v -> Qp.complete qp v
          | None -> Alcotest.fail "doorbell rang with empty queue");
      Engine.wait 500.0;
      Qp.submit qp 7;
      ignore (Qp.await_completion qp);
      Alcotest.(check (float 1e-9)) "woken exactly at submit" 500.0 !woken_at)

let test_qp_backpressure () =
  in_sim (fun e ->
      let qp = Qp.create ~sq_depth:2 ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
      Engine.spawn e (fun () ->
          (* slow worker drains one request every 1000 ns *)
          for _ = 1 to 4 do
            let rec poll () =
              match Qp.poll_sq qp with
              | Some _ -> ()
              | None ->
                  Engine.wait 50.0;
                  poll ()
            in
            poll ();
            Engine.wait 1000.0
          done);
      let t0 = Engine.now e in
      for i = 1 to 4 do
        Qp.submit qp i
      done;
      Alcotest.(check bool) "submission throttled by full ring" true
        (Engine.now e -. t0 > 500.0))

(* Polls up to [n] submissions through the array primitive, as a list. *)
let poll_list qp n =
  let dst = Array.make n 0 in
  Array.to_list (Array.sub dst 0 (Qp.poll_sq_into qp dst n))

let test_qp_submit_n_one_doorbell () =
  in_sim (fun _e ->
      let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
      Qp.submit_n qp [| 1; 2; 3; 4 |] 4;
      Alcotest.(check int) "one ring for the whole batch" 1
        (Qp.doorbell_rings qp);
      Qp.submit qp 5;
      Qp.submit qp 6;
      Alcotest.(check int) "singles ring per entry" 3 (Qp.doorbell_rings qp);
      Qp.submit_n qp [||] 0;
      Alcotest.(check int) "empty batch does not ring" 3 (Qp.doorbell_rings qp);
      Alcotest.(check (list int)) "batch then singles, FIFO" [ 1; 2; 3; 4; 5; 6 ]
        (poll_list qp 16))

let test_qp_batch_backpressure () =
  in_sim (fun e ->
      let qp =
        Qp.create ~sq_depth:2 ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 ()
      in
      let drained = ref [] in
      Engine.spawn e (fun () ->
          (* worker drains pairs every 1000 ns; batch pops free SQ slots
             and wake the parked producer *)
          Engine.wait 1000.0;
          for _ = 1 to 3 do
            drained := !drained @ poll_list qp 2;
            Engine.wait 1000.0
          done);
      let t0 = Engine.now e in
      Qp.submit_n qp [| 1; 2; 3; 4; 5; 6 |] 6;
      Alcotest.(check bool) "producer parked until slots freed" true
        (Engine.now e -. t0 >= 1000.0);
      Alcotest.(check bool) "stalls counted" true (Qp.sq_stalls qp > 0);
      Engine.wait 5000.0;
      Alcotest.(check (list int)) "order preserved through stalls"
        [ 1; 2; 3; 4; 5; 6 ] !drained;
      Alcotest.(check int) "still one doorbell" 1 (Qp.doorbell_rings qp))

let test_qp_marks () =
  let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Unordered ~id:3 () in
  Alcotest.(check bool) "starts normal" true (Qp.mark qp = Qp.Normal);
  Qp.set_mark qp Qp.Update_pending;
  Alcotest.(check bool) "pending" true (Qp.mark qp = Qp.Update_pending);
  Qp.set_mark qp Qp.Update_acked;
  Alcotest.(check bool) "acked" true (Qp.mark qp = Qp.Update_acked)

let test_qp_depth_tracking () =
  in_sim (fun _e ->
      let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
      Qp.submit qp 1;
      Qp.submit qp 2;
      Alcotest.(check int) "sq depth" 2 (Qp.sq_depth qp);
      Alcotest.(check int) "total submitted" 2 (Qp.total_submitted qp);
      ignore (Qp.poll_sq qp);
      Alcotest.(check int) "after poll" 1 (Qp.sq_depth qp))

(* The client reaps with [completion_or] on every request: it hands
   back the entry itself or the caller's sentinel, never an option, so
   popping allocates nothing on a full or an empty completion ring.
   Native only for the words. *)
let test_qp_completion_or_allocates_nothing () =
  let qp = Qp.create ~role:Qp.Primary ~ordering:Qp.Ordered ~id:1 () in
  let none = ref (-1) in
  let entries = Array.init 200 (fun i -> ref i) in
  Array.iter (Qp.complete qp) entries;
  let got = Array.make 200 none in
  let w0 = Gc.minor_words () in
  for i = 0 to 199 do
    got.(i) <- Qp.completion_or qp none
  done;
  let full = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    if Qp.completion_or qp none != none then Alcotest.fail "ring not drained"
  done;
  let empty = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "entries in completion order" true
    (Array.for_all2 ( == ) entries got);
  Alcotest.(check int) "drained" 0 (Qp.cq_depth qp);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check (float 0.0)) "words popping 200 entries" 0.0 full;
      Alcotest.(check (float 0.0)) "words on 200 empty polls" 0.0 empty
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Ipc_manager                                                         *)
(* ------------------------------------------------------------------ *)

let test_ipc_connect_and_qps () =
  in_sim (fun e ->
      let m : int Ipc_manager.t = Ipc_manager.create e in
      let conn = Ipc_manager.connect m ~pid:100 ~uid:1000 in
      Alcotest.(check (option int)) "credentials recorded" (Some 1000)
        (Ipc_manager.credentials m ~pid:100);
      let q1 =
        Ipc_manager.create_qp m conn ~role:Qp.Primary ~ordering:Qp.Ordered
      in
      let q2 =
        Ipc_manager.create_qp m conn ~role:Qp.Intermediate ~ordering:Qp.Unordered
      in
      Alcotest.(check int) "two qps" 2 (List.length (Ipc_manager.qps m));
      Alcotest.(check int) "one primary" 1
        (List.length (Ipc_manager.primary_qps m));
      Alcotest.(check bool) "lookup q1" true
        (match Ipc_manager.qp m (Qp.id q1) with
        | Some q -> q == q1
        | None -> false);
      ignore q2;
      Ipc_manager.disconnect m conn;
      Alcotest.(check int) "qps torn down" 0 (List.length (Ipc_manager.qps m));
      Alcotest.(check (option int)) "creds gone" None
        (Ipc_manager.credentials m ~pid:100))

let test_ipc_connect_charges_handshake () =
  let elapsed =
    in_sim (fun e ->
        let m : int Ipc_manager.t = Ipc_manager.create e in
        let t0 = Engine.now e in
        let _ = Ipc_manager.connect m ~pid:1 ~uid:0 in
        Engine.now e -. t0)
  in
  Alcotest.(check bool) "handshake took time" true (elapsed > 0.0)

let test_ipc_offline_online () =
  in_sim (fun e ->
      let m : int Ipc_manager.t = Ipc_manager.create e in
      Ipc_manager.set_online m false;
      let came_back = ref None in
      Engine.spawn e (fun () ->
          came_back := Some (Ipc_manager.wait_online m ~timeout_ns:1e9));
      Engine.spawn e (fun () ->
          Engine.wait 5e6;
          Ipc_manager.set_online m true);
      Engine.wait 1e7;
      Alcotest.(check (option bool)) "waiter saw restart" (Some true) !came_back)

let test_ipc_offline_timeout () =
  in_sim (fun e ->
      let m : int Ipc_manager.t = Ipc_manager.create e in
      Ipc_manager.set_online m false;
      let result = ref None in
      Engine.spawn e (fun () ->
          result := Some (Ipc_manager.wait_online m ~timeout_ns:2e6));
      Engine.wait 1e8;
      Alcotest.(check (option bool)) "timed out" (Some false) !result)

let () =
  Alcotest.run "lab_ipc"
    [
      ( "ring",
        [
          Alcotest.test_case "capacity pow2" `Quick test_ring_capacity_pow2;
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "full" `Quick test_ring_full;
          Alcotest.test_case "batch ops" `Quick test_ring_batch_ops;
          QCheck_alcotest.to_alcotest prop_ring_wraparound;
          QCheck_alcotest.to_alcotest prop_ring_batch_fifo;
          QCheck_alcotest.to_alcotest prop_ring_length_invariant;
        ] );
      ( "shmem",
        [
          Alcotest.test_case "grant/map" `Quick test_shmem_grant_map;
          Alcotest.test_case "same-uid isolation" `Quick
            test_shmem_same_uid_isolation;
          Alcotest.test_case "revoke/free" `Quick test_shmem_revoke_and_free;
          Alcotest.test_case "accounting" `Quick test_shmem_accounting;
        ] );
      ( "qp",
        [
          Alcotest.test_case "roundtrip" `Quick test_qp_roundtrip;
          Alcotest.test_case "doorbell" `Quick test_qp_doorbell_wakes_worker;
          Alcotest.test_case "backpressure" `Quick test_qp_backpressure;
          Alcotest.test_case "batched doorbell" `Quick
            test_qp_submit_n_one_doorbell;
          Alcotest.test_case "batched backpressure" `Quick
            test_qp_batch_backpressure;
          Alcotest.test_case "marks" `Quick test_qp_marks;
          Alcotest.test_case "depth tracking" `Quick test_qp_depth_tracking;
          Alcotest.test_case "completion_or allocates nothing" `Quick
            test_qp_completion_or_allocates_nothing;
        ] );
      ( "ipc-manager",
        [
          Alcotest.test_case "connect & qps" `Quick test_ipc_connect_and_qps;
          Alcotest.test_case "handshake cost" `Quick
            test_ipc_connect_charges_handshake;
          Alcotest.test_case "offline→online" `Quick test_ipc_offline_online;
          Alcotest.test_case "offline timeout" `Quick test_ipc_offline_timeout;
        ] );
    ]
