(* Coverage sweep: corners of the public APIs not exercised by the
   behavioural suites — accessors, error paths, edge cases, and a few
   cross-module contracts (span exclusive times, doorbell hand-off,
   region lifecycle). *)

open Lab_sim
open Lab_core

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Hist / Costs / Cpu / Machine                                        *)
(* ------------------------------------------------------------------ *)

let test_hist_clear () =
  let module Hist = Lab_obs.Hist in
  let a = Hist.create () in
  List.iter (Hist.observe a) [ 1.0; 2.0 ];
  Hist.clear a;
  Alcotest.(check int) "cleared" 0 (Hist.count a);
  Alcotest.(check (float 1e-9)) "cleared mean" 0.0 (Hist.mean a)

let test_costs_copy () =
  let c = Costs.default in
  Alcotest.(check (float 1e-9)) "copy scales"
    (c.Costs.copy_ns_per_byte *. 4096.0)
    (Costs.copy_cost c 4096);
  Alcotest.(check (float 1e-9)) "user copy scales"
    (c.Costs.user_copy_ns_per_byte *. 4096.0)
    (Costs.user_copy_cost c 4096)

let test_cpu_reset_and_bounds () =
  in_sim (fun m ->
      Cpu.compute m.Machine.cpu ~thread:0 1000.0;
      Alcotest.(check bool) "busy recorded" true (Cpu.busy_ns m.Machine.cpu > 0.0);
      Cpu.reset_stats m.Machine.cpu;
      Alcotest.(check (float 1e-9)) "reset" 0.0 (Cpu.busy_ns m.Machine.cpu);
      Alcotest.(check (float 1e-9)) "empty utilization" 0.0
        (Cpu.utilization m.Machine.cpu ~elapsed:0.0);
      Alcotest.(check int) "ncores" 8 (Cpu.ncores m.Machine.cpu))

let test_engine_spawn_at () =
  let e = Engine.create () in
  let at = ref Float.nan in
  Engine.spawn_at e 123.0 (fun () -> at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "deferred start" 123.0 !at;
  Alcotest.(check bool) "executed counted" true (Engine.events_executed e > 0);
  Alcotest.(check bool) "drained" false (Engine.active e)

let test_heap_misc () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check (option (pair int unit))) "peek empty" None (Heap.peek h);
  Heap.push h 5 ();
  Heap.push h 2 ();
  Alcotest.(check (option (pair int unit))) "peek min" (Some (2, ())) (Heap.peek h);
  Alcotest.(check int) "sorted list len" 2 (List.length (Heap.to_sorted_list h));
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Yamlite corners                                                     *)
(* ------------------------------------------------------------------ *)

let test_yaml_crlf_and_doc_marker () =
  let v = Yamlite.parse "---\r\nkey: 1\r\n" in
  Alcotest.(check (option int)) "crlf tolerated" (Some 1)
    (Option.bind (Yamlite.find v "key") Yamlite.get_int)

let test_yaml_quoted_key () =
  let v = Yamlite.parse "\"a: b\": 2" in
  Alcotest.(check (option int)) "quoted key with colon" (Some 2)
    (Option.bind (Yamlite.find v "a: b") Yamlite.get_int)

let test_yaml_nested_list_under_key () =
  let v = Yamlite.parse "xs:\n  - 1\n  - 2\nys: done" in
  (match Yamlite.find v "xs" with
  | Some (Yamlite.List [ Yamlite.Int 1; Yamlite.Int 2 ]) -> ()
  | _ -> Alcotest.fail "nested list");
  Alcotest.(check (option string)) "sibling after list" (Some "done")
    (Option.bind (Yamlite.find v "ys") Yamlite.get_string)

let test_yaml_tab_rejected () =
  try
    ignore (Yamlite.parse "key:\n\tvalue: 1");
    Alcotest.fail "tabs must be rejected"
  with Yamlite.Parse_error _ -> ()

let test_yaml_get_float_accepts_int () =
  Alcotest.(check (option (float 1e-9))) "int as float" (Some 3.0)
    (Yamlite.get_float (Yamlite.Int 3))

let test_yaml_empty_flow_list () =
  Alcotest.(check bool) "empty flow list" true
    (Yamlite.parse "xs: []" |> fun v -> Yamlite.find v "xs" = Some (Yamlite.List []))

(* ------------------------------------------------------------------ *)
(* Request pretty printers / helpers                                   *)
(* ------------------------------------------------------------------ *)

let test_request_pp_and_helpers () =
  let s p = Fmt.str "%a" Request.pp_payload p in
  Alcotest.(check string) "open" "open(/x, O_CREAT)"
    (s (Request.Posix (Request.Open { path = "/x"; create = true })));
  Alcotest.(check string) "put" "put(k, 42)"
    (s (Request.Kv (Request.Put { key = "k"; bytes = 42 })));
  Alcotest.(check string) "bwrite" "bwrite(lba=3, 512)"
    (s
       (Request.Block
          { Request.b_kind = Request.Write; b_lba = 3; b_bytes = 512; b_sync = false }));
  Alcotest.(check string) "result denied" "denied: no"
    (Fmt.str "%a" Request.pp_result (Request.Denied "no"));
  Alcotest.(check bool) "is_ok" true (Request.is_ok (Request.Fd 3));
  Alcotest.(check bool) "is_ok denied" false (Request.is_ok (Request.Denied ""));
  Alcotest.(check int) "bytes_of control" 0
    (Request.bytes_of
       (Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:1 ~now:0.0
          (Request.Control 9)))

(* ------------------------------------------------------------------ *)
(* Stack / Namespace corners                                           *)
(* ------------------------------------------------------------------ *)

let ctrl_factory name : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Control
    {
      Labmod.operate = (fun _ _ _ -> Request.Done);
      est_processing_time = Labmod.default_est;
      state_update = (fun s -> s);
      state_repair = (fun _ -> ());
    }

let test_stack_next_uuids_and_mods_order () =
  let reg = Registry.create () in
  Registry.register_factory reg ~name:"ctrl" (ctrl_factory "ctrl");
  let spec =
    Result.get_ok
      (Stack_spec.parse
         "mount: \"x::/s\"\ndag:\n  - uuid: a\n    mod: ctrl\n    outputs: [b, other::/mnt]\n  - uuid: b\n    mod: ctrl")
  in
  let stack = Result.get_ok (Stack.instantiate reg spec ~id:7) in
  Alcotest.(check (list string)) "cross-mount outputs filtered" [ "b" ]
    (Stack.next_uuids stack "a");
  Alcotest.(check (list string)) "sink" [] (Stack.next_uuids stack "b");
  Alcotest.(check (list string)) "unknown vertex" [] (Stack.next_uuids stack "zz");
  Alcotest.(check (list string)) "mods in dag order" [ "a"; "b" ]
    (List.map (fun (m : Labmod.t) -> m.Labmod.uuid) (Stack.mods stack reg));
  Alcotest.(check string) "entry" "a" (Stack.entry_uuid stack)

let test_namespace_listings () =
  let reg = Registry.create () in
  Registry.register_factory reg ~name:"ctrl" (ctrl_factory "ctrl");
  let ns = Namespace.create () in
  let mount p u =
    Result.get_ok
      (Namespace.mount ns reg
         (Result.get_ok
            (Stack_spec.parse
               (Printf.sprintf "mount: \"%s\"\ndag:\n  - uuid: %s\n    mod: ctrl" p u))))
  in
  let s1 = mount "a::/1" "n1" and s2 = mount "a::/2" "n2" in
  Alcotest.(check int) "two mounts" 2 (List.length (Namespace.mounts ns));
  Alcotest.(check int) "two stacks" 2 (List.length (Namespace.stacks ns));
  Alcotest.(check bool) "distinct ids" true (s1.Stack.id <> s2.Stack.id)

(* ------------------------------------------------------------------ *)
(* Exclusive time from executor spans                                 *)
(* ------------------------------------------------------------------ *)

type Labmod.state += Burn of float

let burner name ns : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Control ~state:(Burn ns)
    {
      Labmod.operate =
        (fun m ctx req ->
          (match m.Labmod.state with
          | Burn ns -> Lab_sim.Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread ns
          | _ -> ());
          ctx.Labmod.forward req);
      est_processing_time = Labmod.default_est;
      state_update = (fun s -> s);
      state_repair = (fun _ -> ());
    }

let test_exec_span_exclusive_times () =
  in_sim (fun m ->
      let reg = Registry.create () in
      Registry.register_factory reg ~name:"fast" (burner "fast" 100.0);
      Registry.register_factory reg ~name:"slow" (burner "slow" 900.0);
      let spec =
        Result.get_ok
          (Stack_spec.parse
             "mount: \"x::/p\"\ndag:\n  - uuid: top\n    mod: fast\n    outputs: [bottom]\n  - uuid: bottom\n    mod: slow")
      in
      let stack = Result.get_ok (Stack.instantiate reg spec ~id:1) in
      let tracer = Lab_obs.Trace.create ~sample:1 () in
      let req =
        Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:1 ~now:0.0
          (Request.Control 0)
      in
      let fl = Lab_obs.Trace.start tracer ~id:1 [| Machine.now m |] 0 in
      req.Request.trace <- fl;
      ignore (Lab_runtime.Exec.run m ~registry:reg ~stack ~thread:0 req);
      Lab_obs.Trace.finish (Option.get fl) ~tid:0 ~now:(Machine.now m);
      let seen = Hashtbl.create 4 in
      List.iter
        (fun (_, spans) ->
          List.iter
            (fun (sp : Lab_obs.Profile.span) ->
              let e = sp.Lab_obs.Profile.sp_ev in
              match List.assoc_opt "uuid" e.Lab_obs.Trace.ev_args with
              | Some uuid -> Hashtbl.replace seen uuid sp.Lab_obs.Profile.sp_self_ns
              | None -> ())
            spans)
        (Lab_obs.Profile.exclusive (Lab_obs.Trace.events tracer));
      (* The parent's exclusive time must not include the child's. *)
      Alcotest.(check (float 1.0)) "top exclusive" 100.0 (Hashtbl.find seen "top");
      Alcotest.(check (float 1.0)) "bottom exclusive" 900.0 (Hashtbl.find seen "bottom"))

(* ------------------------------------------------------------------ *)
(* IPC lifecycle corners                                               *)
(* ------------------------------------------------------------------ *)

let test_ipc_disconnect_frees_region () =
  in_sim (fun m ->
      let mgr : int Lab_ipc.Ipc_manager.t = Lab_ipc.Ipc_manager.create m.Machine.engine in
      let shm = Lab_ipc.Ipc_manager.shmem mgr in
      let before = Lab_ipc.Shmem.region_count shm in
      let conn = Lab_ipc.Ipc_manager.connect mgr ~pid:9 ~uid:9 in
      Alcotest.(check int) "region allocated" (before + 1)
        (Lab_ipc.Shmem.region_count shm);
      Lab_ipc.Ipc_manager.disconnect mgr conn;
      Alcotest.(check int) "region freed" before (Lab_ipc.Shmem.region_count shm))

let test_worker_doorbell_handoff () =
  in_sim (fun m ->
      let w1 =
        Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:1 ~thread:1
          ~exec:(fun ~thread:_ _ -> Request.Done)
          ()
      in
      let w2 =
        Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:2 ~thread:2
          ~exec:(fun ~thread:_ _ -> Request.Done)
          ()
      in
      let qp = Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered ~id:1 () in
      Lab_runtime.Worker.assign w1 [ qp ];
      Alcotest.(check bool) "bell on w1" true
        (match Lab_ipc.Qp.doorbell qp with
        | Some b -> b == Lab_runtime.Worker.doorbell w1
        | None -> false);
      Lab_runtime.Worker.assign w2 [ qp ];
      Lab_runtime.Worker.assign w1 [];
      Alcotest.(check bool) "bell moved to w2 and not cleared by w1's drain" true
        (match Lab_ipc.Qp.doorbell qp with
        | Some b -> b == Lab_runtime.Worker.doorbell w2
        | None -> false))

let test_unordered_queue_multi_worker () =
  (* Two workers share one unordered queue: requests drain in parallel,
     halving the makespan versus a single worker. *)
  let makespan nworkers =
    in_sim (fun m ->
        (* CPU-bound service: a single worker serializes on its core,
           two workers on two cores halve the makespan. *)
        let exec ~thread req =
          Machine.compute m ~thread 1_000_000.0;
          ignore req;
          Request.Done
        in
        let workers =
          Array.init nworkers (fun i ->
              let w =
                Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:i
                  ~thread:(100 + i) ~exec ()
              in
              Lab_runtime.Worker.start w;
              w)
        in
        let qp =
          Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Unordered
            ~id:1 ()
        in
        Array.iter (fun w -> Lab_runtime.Worker.assign w [ qp ]) workers;
        let t0 = Machine.now m in
        let all_done = Engine.join 8 in
        for i = 1 to 8 do
          let req =
            Request.make ~id:i ~pid:1 ~uid:0 ~thread:0 ~stack_id:1
              ~now:(Machine.now m) (Request.Control i)
          in
          Lab_ipc.Qp.submit qp req
        done;
        Engine.spawn m.Machine.engine (fun () ->
            while not (Engine.joined all_done) do
              match Lab_ipc.Qp.try_completion qp with
              | Some _ -> Engine.arrive all_done
              | None -> Lab_ipc.Qp.wait_completion_event qp
            done);
        Engine.await all_done;
        Machine.now m -. t0)
  in
  let one = makespan 1 and two = makespan 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2 workers (%.0f) ~ half of 1 worker (%.0f)" two one)
    true
    (two < one *. 0.7)

(* ------------------------------------------------------------------ *)
(* Kernel API reads + blk-switch classes                               *)
(* ------------------------------------------------------------------ *)

let test_api_reads_work () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
      let api = Lab_kernel.Api.create m blk in
      List.iter
        (fun a ->
          Lab_kernel.Api.submit_wait api ~api:a ~thread:0 ~kind:Lab_device.Device.Read
            ~off:0 ~bytes:4096)
        Lab_kernel.Api.all;
      Alcotest.(check int) "four reads" 4 (Lab_device.Device.completed_reads dev))

let test_blk_switch_classes () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Blk_switch in
      let small = Lab_kernel.Blk.select_hctx blk ~thread:0 ~bytes:4096 in
      let large = Lab_kernel.Blk.select_hctx blk ~thread:0 ~bytes:(1 lsl 20) in
      let n = Lab_device.Device.n_hw_queues dev in
      let reserved = n / 4 in
      Alcotest.(check bool) "small -> reserved tail queues" true (small >= n - reserved);
      Alcotest.(check bool) "large -> head queues" true (large < n - reserved))

let test_device_flush_with_chunked_io () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let done_ = ref false in
      (* 1 MiB splits into 4 x 256 KiB commands; the waiter's notify
         fires once, after all of them. *)
      let w = Lab_device.Device.take_waiter (Lab_device.Device.waiter_pool ()) in
      Lab_device.Device.set_notify w (fun w ->
          Alcotest.(check int) "reported as one op" (1 lsl 20)
            (Lab_device.Device.waiter_bytes w);
          done_ := true;
          Lab_device.Device.wake w);
      Lab_device.Device.submit_waiter dev w ~hctx:0 ~kind:Lab_device.Device.Write
        ~lba:0 ~bytes:(1 lsl 20);
      Lab_device.Device.await w;
      Alcotest.(check bool) "await waited for all chunks" true !done_;
      Alcotest.(check int) "four chunk completions counted" 4
        (Lab_device.Device.completed_writes dev))

(* ------------------------------------------------------------------ *)
(* Profile sanity                                                      *)
(* ------------------------------------------------------------------ *)

let test_profiles () =
  List.iter
    (fun (p : Lab_device.Profile.t) ->
      Alcotest.(check bool)
        (p.Lab_device.Profile.name ^ " block count positive")
        true
        (Lab_device.Profile.blocks p > 0))
    Lab_device.Profile.all;
  Alcotest.(check string) "kind name" "NVMe"
    (Lab_device.Profile.kind_to_string Lab_device.Profile.Nvme);
  Alcotest.(check bool) "of_kind roundtrip" true
    (List.for_all
       (fun (p : Lab_device.Profile.t) ->
         (Lab_device.Profile.of_kind p.Lab_device.Profile.kind).Lab_device.Profile.name
         = p.Lab_device.Profile.name)
       Lab_device.Profile.all)

let () =
  Alcotest.run "lab_coverage"
    [
      ( "sim",
        [
          Alcotest.test_case "stats clear" `Quick test_hist_clear;
          Alcotest.test_case "costs copy" `Quick test_costs_copy;
          Alcotest.test_case "cpu reset/bounds" `Quick test_cpu_reset_and_bounds;
          Alcotest.test_case "spawn_at" `Quick test_engine_spawn_at;
          Alcotest.test_case "heap misc" `Quick test_heap_misc;
        ] );
      ( "yamlite",
        [
          Alcotest.test_case "crlf + doc marker" `Quick test_yaml_crlf_and_doc_marker;
          Alcotest.test_case "quoted key" `Quick test_yaml_quoted_key;
          Alcotest.test_case "nested list" `Quick test_yaml_nested_list_under_key;
          Alcotest.test_case "tab rejected" `Quick test_yaml_tab_rejected;
          Alcotest.test_case "int as float" `Quick test_yaml_get_float_accepts_int;
          Alcotest.test_case "empty flow list" `Quick test_yaml_empty_flow_list;
        ] );
      ( "core",
        [
          Alcotest.test_case "request pp" `Quick test_request_pp_and_helpers;
          Alcotest.test_case "stack helpers" `Quick test_stack_next_uuids_and_mods_order;
          Alcotest.test_case "namespace listings" `Quick test_namespace_listings;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "span exclusivity" `Quick test_exec_span_exclusive_times;
          Alcotest.test_case "ipc region lifecycle" `Quick test_ipc_disconnect_frees_region;
          Alcotest.test_case "doorbell handoff" `Quick test_worker_doorbell_handoff;
          Alcotest.test_case "unordered multi-worker" `Quick
            test_unordered_queue_multi_worker;
        ] );
      ( "kernel-device",
        [
          Alcotest.test_case "api reads" `Quick test_api_reads_work;
          Alcotest.test_case "blk-switch classes" `Quick test_blk_switch_classes;
          Alcotest.test_case "chunked flush" `Quick test_device_flush_with_chunked_io;
          Alcotest.test_case "profiles" `Quick test_profiles;
        ] );
    ]
