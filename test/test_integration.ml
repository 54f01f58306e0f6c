(* Cross-cutting integration tests: whole-platform determinism,
   upgrade/crash interplay, dynamic stack modification under traffic,
   multi-interface multiplexing, and spec-level LabMod
   interchangeability. *)

open Labstor
open Lab_core

let fs_spec ?(cache = "lru_cache") ?(extra = "") () =
  Printf.sprintf
    {|
mount: "fs::/it"
dag:
  - uuid: it-fs
    mod: labfs
    outputs: [it-cache]
  - uuid: it-cache
    mod: %s
    attrs:
      capacity_mb: 8
    outputs: [it-sched]
%s  - uuid: it-sched
    mod: noop_sched
    outputs: [it-drv]
  - uuid: it-drv
    mod: kernel_driver
|}
    cache extra

let kv_spec =
  {|
mount: "kv::/it"
dag:
  - uuid: it-kvs
    mod: labkvs
    outputs: [it-ksched]
  - uuid: it-ksched
    mod: noop_sched
    outputs: [it-kdrv]
  - uuid: it-kdrv
    mod: kernel_driver
|}

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let run_scenario () =
  let platform = Platform.boot ~nworkers:4 ~seed:42 () in
  ignore (Platform.mount_exn platform (fs_spec ()));
  ignore (Platform.mount_exn platform kv_spec);
  let ops_done = ref 0 in
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let all_done = Sim.Engine.join 6 in
      for i = 1 to 6 do
        Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:i () in
            let rng = Sim.Rng.create (1000 + i) in
            for j = 1 to 40 do
              (match j mod 3 with
              | 0 ->
                  ignore
                    (Runtime.Client.put c
                       ~key:(Printf.sprintf "kv::/it/k%d-%d" i j)
                       ~bytes:(4096 * (1 + Sim.Rng.int rng 4)))
              | 1 -> ok (Runtime.Client.create c (Printf.sprintf "fs::/it/f%d-%d" i j))
              | _ -> (
                  let path = Printf.sprintf "fs::/it/d%d-%d" i j in
                  ok (Runtime.Client.create c path);
                  match Runtime.Client.open_file c path with
                  | Ok fd ->
                      ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:8192);
                      ignore (Runtime.Client.pread c ~fd ~off:0 ~bytes:8192);
                      ignore (Runtime.Client.close c fd)
                  | Error e -> failwith e));
              incr ops_done
            done;
            Sim.Engine.arrive all_done)
      done;
      Sim.Engine.await all_done);
  (Platform.now platform, !ops_done,
   Runtime.Runtime.requests_processed (Platform.runtime platform))

let test_whole_platform_determinism () =
  let a = run_scenario () and b = run_scenario () in
  let pp fmt (t, ops, reqs) = Format.fprintf fmt "(%.3f, %d, %d)" t ops reqs in
  Alcotest.check (Alcotest.testable pp ( = )) "bit-identical replay" a b

let test_multi_interface_multiplexing () =
  let _, ops, reqs = run_scenario () in
  Alcotest.(check int) "all client ops completed" 240 ops;
  Alcotest.(check bool) "workers served both interfaces" true (reqs > 240)

(* ------------------------------------------------------------------ *)

let test_upgrade_then_crash_then_upgrade () =
  let platform = Platform.boot ~nworkers:2 () in
  ignore
    (Platform.mount_exn platform
       "mount: \"ctl::/d\"\ndag:\n  - uuid: uc-dummy\n    mod: dummy");
  let rt = Platform.runtime platform in
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let c = Platform.client platform ~thread:0 () in
      for _ = 1 to 20 do
        ok (Runtime.Client.control c ~mount:"ctl::/d" 1)
      done;
      (* First upgrade applies normally. *)
      Runtime.Runtime.modify_mods rt
        {
          Module_manager.target = "dummy";
          factory = Mods.Dummy_mod.factory ~tag:"v2" ();
          code_bytes = 1 lsl 18;
          kind = Module_manager.Centralized;
        };
      Sim.Engine.wait 20e6;
      let v2 = Option.get (Registry.find (Runtime.Runtime.registry rt) "uc-dummy") in
      Alcotest.(check string) "v2 live" "v2" (Mods.Dummy_mod.tag v2);
      (* Crash with another upgrade queued; it must apply after restart. *)
      Runtime.Runtime.modify_mods rt
        {
          Module_manager.target = "dummy";
          factory = Mods.Dummy_mod.factory ~tag:"v3" ();
          code_bytes = 1 lsl 18;
          kind = Module_manager.Centralized;
        };
      Runtime.Runtime.crash rt;
      Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
          Sim.Engine.wait 2e6;
          Runtime.Runtime.restart rt);
      ok (Runtime.Client.control c ~mount:"ctl::/d" 1);
      Sim.Engine.wait 30e6;
      let v3 = Option.get (Registry.find (Runtime.Runtime.registry rt) "uc-dummy") in
      Alcotest.(check string) "queued upgrade applied post-restart" "v3"
        (Mods.Dummy_mod.tag v3);
      Alcotest.(check int) "no message lost across it all" 21
        (Mods.Dummy_mod.messages v3))

(* ------------------------------------------------------------------ *)

let test_modify_stack_under_traffic () =
  (* Dynamic semantics imposition: insert a compression vertex into a
     live stack, then remove it, while a client keeps writing. *)
  let platform = Platform.boot ~nworkers:2 () in
  let base =
    "mount: \"fs::/dyn\"\ndag:\n  - uuid: dy-fs\n    mod: labfs\n    outputs: [dy-drv]\n  - uuid: dy-drv\n    mod: kernel_driver"
  in
  let with_compression =
    "mount: \"fs::/dyn\"\ndag:\n  - uuid: dy-fs\n    mod: labfs\n    outputs: [dy-z]\n  - uuid: dy-z\n    mod: compress\n    outputs: [dy-drv]\n  - uuid: dy-drv\n    mod: kernel_driver"
  in
  ignore (Platform.mount_exn platform base);
  let rt = Platform.runtime platform in
  let dev = Platform.device platform Device.Profile.Nvme in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let write n =
        let path = Printf.sprintf "fs::/dyn/f%d" n in
        ok (Runtime.Client.create c path);
        match Runtime.Client.open_file c path with
        | Ok fd ->
            ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:(1 lsl 20));
            ignore (Runtime.Client.close c fd)
        | Error e -> failwith e
      in
      write 1;
      let before = Device.Device.bytes_written dev in
      (match Runtime.Runtime.modify_stack_text rt with_compression with
      | Ok stack ->
          Alcotest.(check int) "vertex inserted" 3
            (List.length stack.Stack.spec.Stack_spec.dag)
      | Error e -> Alcotest.fail e);
      write 2;
      Sim.Engine.wait 1e6;
      let compressed_delta = Device.Device.bytes_written dev - before in
      Alcotest.(check bool)
        (Printf.sprintf "compressed write shrank device traffic (%d)" compressed_delta)
        true
        (compressed_delta < (1 lsl 20) * 3 / 4);
      (* LabFS state (files) survived the DAG change. *)
      let fs = Option.get (Registry.find (Runtime.Runtime.registry rt) "dy-fs") in
      Alcotest.(check bool) "f1 still known" true
        (Mods.Labfs.lookup fs "fs::/dyn/f1" <> None);
      (match Runtime.Runtime.modify_stack_text rt base with
      | Ok stack ->
          Alcotest.(check int) "vertex removed" 2
            (List.length stack.Stack.spec.Stack_spec.dag)
      | Error e -> Alcotest.fail e);
      write 3)

(* ------------------------------------------------------------------ *)

let test_arc_cache_by_spec () =
  (* Interchangeability at the spec level: swap lru_cache for arc_cache
     by editing one YAML line. *)
  let run cache =
    let platform = Platform.boot ~nworkers:2 () in
    ignore (Platform.mount_exn platform (fs_spec ~cache ()));
    Platform.go platform (fun () ->
        let c = Platform.client platform ~thread:0 () in
        let path = "fs::/it/x" in
        ok (Runtime.Client.create c path);
        match Runtime.Client.open_file c path with
        | Ok fd ->
            ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:65536);
            ok (Runtime.Client.pread c ~fd ~off:0 ~bytes:65536)
        | Error e -> failwith e)
  in
  Alcotest.(check int) "lru stack works" 65536 (run "lru_cache");
  Alcotest.(check int) "arc stack works" 65536 (run "arc_cache")

let test_consistency_in_stack_durable () =
  let platform = Platform.boot ~nworkers:2 () in
  let spec =
    {|
mount: "fs::/dur"
dag:
  - uuid: du-fs
    mod: labfs
    outputs: [du-cons]
  - uuid: du-cons
    mod: consistency
    attrs:
      mode: durable
    outputs: [du-cache]
  - uuid: du-cache
    mod: lru_cache
    outputs: [du-drv]
  - uuid: du-drv
    mod: kernel_driver
|}
  in
  ignore (Platform.mount_exn platform spec);
  let dev = Platform.device platform Device.Profile.Nvme in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let path = "fs::/dur/f" in
      ok (Runtime.Client.create c path);
      match Runtime.Client.open_file c path with
      | Ok fd ->
          let before = Device.Device.bytes_written dev in
          for i = 0 to 9 do
            ignore (Runtime.Client.pwrite c ~fd ~off:(i * 4096) ~bytes:4096)
          done;
          (* Durable mode: every write bypassed the cache to the device. *)
          Alcotest.(check bool) "10 writes persisted" true
            (Device.Device.bytes_written dev - before >= 10 * 4096)
      | Error e -> failwith e)

(* ------------------------------------------------------------------ *)

let test_fio_through_labstor_stack () =
  let platform = Platform.boot ~nworkers:4 () in
  ignore (Platform.mount_exn platform (fs_spec ()));
  let r =
    Platform.go platform (fun () ->
        let m = Platform.machine platform in
        let clients =
          Array.init 4 (fun i -> Platform.client platform ~thread:i ())
        in
        let fds =
          Array.mapi
            (fun i c ->
              let path = Printf.sprintf "fs::/it/fio%d" i in
              ok (Runtime.Client.create c path);
              ok (Runtime.Client.open_file c path))
            clients
        in
        let target =
          Lab_workloads.Fio.target_of_submit (fun ~thread ~kind ~off ~bytes ->
              let c = clients.(thread) and fd = fds.(thread) in
              match kind with
              | Request.Write -> ignore (Runtime.Client.pwrite c ~fd ~off ~bytes)
              | Request.Read -> ignore (Runtime.Client.pread c ~fd ~off ~bytes))
        in
        let job =
          {
            Lab_workloads.Fio.default_job with
            Lab_workloads.Fio.nthreads = 4;
            total_bytes_per_thread = 1 lsl 20;
            region_bytes = 1 lsl 22;
          }
        in
        Lab_workloads.Fio.run m job target)
  in
  Alcotest.(check int) "all ops issued" 1024 r.Lab_workloads.Fio.ops;
  Alcotest.(check int) "latency recorded" 1024
    (Obs.Hist.count r.Lab_workloads.Fio.latency)

let () =
  Alcotest.run "lab_integration"
    [
      ( "platform",
        [
          Alcotest.test_case "determinism" `Quick test_whole_platform_determinism;
          Alcotest.test_case "multi-interface multiplexing" `Quick
            test_multi_interface_multiplexing;
          Alcotest.test_case "fio through a stack" `Quick test_fio_through_labstor_stack;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "upgrade, crash, upgrade" `Quick
            test_upgrade_then_crash_then_upgrade;
          Alcotest.test_case "modify_stack under traffic" `Quick
            test_modify_stack_under_traffic;
        ] );
      ( "composition",
        [
          Alcotest.test_case "arc by spec" `Quick test_arc_cache_by_spec;
          Alcotest.test_case "durable consistency in stack" `Quick
            test_consistency_in_stack_durable;
        ] );
    ]
