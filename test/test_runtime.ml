(* Integration tests for lab_runtime: full client → queue pair → worker
   → LabStack → device flows, orchestration, live upgrades under
   traffic, crash recovery, and fork semantics. *)

open Lab_sim
open Lab_core
open Lab_runtime

let fs_stack_spec ?(mount = "fs::/data") ?(exec = "async") ?(perms = false) () =
  Printf.sprintf
    {|
mount: "%s"
rules:
  exec_mode: %s
dag:
%s  - uuid: fs-1
    mod: labfs
    outputs: [lru-1]
  - uuid: lru-1
    mod: lru_cache
    attrs:
      capacity_mb: 16
    outputs: [sched-1]
  - uuid: sched-1
    mod: noop_sched
    outputs: [drv-1]
  - uuid: drv-1
    mod: kernel_driver
|}
    mount exec
    (if perms then
       "  - uuid: perm-1\n    mod: permissions\n    outputs: [fs-1]\n"
     else "")

(* When permissions are present they must be the entry vertex; the
   template above lists them first. *)

let kv_stack_spec ?(mount = "kv::/db") () =
  Printf.sprintf
    {|
mount: "%s"
rules:
  exec_mode: async
dag:
  - uuid: kvs-1
    mod: labkvs
    outputs: [ksched-1]
  - uuid: ksched-1
    mod: noop_sched
    outputs: [kdrv-1]
  - uuid: kdrv-1
    mod: kernel_driver
|}
    mount

let dummy_stack_spec ?(mount = "ctl::/dummy") () =
  Printf.sprintf
    "mount: \"%s\"\ndag:\n  - uuid: dummy-1\n    mod: dummy" mount

let make_runtime ?(ncores = 8) ?(nworkers = 2) ?policy () =
  let machine = Machine.create ~ncores () in
  let nvme = Lab_device.Device.create machine.Machine.engine Lab_device.Profile.nvme in
  let backend = Lab_mods.Mods_env.backend_of_device machine nvme in
  let policy =
    Option.value policy ~default:(Orchestrator.Round_robin nworkers)
  in
  let config = { Runtime.default_config with nworkers; policy } in
  let rt =
    Runtime.create machine ~config ~backends:[ ("nvme", backend) ]
      ~default_backend:"nvme" ()
  in
  Runtime.start rt;
  (machine, rt, nvme)

let in_rt ?ncores ?nworkers ?policy f =
  let machine, rt, dev = make_runtime ?ncores ?nworkers ?policy () in
  let result = ref None in
  Machine.spawn machine (fun () ->
      result := Some (f machine rt dev);
      (* The runtime's admin/workers run forever; drop their events once
         the test body is done. *)
      Engine.stop_all machine.Machine.engine);
  Machine.run ~until:60e9 machine;
  match !result with Some r -> r | None -> Alcotest.fail "test process never finished"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let test_end_to_end_file_io () =
  in_rt (fun _m rt dev ->
      (match Runtime.mount_text rt (fs_stack_spec ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let c = Client.connect rt ~pid:100 ~uid:1 ~thread:0 () in
      let fd = ok (Client.open_file c ~create:true "fs::/data/hello.txt") in
      Alcotest.(check bool) "fd allocated" true (fd >= 3);
      let written = ok (Client.pwrite c ~fd ~off:0 ~bytes:4096) in
      Alcotest.(check int) "wrote 4K" 4096 written;
      let read = ok (Client.pread c ~fd ~off:0 ~bytes:4096) in
      Alcotest.(check int) "read back 4K" 4096 read;
      ok (Client.fsync c ~fd);
      ok (Client.close c fd);
      Engine.wait 1e6;
      (* The data write is absorbed by the LRU cache (write-back); the
         fsync forces LabFS's metadata log out to the device. *)
      Alcotest.(check bool) "device saw the log flush" true
        (Lab_device.Device.completed_writes dev >= 1);
      Alcotest.(check bool) "workers processed requests" true
        (Runtime.requests_processed rt >= 4))

let test_open_missing_fails () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:100 ~uid:1 ~thread:0 () in
      match Client.open_file c "fs::/data/ghost" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected open failure")

let test_unmounted_path_fails () =
  in_rt (fun _m rt _dev ->
      let c = Client.connect rt ~pid:100 ~uid:1 ~thread:0 () in
      match Client.open_file c ~create:true "nowhere::/x" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected resolution failure")

let test_kv_end_to_end () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (kv_stack_spec ())));
      let c = Client.connect rt ~pid:7 ~uid:1 ~thread:0 () in
      ok (Client.put c ~key:"kv::/db/k1" ~bytes:8192);
      let n = ok (Client.get c ~key:"kv::/db/k1") in
      Alcotest.(check int) "value size" 8192 n;
      ok (Client.delete c ~key:"kv::/db/k1");
      match Client.get c ~key:"kv::/db/k1" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected missing key")

let test_sync_mode_no_workers () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ~exec:"sync" ())));
      let c = Client.connect rt ~pid:9 ~uid:1 ~thread:0 () in
      let fd = ok (Client.open_file c ~create:true "fs::/data/f") in
      ignore (ok (Client.pwrite c ~fd ~off:0 ~bytes:4096));
      Alcotest.(check int) "no worker involvement" 0 (Runtime.requests_processed rt))

let test_sync_faster_than_async_single_thread () =
  (* Lab-D (sync, decentralized) removes IPC and worker hand-off, which
     the paper credits with ~20 % better single-threaded metadata
     performance. *)
  let time exec =
    in_rt (fun m rt _dev ->
        ignore (ok (Runtime.mount_text rt (fs_stack_spec ~exec ())));
        let c = Client.connect rt ~pid:1 ~uid:1 ~thread:0 () in
        let t0 = Machine.now m in
        for i = 1 to 200 do
          ok (Client.create c (Printf.sprintf "fs::/data/f%d" i))
        done;
        Machine.now m -. t0)
  in
  let sync = time "sync" and async = time "async" in
  Alcotest.(check bool)
    (Printf.sprintf "sync %.0f < async %.0f" sync async)
    true (sync < async)

let test_permission_stack_denies () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ~perms:true ())));
      let perm = Option.get (Registry.find (Runtime.registry rt) "perm-1") in
      Lab_mods.Permissions.add_rule perm ~uid:66 ~prefix:"fs::/data/secret"
        ~allow:false;
      let c_ok = Client.connect rt ~pid:1 ~uid:1 ~thread:0 () in
      let c_bad = Client.connect rt ~pid:2 ~uid:66 ~thread:1 () in
      ignore (ok (Client.open_file c_ok ~create:true "fs::/data/secret/s"));
      match Client.open_file c_bad ~create:true "fs::/data/secret/evil" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected denial")

let test_multiple_clients_parallel () =
  in_rt ~nworkers:4 (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let nclients = 8 in
      let all_done = Engine.join nclients in
      for i = 1 to nclients do
        Engine.spawn m.Machine.engine (fun () ->
            let c = Client.connect rt ~pid:(100 + i) ~uid:1 ~thread:i () in
            for j = 1 to 20 do
              ok (Client.create c (Printf.sprintf "fs::/data/c%d-f%d" i j))
            done;
            Engine.arrive all_done)
      done;
      Engine.await all_done;
      Alcotest.(check bool) "all clients done" true (Engine.joined all_done);
      let fs = Option.get (Registry.find (Runtime.registry rt) "fs-1") in
      Alcotest.(check int) "all files exist" (nclients * 20)
        (Lab_mods.Labfs.file_count fs))

let test_live_upgrade_under_traffic () =
  in_rt (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (dummy_stack_spec ())));
      let c = Client.connect rt ~pid:5 ~uid:0 ~thread:0 () in
      (* Warm up so the dummy instance processes some messages. *)
      for _ = 1 to 50 do
        ok (Client.control c ~mount:"ctl::/dummy" 1)
      done;
      let before = Option.get (Registry.find (Runtime.registry rt) "dummy-1") in
      Alcotest.(check int) "pre-upgrade messages" 50 (Lab_mods.Dummy_mod.messages before);
      Runtime.modify_mods rt
        {
          Module_manager.target = "dummy";
          factory = Lab_mods.Dummy_mod.factory ~tag:"v2" ();
          code_bytes = 1 lsl 20;
          kind = Module_manager.Centralized;
        };
      (* Keep traffic flowing while the admin performs the upgrade. *)
      for _ = 1 to 200 do
        ok (Client.control c ~mount:"ctl::/dummy" 1)
      done;
      Engine.wait 20e6;
      let after = Option.get (Registry.find (Runtime.registry rt) "dummy-1") in
      Alcotest.(check string) "new code active" "v2" (Lab_mods.Dummy_mod.tag after);
      Alcotest.(check int) "version bumped" 2 after.Labmod.version;
      Alcotest.(check int) "no message lost" 250 (Lab_mods.Dummy_mod.messages after);
      ignore m)

let test_decentralized_upgrade_applied_by_client () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (dummy_stack_spec ())));
      let c = Client.connect rt ~pid:5 ~uid:0 ~thread:0 () in
      for _ = 1 to 10 do
        ok (Client.control c ~mount:"ctl::/dummy" 1)
      done;
      Runtime.modify_mods rt
        {
          Module_manager.target = "dummy";
          factory = Lab_mods.Dummy_mod.factory ~tag:"v2d" ();
          code_bytes = 1 lsl 18;
          kind = Module_manager.Decentralized;
        };
      (* Next request boundary applies the upgrade in the client. *)
      ok (Client.control c ~mount:"ctl::/dummy" 1);
      let fresh = Option.get (Registry.find (Runtime.registry rt) "dummy-1") in
      Alcotest.(check string) "client applied new code" "v2d"
        (Lab_mods.Dummy_mod.tag fresh);
      Alcotest.(check int) "state carried" 11 (Lab_mods.Dummy_mod.messages fresh))

let test_crash_recovery () =
  in_rt (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:3 ~uid:1 ~thread:0 ~recovery_timeout_ns:5e9 () in
      for i = 1 to 10 do
        ok (Client.create c (Printf.sprintf "fs::/data/pre%d" i))
      done;
      (* Crash the runtime; restart it 5 ms later. *)
      Engine.spawn m.Machine.engine (fun () ->
          Runtime.crash rt;
          Engine.wait 5e6;
          Runtime.restart rt);
      Engine.wait 1000.0;
      (* This request observes the crash, waits for restart, repairs,
         and retries transparently. *)
      ok (Client.create c "fs::/data/post");
      let fs = Option.get (Registry.find (Runtime.registry rt) "fs-1") in
      Alcotest.(check bool) "pre-crash files survive (log replay)" true
        (Lab_mods.Labfs.lookup fs "fs::/data/pre1" <> None);
      Alcotest.(check bool) "post-crash file created" true
        (Lab_mods.Labfs.lookup fs "fs::/data/post" <> None))

let test_crash_timeout_raises () =
  in_rt (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:3 ~uid:1 ~thread:0 ~recovery_timeout_ns:2e6 () in
      ok (Client.create c "fs::/data/a");
      Runtime.crash rt;
      ignore m;
      match Client.create c "fs::/data/b" with
      | exception Client.Runtime_gone -> ()
      | _ -> Alcotest.fail "expected Runtime_gone")

(* Runtime_gone is about the client's patience, not the Runtime's fate:
   a restart that lands after recovery_timeout_ns is indistinguishable
   (to the waiting request) from no restart at all. *)
let test_runtime_gone_despite_late_restart () =
  in_rt (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:3 ~uid:1 ~thread:0 ~recovery_timeout_ns:2e6 () in
      ok (Client.create c "fs::/data/a");
      Engine.spawn m.Machine.engine (fun () ->
          Runtime.crash rt;
          Engine.wait 50e6;  (* restart 50 ms later: 25x the timeout *)
          Runtime.restart rt);
      Engine.wait 1000.0;
      match Client.create c "fs::/data/b" with
      | exception Client.Runtime_gone -> ()
      | _ -> Alcotest.fail "expected Runtime_gone despite late restart")

let test_fork_inherits_fds () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let parent = Client.connect rt ~pid:10 ~uid:1 ~thread:0 () in
      let fd = ok (Client.open_file parent ~create:true "fs::/data/shared") in
      let child = Client.fork parent ~new_pid:11 ~new_thread:1 in
      Alcotest.(check int) "same fd count" (Client.open_fd_count parent)
        (Client.open_fd_count child);
      let n = ok (Client.pwrite child ~fd ~off:0 ~bytes:4096) in
      Alcotest.(check int) "child writes through inherited fd" 4096 n;
      (* The child got its own credentials entry and queue pairs. *)
      Alcotest.(check (option int)) "child registered" (Some 1)
        (Lab_ipc.Ipc_manager.credentials (Runtime.ipc rt) ~pid:11))

let test_dynamic_orchestrator_decommissions () =
  in_rt ~nworkers:8
    ~policy:(Orchestrator.Dynamic { max_workers = 8; threshold = 0.2; lq_cutoff_ns = 1e6 })
    (fun m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:1 ~uid:1 ~thread:0 () in
      (* Light single-client load: the dynamic policy should not keep
         8 workers awake. *)
      Runtime.reset_worker_stats rt;
      let t0 = Machine.now m in
      for i = 1 to 300 do
        ok (Client.create c (Printf.sprintf "fs::/data/l%d" i))
      done;
      let elapsed = Machine.now m -. t0 in
      let cores_busy =
        Runtime.utilization rt ~elapsed_ns:elapsed
        *. Stdlib.float_of_int (Array.length (Runtime.workers rt))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f cores busy < 3" cores_busy)
        true (cores_busy < 3.0))

let test_orchestrator_partition_pure () =
  let qp i = Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered ~id:i () in
  let lq i = { Orchestrator.qp = qp i; est_service_ns = 3000.0; expected_requests = 10.0 } in
  let cq i = { Orchestrator.qp = qp i; est_service_ns = 2e7; expected_requests = 5.0 } in
  let queues = [ lq 1; lq 2; cq 3; cq 4 ] in
  let bins =
    Orchestrator.partition_dynamic ~max_workers:8 ~threshold:0.2 ~lq_cutoff_ns:1e6
      ~epoch_ns:1e8 ~queues
  in
  (* LQs and CQs must never share a bin. *)
  List.iter
    (fun qs ->
      let kinds =
        List.sort_uniq compare
          (List.map (fun q -> q.Orchestrator.est_service_ns <= 1e6) qs)
      in
      Alcotest.(check bool) "no mixed bin" true (List.length kinds <= 1))
    bins;
  let all = List.concat bins in
  Alcotest.(check int) "every queue assigned" 4 (List.length all)

let prop_orchestrator_assigns_all =
  QCheck.Test.make ~name:"dynamic partition assigns every queue exactly once"
    ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 20) (int_range 1 30)))
    (fun (max_workers, loads) ->
      let queues =
        List.mapi
          (fun i ms ->
            {
              Orchestrator.qp =
                Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary
                  ~ordering:Lab_ipc.Qp.Ordered ~id:i ();
              est_service_ns = Stdlib.float_of_int ms *. 1e5;
              expected_requests = 3.0;
            })
          loads
      in
      let bins =
        Orchestrator.partition_dynamic ~max_workers ~threshold:0.2
          ~lq_cutoff_ns:1e6 ~epoch_ns:1e7 ~queues
      in
      let assigned = List.concat bins in
      List.length assigned = List.length queues
      && List.length bins <= max_workers)

let () =
  Alcotest.run "lab_runtime"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "file io via workers" `Quick test_end_to_end_file_io;
          Alcotest.test_case "open missing" `Quick test_open_missing_fails;
          Alcotest.test_case "unmounted path" `Quick test_unmounted_path_fails;
          Alcotest.test_case "kv store" `Quick test_kv_end_to_end;
          Alcotest.test_case "sync mode inline" `Quick test_sync_mode_no_workers;
          Alcotest.test_case "sync < async single-thread" `Quick
            test_sync_faster_than_async_single_thread;
          Alcotest.test_case "permissions in stack" `Quick test_permission_stack_denies;
          Alcotest.test_case "parallel clients" `Quick test_multiple_clients_parallel;
        ] );
      ( "upgrades",
        [
          Alcotest.test_case "centralized under traffic" `Quick
            test_live_upgrade_under_traffic;
          Alcotest.test_case "decentralized via client" `Quick
            test_decentralized_upgrade_applied_by_client;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "recover and retry" `Quick test_crash_recovery;
          Alcotest.test_case "timeout raises" `Quick test_crash_timeout_raises;
          Alcotest.test_case "late restart still raises" `Quick
            test_runtime_gone_despite_late_restart;
        ] );
      ( "process-semantics",
        [ Alcotest.test_case "fork fd inheritance" `Quick test_fork_inherits_fds ] );
      ( "orchestrator",
        [
          Alcotest.test_case "dynamic decommissions" `Quick
            test_dynamic_orchestrator_decommissions;
          Alcotest.test_case "partition LQ/CQ" `Quick test_orchestrator_partition_pure;
          QCheck_alcotest.to_alcotest prop_orchestrator_assigns_all;
        ] );
    ]
