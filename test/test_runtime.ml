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

(* The fd ops fail by name: on a closed fd with "bad file descriptor
   N", and on an fd whose stack was unmounted after open with "stack N
   unmounted" (close still drops such an fd). *)
let test_fd_op_errors () =
  in_rt (fun _m rt _dev ->
      ignore (ok (Runtime.mount_text rt (fs_stack_spec ())));
      let c = Client.connect rt ~pid:100 ~uid:1 ~thread:0 () in
      let size = Alcotest.(result int string) and unit = Alcotest.(result unit string) in
      let fd = ok (Client.open_file c ~create:true "fs::/data/f") in
      ok (Client.close c fd);
      let bad = Printf.sprintf "bad file descriptor %d" fd in
      Alcotest.check size "pread" (Error bad) (Client.pread c ~fd ~off:0 ~bytes:4096);
      Alcotest.check size "pwrite" (Error bad) (Client.pwrite c ~fd ~off:0 ~bytes:4096);
      Alcotest.check unit "fsync" (Error bad) (Client.fsync c ~fd);
      Alcotest.check unit "close" (Error bad) (Client.close c fd);
      let fd = ok (Client.open_file c "fs::/data/f") in
      let ns = Runtime.namespace rt in
      let sid = (Namespace.lookup ns "fs::/data").Stack.id in
      ok (Namespace.unmount ns "fs::/data");
      let gone = Printf.sprintf "stack %d unmounted" sid in
      Alcotest.check size "pread unmounted" (Error gone)
        (Client.pread c ~fd ~off:0 ~bytes:4096);
      Alcotest.check size "pwrite unmounted" (Error gone)
        (Client.pwrite c ~fd ~off:0 ~bytes:4096);
      Alcotest.check unit "fsync unmounted" (Error gone) (Client.fsync c ~fd);
      Alcotest.check unit "close unmounted" (Ok ()) (Client.close c fd);
      Alcotest.check size "pread after close" (Error (Printf.sprintf "bad file descriptor %d" fd))
        (Client.pread c ~fd ~off:0 ~bytes:4096))

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

(* ------------------------------------------------------------------ *)
(* Pinned client schedule                                              *)
(* ------------------------------------------------------------------ *)

let pin_blk_spec ~mount ~exec =
  Printf.sprintf
    {|
mount: "%s"
rules:
  exec_mode: %s
dag:
  - uuid: psched-1
    mod: noop_sched
    outputs: [pdrv-1]
  - uuid: pdrv-1
    mod: kernel_driver
|}
    mount exec

(* Five client scenarios, each on a fresh platform:
   - A: a single async write loses its device command and misses its
     1 ms deadline; the command completes 3 ms later and its stale
     completion is drained by a later request;
   - B: a 4-op batch whose Runtime crashes mid-flight and restarts 1 ms
     later, so the survivors are resubmitted;
   - C: a 4-op batch with a lost command and a 1 ms deadline;
   - D: a sync stack, whose first write fails once and is retried in
     the client thread, then a read and a 3-op batch;
   - E: a metered tenant (4 KiB burst) whose back-to-back writes are
     refused with EAGAIN and retried, then a 2-op batch.
   Every client-visible result with its instant is logged; the event
   count, the final time and the client's fault counters of each
   scenario are pinned, so a change to the client's schedule shows
   here event for event. *)
let pinned_client_scenarios () =
  let log = Buffer.create 2048 in
  let summary = Buffer.create 512 in
  let show = function
    | Ok n -> string_of_int n
    | Error e -> (
        match String.index_opt e ':' with
        | Some i -> String.sub e 0 i
        | None -> "error")
  in
  let scenario name ?fault_script ?tenant ?policy ~exec body =
    let p = Labstor.Platform.boot ~nworkers:2 ?fault_script () in
    let mount = "blk::/dev/p" in
    ignore (ok (Labstor.Platform.mount p (pin_blk_spec ~mount ~exec)));
    let uid =
      match tenant with
      | Some (rate_mbps, burst_kb) ->
          ignore
            (Labstor.Platform.register_tenant p ~uid:7 ~rate_mbps ~burst_kb ());
          7
      | None -> 1000
    in
    let m = Labstor.Platform.machine p in
    let counters =
      Labstor.Platform.go p (fun () ->
          let c =
            Labstor.Platform.client p ~uid ?retry_policy:policy ~thread:0 ()
          in
          let stamp tag r =
            Printf.bprintf log "%s.%s:%s@%.0f;" name tag (show r) (Machine.now m)
          in
          let write lba = stamp (Printf.sprintf "w%d" lba) (Client.write_block c ~mount ~lba ~bytes:4096) in
          let read lba = stamp (Printf.sprintf "r%d" lba) (Client.read_block c ~mount ~lba ~bytes:4096) in
          let batch tag lba0 n =
            let ops =
              List.init n (fun i ->
                  { Client.op_kind = Request.Write; op_lba = lba0 + (8 * i); op_bytes = 4096 })
            in
            match Client.block_batch c ~mount ops with
            | Ok rs -> List.iteri (fun i r -> stamp (Printf.sprintf "%s.%d" tag i) r) rs
            | Error e -> Alcotest.fail e
          in
          body p m ~write ~read ~batch;
          Printf.sprintf "retries=%d requeues=%d deadline_misses=%d exhausted=%d"
            (Client.retries c) (Client.requeues c) (Client.deadline_misses c)
            (Client.exhausted_retries c))
    in
    Printf.bprintf summary "%s: events=%d now=%.3f %s\n" name
      (Engine.events_executed m.Machine.engine)
      (Machine.now m) counters
  in
  let lost delay =
    [
      Fault.One_shot
        { at_ns = 0.0; queue = None; fault = Fault.Transient_timeout delay };
    ]
  in
  let deadline ms =
    { Client.default_retry_policy with Client.deadline_ns = ms *. 1e6 }
  in
  scenario "A" ~fault_script:(lost 3e6)
    ~policy:{ (deadline 1.0) with Client.max_retries = 0 }
    ~exec:"async"
    (fun _p _m ~write ~read ~batch:_ ->
      write 0;
      write 8;
      Engine.wait 3e6;
      write 16;
      read 0);
  scenario "B" ~exec:"async" (fun p m ~write ~read:_ ~batch ->
      write 0;
      let rt = Labstor.Platform.runtime p in
      Engine.spawn m.Machine.engine (fun () ->
          Engine.wait 15_000.0;
          Runtime.crash rt;
          Engine.wait 1e6;
          Runtime.restart rt);
      batch "b" 64 4;
      batch "b'" 128 4);
  scenario "C" ~fault_script:(lost 4e6) ~policy:(deadline 1.0) ~exec:"async"
    (fun _p _m ~write:_ ~read:_ ~batch ->
      batch "b" 0 4;
      Engine.wait 4e6;
      batch "b'" 64 2);
  scenario "D"
    ~fault_script:
      [ Fault.One_shot { at_ns = 0.0; queue = None; fault = Fault.Io_error } ]
    ~exec:"sync"
    (fun _p _m ~write ~read ~batch ->
      write 0;
      read 0;
      batch "b" 8 3);
  scenario "E" ~tenant:(100.0, 4) ~exec:"async"
    (fun _p _m ~write ~read:_ ~batch ->
      for i = 0 to 3 do
        write (8 * i)
      done;
      batch "b" 64 2);
  (Buffer.contents log, Buffer.contents summary)

let test_pinned_client_schedule () =
  let log, summary = pinned_client_scenarios () in
  (* Values captured while single requests and batches still had
     separate submit and reap code. *)
  if Digest.to_hex (Digest.string log) <> "fd51e19872b8402a8fa72d28b0837ae7"
  then Alcotest.failf "client-visible results changed:\n%s" log;
  Alcotest.(check string) "per-scenario events, time and counters"
    "A: events=1201 now=4062754.000 retries=0 requeues=0 deadline_misses=1 exhausted=0\n\
     B: events=919 now=1088638.000 retries=0 requeues=0 deadline_misses=0 exhausted=0\n\
     C: events=1259 now=5044316.000 retries=0 requeues=0 deadline_misses=1 exhausted=0\n\
     D: events=212 now=149207.181 retries=1 requeues=0 deadline_misses=0 exhausted=0\n\
     E: events=872 now=242583.190 retries=3 requeues=0 deadline_misses=0 exhausted=0\n"
    summary

(* Worker scheduling under pressure: 2 workers with an asynchronous
   window of 2 and a batch of 4, the dynamic orchestrator, six clients
   (more than the window) over two stacks with different estimates, one
   injected media error and a Runtime crash at 60 us with a restart
   300 us later. Every client-visible result with its instant, the
   event count and each worker's processed count are pinned, so a
   change to how workers dispatch, run or retire requests, or to the
   estimate the orchestrator reads, shows here event for event. *)
let pinned_worker_scenario () =
  let config =
    {
      Runtime.default_config with
      nworkers = 2;
      policy =
        Orchestrator.Dynamic
          { max_workers = 2; threshold = 0.2; lq_cutoff_ns = 3000.0 };
      worker_max_inflight = 2;
      worker_batch_size = 4;
    }
  in
  let p =
    Labstor.Platform.boot ~config
      ~fault_script:
        [ Fault.One_shot { at_ns = 20_000.0; queue = None; fault = Fault.Io_error } ]
      ()
  in
  ignore (ok (Labstor.Platform.mount p (pin_blk_spec ~mount:"blk::/a" ~exec:"async")));
  ignore
    (ok
       (Labstor.Platform.mount p
          {|
mount: "blk::/b"
rules:
  exec_mode: async
dag:
  - uuid: wcache-1
    mod: lru_cache
    attrs:
      capacity_mb: 1
    outputs: [wsched-1]
  - uuid: wsched-1
    mod: noop_sched
    outputs: [wdrv-1]
  - uuid: wdrv-1
    mod: kernel_driver
|}));
  let m = Labstor.Platform.machine p in
  let rt = Labstor.Platform.runtime p in
  let log = Buffer.create 4096 in
  let retries = ref 0 in
  let show = function
    | Ok n -> string_of_int n
    | Error e -> (
        match String.index_opt e ':' with
        | Some i -> String.sub e 0 i
        | None -> "error")
  in
  Labstor.Platform.go p (fun () ->
      let clients = 6 and ops = 12 in
      let j = Engine.join clients in
      for k = 0 to clients - 1 do
        Engine.spawn m.Machine.engine (fun () ->
            let c = Labstor.Platform.client p ~thread:k () in
            for i = 0 to ops - 1 do
              let mount = if (k + i) mod 3 = 0 then "blk::/b" else "blk::/a" in
              let lba = 8 * ((k * ops) + (i / 2)) in
              let r =
                if i mod 2 = 0 then Client.write_block c ~mount ~lba ~bytes:4096
                else Client.read_block c ~mount ~lba ~bytes:4096
              in
              Printf.bprintf log "c%d.%d:%s@%.0f;" k i (show r) (Machine.now m)
            done;
            retries := !retries + Client.retries c;
            Engine.arrive j)
      done;
      Engine.spawn m.Machine.engine (fun () ->
          Engine.wait 60_000.0;
          Runtime.crash rt;
          Engine.wait 300_000.0;
          Runtime.restart rt);
      Engine.await j);
  let processed =
    Array.to_list (Array.map Worker.processed (Runtime.workers rt))
  in
  ( Buffer.contents log,
    Printf.sprintf "events=%d now=%.3f processed=%s retries=%d"
      (Engine.events_executed m.Machine.engine)
      (Machine.now m)
      (String.concat "," (List.map string_of_int processed))
      !retries )

let test_pinned_worker_schedule () =
  let log, summary = pinned_worker_scenario () in
  (* Values captured while every request still ran in a process spawned
     for it. *)
  if Digest.to_hex (Digest.string log) <> "7fed1f8f347d164adc0fcfa709b01ce6"
  then Alcotest.failf "client-visible results changed:\n%s" log;
  Alcotest.(check string) "events, time, per-worker processed, retries"
    "events=5150 now=648434.000 processed=15,61 retries=1" summary

(* Executors are long-lived: a worker spawns one only when none is idle,
   so 1,000 requests in a row through the full stack leave each worker
   with at most its window of executors. *)
let test_executors_reused () =
  let max_inflight = 4 in
  let config =
    { Runtime.default_config with nworkers = 2; worker_max_inflight = max_inflight }
  in
  let p = Labstor.Platform.boot ~config () in
  let mount = "blk::/x" in
  ignore (ok (Labstor.Platform.mount p (pin_blk_spec ~mount ~exec:"async")));
  let rt = Labstor.Platform.runtime p in
  Labstor.Platform.go p (fun () ->
      let c = Labstor.Platform.client p ~thread:0 () in
      for i = 0 to 999 do
        let r =
          if i mod 2 = 0 then Client.write_block c ~mount ~lba:(8 * i) ~bytes:4096
          else Client.read_block c ~mount ~lba:(8 * (i - 1)) ~bytes:4096
        in
        ignore (ok r)
      done);
  Alcotest.(check int) "every request ran" 1000 (Runtime.requests_processed rt);
  Array.iter
    (fun w ->
      let n = Worker.executors w in
      if n > max_inflight then
        Alcotest.failf "worker %d spawned %d executors for 1000 requests"
          (Worker.id w) n)
    (Runtime.workers rt);
  Alcotest.(check bool) "some worker spawned an executor" true
    (Array.exists (fun w -> Worker.executors w > 0) (Runtime.workers rt))

(* An executor is resumed only while it is parked idle: handing a
   request to one that is already running one raises instead of losing
   a request. *)
let test_misrouted_executor_resume () =
  let m = Machine.create ~ncores:2 () in
  let e = m.Machine.engine in
  let w =
    Worker.create m ~hooks:Hooks.off ~id:0 ~thread:0
      ~exec:(fun ~thread:_ _ -> Request.Done)
      ()
  in
  let qp =
    Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered
      ~id:0 ()
  in
  let req i =
    Request.make ~id:i ~pid:1 ~uid:0 ~thread:1 ~stack_id:1 ~now:0.0
      (Request.Control i)
  in
  Worker.assign w [ qp ];
  Worker.start w;
  (match Worker.take_idle w with
  | _ -> Alcotest.fail "a fresh worker has no idle executor"
  | exception Not_found -> ());
  Lab_ipc.Qp.submit qp (req 1);
  Engine.run ~until:100_000.0 e;
  Alcotest.(check int) "one executor ran the request" 1 (Worker.executors w);
  let x = Worker.take_idle w in
  Worker.resume_executor x (req 2) qp;
  (match Worker.resume_executor x (req 3) qp with
  | () -> Alcotest.fail "resuming a busy executor must raise"
  | exception Invalid_argument _ -> ());
  Engine.run ~until:200_000.0 e;
  Alcotest.(check int) "the refused request never ran" 2
    (Worker.processed w);
  let x' = Worker.take_idle w in
  Alcotest.(check bool) "and parked idle again" true (x' == x)

(* ---- Exec bindings ---------------------------------------------- *)

(* A module that calls [log tag uuid] and hands the request on to its
   successors; one with no successors returns [Done]. *)
let tap ?(tag = "v1") log : Registry.factory =
 fun ~uuid ~attrs:_ ->
  Labmod.make ~name:"tap" ~uuid ~mod_type:Labmod.Control
    {
      Labmod.operate =
        (fun _ ctx req ->
          log tag uuid;
          ctx.Labmod.forward req);
      est_processing_time = Labmod.default_est;
      state_update = Fun.id;
      state_repair = ignore;
    }

let tap_spec ~mount dag =
  {
    Stack_spec.mount;
    rules = Stack_spec.default_rules;
    dag =
      List.map
        (fun (uuid, outputs) ->
          { Stack_spec.uuid; mod_name = "tap"; attrs = []; outputs })
        dag;
  }

let control_req () =
  Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:0 ~now:0.0
    (Request.Control 0)

(* A registry whose "tap" factory logs into [log], and [walk stack]:
   one request through [stack], returning the taps it reached in
   order. *)
let logged_walk () =
  let m = Machine.create ~ncores:1 () in
  let registry = Registry.create () in
  let log = ref [] in
  let note tag uuid = log := (tag ^ ":" ^ uuid) :: !log in
  Registry.register_factory registry ~name:"tap" (tap note);
  let walk stack =
    log := [];
    Machine.spawn m (fun () ->
        ignore (Exec.run m ~registry ~stack ~thread:0 (control_req ())));
    Machine.run m;
    List.rev !log
  in
  (registry, note, walk)

(* A bound stack's walk allocates nothing: not per hop (the slope
   between chain lengths) and not per call (the one-vertex chain).
   Native only: bytecode allots differently. *)
let test_exec_allocates_nothing () =
  let words ~hops =
    let m = Machine.create ~ncores:1 () in
    let registry = Registry.create () in
    Registry.register_factory registry ~name:"tap" (tap (fun _ _ -> ()));
    let dag =
      List.init hops (fun i ->
          ( Printf.sprintf "v%d" i,
            if i = hops - 1 then [] else [ Printf.sprintf "v%d" (i + 1) ] ))
    in
    let stack =
      ok (Stack.instantiate registry (tap_spec ~mount:"ctl::/chain" dag) ~id:0)
    in
    let req = control_req () in
    let walk () =
      match Exec.run m ~registry ~stack ~thread:0 req with
      | Request.Done -> ()
      | r -> Alcotest.failf "walk: %a" Request.pp_result r
    in
    let w = ref nan in
    Machine.spawn m (fun () ->
        walk ();
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          walk ()
        done;
        w := Gc.minor_words () -. w0);
    Machine.run m;
    !w
  in
  match Sys.backend_type with
  | Sys.Native ->
      let call = words ~hops:1 and long = words ~hops:8 in
      Alcotest.(check (float 0.0)) "0 minor words per call" 0.0 call;
      Alcotest.(check (float 0.0)) "0 minor words per hop" 0.0
        ((long -. call) /. 7.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* A modified stack is a new record, so its next request walks the new
   DAG: an added successor is reached, a replaced one is not. *)
let test_exec_rebinds_modified_stack () =
  let registry, _, walk_stack = logged_walk () in
  let ns = Namespace.create () in
  let mount = "ctl::/dag" in
  let walk () = walk_stack (Namespace.lookup ns mount) in
  let modify dag = ignore (ok (Namespace.modify_stack ns registry (tap_spec ~mount dag))) in
  ignore
    (ok (Namespace.mount ns registry (tap_spec ~mount [ ("e", [ "a" ]); ("a", []) ])));
  Alcotest.(check (list string)) "as mounted" [ "v1:e"; "v1:a" ] (walk ());
  Alcotest.(check (list string)) "bound twice, same walk" [ "v1:e"; "v1:a" ] (walk ());
  modify [ ("e", [ "a"; "b" ]); ("a", []); ("b", []) ];
  Alcotest.(check (list string)) "added successor reached"
    [ "v1:e"; "v1:a"; "v1:b" ] (walk ());
  modify [ ("e", [ "c" ]); ("c", []) ];
  Alcotest.(check (list string)) "replaced successor, old one not reached"
    [ "v1:e"; "v1:c" ] (walk ())

(* Instances are looked up per hop, so a replaced instance runs on the
   very next request of an already bound stack. *)
let test_exec_sees_replaced_instance () =
  let registry, note, walk = logged_walk () in
  let stack =
    ok
      (Stack.instantiate registry
         (tap_spec ~mount:"ctl::/swap" [ ("e", [ "a" ]); ("a", []) ])
         ~id:0)
  in
  Alcotest.(check (list string)) "before" [ "v1:e"; "v1:a" ] (walk stack);
  Registry.replace registry (tap ~tag:"v2" note ~uuid:"a" ~attrs:[]);
  Alcotest.(check (list string)) "new instance runs" [ "v1:e"; "v2:a" ]
    (walk stack)

(* A removed instance fails the next hop of a bound stack, naming the
   vertex, after the hops before it ran. *)
let test_exec_fails_removed_instance () =
  let m = Machine.create ~ncores:1 () in
  let registry = Registry.create () in
  let log = ref [] in
  Registry.register_factory registry ~name:"tap"
    (tap (fun tag uuid -> log := (tag ^ ":" ^ uuid) :: !log));
  let stack =
    ok
      (Stack.instantiate registry
         (tap_spec ~mount:"ctl::/rm" [ ("e", [ "a" ]); ("a", []) ])
         ~id:0)
  in
  let walk () =
    log := [];
    let result = ref Request.Done in
    Machine.spawn m (fun () ->
        result := Exec.run m ~registry ~stack ~thread:0 (control_req ()));
    Machine.run m;
    (List.rev !log, Format.asprintf "%a" Request.pp_result !result)
  in
  let before = walk () in
  Registry.remove registry "a";
  let after = walk () in
  Alcotest.(check (pair (list string) string)) "bound walk"
    ([ "v1:e"; "v1:a" ], Format.asprintf "%a" Request.pp_result Request.Done)
    before;
  Alcotest.(check (pair (list string) string)) "the next hop fails"
    ( [ "v1:e" ],
      Format.asprintf "%a" Request.pp_result
        (Request.Failed "no LabMod instance \"a\"") )
    after

(* A request parked inside a bound stack sees a replacement made while
   it waits: its next hop runs the new instance. *)
let test_exec_replace_while_parked () =
  let m = Machine.create ~ncores:1 () in
  let registry = Registry.create () in
  let log = ref [] in
  let note tag uuid = log := (tag ^ ":" ^ uuid) :: !log in
  let parking ~uuid ~attrs:_ =
    Labmod.make ~name:"park" ~uuid ~mod_type:Labmod.Control
      {
        Labmod.operate =
          (fun _ ctx req ->
            note "v1" uuid;
            Engine.wait 10.0;
            ctx.Labmod.forward req);
        est_processing_time = Labmod.default_est;
        state_update = Fun.id;
        state_repair = ignore;
      }
  in
  Registry.register_factory registry ~name:"tap" (tap note);
  Registry.register_factory registry ~name:"park" parking;
  let spec = tap_spec ~mount:"ctl::/park" [ ("e", [ "a" ]); ("a", []) ] in
  let park_entry (v : Stack_spec.vertex) =
    if v.Stack_spec.uuid = "e" then { v with Stack_spec.mod_name = "park" } else v
  in
  let spec = { spec with Stack_spec.dag = List.map park_entry spec.Stack_spec.dag } in
  let stack = ok (Stack.instantiate registry spec ~id:0) in
  let walk ?replace_at () =
    log := [];
    Machine.spawn m (fun () ->
        ignore (Exec.run m ~registry ~stack ~thread:0 (control_req ())));
    Option.iter
      (fun t ->
        Machine.spawn m (fun () ->
            Engine.wait t;
            Registry.replace registry (tap ~tag:"v2" note ~uuid:"a" ~attrs:[])))
      replace_at;
    Machine.run m;
    List.rev !log
  in
  Alcotest.(check (list string)) "bound" [ "v1:e"; "v1:a" ] (walk ());
  Alcotest.(check (list string)) "replaced while parked" [ "v1:e"; "v2:a" ]
    (walk ~replace_at:5.0 ())

(* Bindings belong to their platform. Two platforms booted from the
   same seed run the same workload, in the client thread (sync mode),
   in alternating rounds: their warm rounds cost the same minor words,
   and the first platform's warm round costs the same after the second
   ran as before. A binding store shared between platforms would be
   rebuilt at every switch. *)
let test_exec_bindings_per_platform () =
  let mount = "blk::/w" in
  let boot () =
    let p = Labstor.Platform.boot ~seed:11 ~nworkers:2 () in
    ignore (ok (Labstor.Platform.mount p (pin_blk_spec ~mount ~exec:"sync")));
    let c = Labstor.Platform.go p (fun () -> Labstor.Platform.client p ~thread:0 ()) in
    (p, c)
  in
  let round (p, c) =
    Labstor.Platform.go p (fun () ->
        let w0 = Gc.minor_words () in
        for i = 0 to 99 do
          ignore (ok (Client.write_block c ~mount ~lba:(8 * i) ~bytes:4096));
          ignore (ok (Client.read_block c ~mount ~lba:(8 * i) ~bytes:4096))
        done;
        Gc.minor_words () -. w0)
  in
  let p1 = boot () and p2 = boot () in
  ignore (round p1);
  let a = round p1 in
  ignore (round p2);
  let b = round p2 in
  let a' = round p1 in
  Alcotest.(check (float 0.0)) "same words on the second platform" a b;
  Alcotest.(check (float 0.0)) "same words after the other platform ran" a a'

(* The pool's ownership rule, checked: a request released on the
   timeout path while its worker still runs it makes the worker raise at
   completion, and a second release of the parked record raises too. *)
let test_released_in_flight_raises () =
  let m = Machine.create ~ncores:2 () in
  let e = m.Machine.engine in
  let w =
    Worker.create m ~hooks:Hooks.off ~id:0 ~thread:0
      ~exec:(fun ~thread:_ _ ->
        Engine.wait 10_000.0;
        Request.Done)
      ()
  in
  let qp =
    Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered
      ~id:0 ()
  in
  Worker.assign w [ qp ];
  Worker.start w;
  let pool = Request.Pool.create () in
  let req =
    Request.Pool.acquire pool ~id:1 ~pid:1 ~uid:0 ~thread:1 ~stack_id:1
      ~now:0.0 (Request.Control 1)
  in
  Lab_ipc.Qp.submit qp req;
  (* A 1 us deadline passes while the worker still runs the request. *)
  Engine.run ~until:1_000.0 e;
  Alcotest.(check int) "in flight at the deadline" 1 (Worker.inflight w);
  Request.Pool.release pool req;
  (match Request.Pool.release pool req with
  | () -> Alcotest.fail "a double release must raise"
  | exception Invalid_argument _ -> ());
  match Engine.run ~until:100_000.0 e with
  | () -> Alcotest.fail "completing a released request must raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "lab_runtime"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "file io via workers" `Quick test_end_to_end_file_io;
          Alcotest.test_case "open missing" `Quick test_open_missing_fails;
          Alcotest.test_case "unmounted path" `Quick test_unmounted_path_fails;
          Alcotest.test_case "fd op errors" `Quick test_fd_op_errors;
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
      ( "client",
        [
          Alcotest.test_case "client schedule pinned" `Quick
            test_pinned_client_schedule;
        ] );
      ( "worker",
        [
          Alcotest.test_case "worker schedule pinned" `Quick
            test_pinned_worker_schedule;
          Alcotest.test_case "executors are reused" `Quick test_executors_reused;
          Alcotest.test_case "misrouted executor resume" `Quick
            test_misrouted_executor_resume;
          Alcotest.test_case "request released in flight raises" `Quick
            test_released_in_flight_raises;
        ] );
      ( "exec",
        [
          Alcotest.test_case "bound walk allocates nothing" `Quick
            test_exec_allocates_nothing;
          Alcotest.test_case "modified stack rebinds" `Quick
            test_exec_rebinds_modified_stack;
          Alcotest.test_case "replaced instance runs next" `Quick
            test_exec_sees_replaced_instance;
          Alcotest.test_case "removed instance fails the next hop" `Quick
            test_exec_fails_removed_instance;
          Alcotest.test_case "replace seen by a parked request" `Quick
            test_exec_replace_while_parked;
          Alcotest.test_case "bindings per platform" `Quick
            test_exec_bindings_per_platform;
        ] );
      ( "orchestrator",
        [
          Alcotest.test_case "dynamic decommissions" `Quick
            test_dynamic_orchestrator_decommissions;
          Alcotest.test_case "partition LQ/CQ" `Quick test_orchestrator_partition_pure;
          QCheck_alcotest.to_alcotest prop_orchestrator_assigns_all;
        ] );
    ]
