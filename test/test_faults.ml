(* Robustness tests: deterministic fault plans, the device error path,
   client retry/requeue/deadline policy, and LabFS journal-commit
   aborts. *)

open Lab_sim
open Labstor
open Lab_device

let in_sim f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Determinism: equal seeds + equal submission sequences give          *)
(* byte-identical traces.                                              *)
(* ------------------------------------------------------------------ *)

let busy_rates =
  { Fault.io_error = 0.3; timeout = 0.2; timeout_delay_ns = 1e5; torn_write = 0.3 }

let drive_plan plan =
  for i = 0 to 199 do
    ignore
      (Fault.decide plan
         ~now:(Stdlib.float_of_int (i * 1000))
         ~queue:(i mod 4) ~is_write:(i mod 3 <> 0) ~bytes:4096)
  done;
  Fault.trace_to_string plan

let test_trace_determinism () =
  let mk () = Fault.create ~rates:busy_rates ~seed:0xABCD () in
  let a = drive_plan (mk ()) and b = drive_plan (mk ()) in
  Alcotest.(check bool) "trace nonempty" true (String.length a > 0);
  Alcotest.(check string) "identical seeds, identical traces" a b;
  let c = drive_plan (Fault.create ~rates:busy_rates ~seed:0xDCBA ()) in
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Torn writes never persist more bytes than requested.                *)
(* ------------------------------------------------------------------ *)

let test_torn_write_bound () =
  (* torn rate 1.0: every write chunk is torn, including each chunk of
     a multi-command (> 256 KiB) operation. *)
  let sizes = [ 1; 512; 4096; 65536; 262144; 300_000; 600_000 ] in
  List.iter
    (fun bytes ->
      in_sim (fun e ->
          let dev = Device.create e Profile.nvme in
          Device.set_fault_plan dev
            (Fault.create
               ~rates:{ Fault.no_rates with Fault.torn_write = 1.0 }
               ~seed:(7 + bytes) ());
          (match Device.submit_wait_result dev ~hctx:0 ~kind:Write ~lba:0 ~bytes with
          | Error (Device.E_torn n) ->
              Alcotest.(check bool)
                (Printf.sprintf "torn %d/%d in bounds" n bytes)
                true
                (n >= 0 && n < bytes)
          | Ok _ -> Alcotest.fail "write with torn rate 1.0 reported Ok"
          | Error e -> Alcotest.fail ("unexpected error " ^ Device.error_to_string e));
          Alcotest.(check bool) "accounted bytes_written < requested" true
            (Device.bytes_written dev < bytes);
          (* Reads are never torn. *)
          match Device.submit_wait_result dev ~hctx:0 ~kind:Read ~lba:0 ~bytes with
          | Ok c -> Alcotest.(check int) "read intact" bytes c.Device.c_bytes
          | Error e -> Alcotest.fail ("read failed: " ^ Device.error_to_string e)))
    sizes

(* ------------------------------------------------------------------ *)
(* End-to-end platform scenarios.                                      *)
(* ------------------------------------------------------------------ *)

let blk_spec =
  {|
mount: "blk::/dev/t"
rules:
  exec_mode: async
dag:
  - uuid: sched-1
    mod: noop_sched
    outputs: [drv-1]
  - uuid: drv-1
    mod: kernel_driver
|}

let fs_spec =
  {|
mount: "fs::/data"
rules:
  exec_mode: async
dag:
  - uuid: fs-1
    mod: labfs
    outputs: [sched-1]
  - uuid: sched-1
    mod: noop_sched
    outputs: [drv-1]
  - uuid: drv-1
    mod: kernel_driver
|}

let test_retry_masks_one_shot_error () =
  let platform =
    Platform.boot ~nworkers:2
      ~fault_script:[ Fault.One_shot { at_ns = 0.0; queue = None; fault = Fault.Io_error } ]
      ()
  in
  (match Platform.mount platform blk_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      (match Runtime.Client.write_block c ~mount:"blk::/dev/t" ~lba:0 ~bytes:4096 with
      | Ok n -> Alcotest.(check int) "write succeeded after retry" 4096 n
      | Error e -> Alcotest.fail ("write not retried: " ^ e));
      Alcotest.(check int) "exactly one retry" 1 (Runtime.Client.retries c);
      Alcotest.(check int) "nothing exhausted" 0 (Runtime.Client.exhausted_retries c))

let test_offline_window_requeues () =
  (* Queue 0 is offline for the first millisecond; a thread-0 client is
     steered there by noop_sched, so its first write must be requeued
     to a surviving queue. *)
  let platform =
    Platform.boot ~nworkers:2
      ~fault_script:
        [ Fault.Offline { from_ns = 0.0; until_ns = 1e6; queue = Some 0 } ]
      ()
  in
  (match Platform.mount platform blk_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      (match Runtime.Client.write_block c ~mount:"blk::/dev/t" ~lba:0 ~bytes:4096 with
      | Ok n -> Alcotest.(check int) "write survived offline queue" 4096 n
      | Error e -> Alcotest.fail ("degraded routing failed: " ^ e));
      Alcotest.(check bool) "requeued at least once" true
        (Runtime.Client.requeues c >= 1);
      let plan = Option.get (Platform.fault_plan platform Profile.Nvme) in
      Alcotest.(check bool) "offline rejection recorded" true
        (List.assoc "offline_reject" (Fault.injected plan) >= 1))

let test_offline_fails_inflight_with_enodev () =
  (* Regression: the whole device goes offline mid-run with commands
     queued and in service. Every one of them must complete — queued
     commands are drained, in-service ones fail at completion time —
     with the offline errno (ENODEV), never hang. *)
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      Device.set_fault_plan dev
        (Fault.create
           ~script:
             [ Fault.Offline { from_ns = 1e5; until_ns = Float.infinity; queue = None } ]
           ~seed:42 ());
      let ok = ref 0 and enodev = ref 0 and other = ref 0 in
      let submit ~bytes i =
        Device.submit_result dev ~hctx:0 ~kind:Device.Write ~lba:(i * 4096)
          ~bytes ~on_complete:(function
          | Ok _ -> incr ok
          | Error Device.E_offline -> incr enodev
          | Error _ -> incr other)
      in
      (* These 8 small writes finish long before the 100 us loss. *)
      for i = 0 to 7 do
        submit ~bytes:4096 i
      done;
      Engine.wait 9e4;
      (* 90 us in: submitted before the loss, but a 256 KiB transfer
         cannot finish within the remaining 10 us — every one of these
         is queued or in service when the device drops. *)
      let n = 8 + 32 in
      for i = 8 to n - 1 do
        submit ~bytes:262144 i
      done;
      (* Long enough for every surviving transfer to drain through the
         bandwidth arbiter (32 x 256 KiB at ~2 GB/s ~ 4.2 ms). *)
      Engine.wait 1e7;
      Alcotest.(check int) "every in-flight command completed (no hang)" n
        (!ok + !enodev + !other);
      Alcotest.(check int) "no other error kind surfaced" 0 !other;
      Alcotest.(check bool) "some commands finished before the loss" true (!ok >= 1);
      Alcotest.(check bool) "queued + in-service commands failed over" true
        (!enodev >= 1);
      Alcotest.(check int) "nothing left outstanding" 0 (Device.outstanding dev);
      Alcotest.(check string) "offline carries the fail-over errno" "ENODEV"
        (Device.error_to_string Device.E_offline))

let test_offline_health_events () =
  (* A bounded whole-device window notifies watchers at both edges,
     with the loss event carrying the scripted return time. *)
  in_sim (fun e ->
      let dev = Device.create ~name:"legB" e Profile.nvme in
      Alcotest.(check string) "device identity" "legB" (Device.name dev);
      let events = ref [] in
      Device.add_health_watcher dev (fun ev -> events := ev :: !events);
      Device.set_fault_plan dev
        (Fault.create
           ~script:[ Fault.Offline { from_ns = 1e4; until_ns = 2e4; queue = None } ]
           ~seed:1 ());
      Engine.wait 1e5;
      match List.rev !events with
      | [ Device.Went_offline { until_ns }; Device.Came_online ] ->
          Alcotest.(check (float 1.0)) "loss event carries return time" 2e4 until_ns
      | evs ->
          Alcotest.fail
            (Printf.sprintf "expected loss + return, saw %d events"
               (List.length evs)))

let test_deadline_miss_on_lost_command () =
  let platform =
    Platform.boot ~nworkers:2
      ~fault_script:
        [
          Fault.One_shot
            { at_ns = 0.0; queue = None; fault = Fault.Transient_timeout infinity };
        ]
      ()
  in
  (match Platform.mount platform blk_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  Platform.go platform (fun () ->
      let policy =
        {
          Runtime.Client.default_retry_policy with
          Runtime.Client.max_retries = 0;
          deadline_ns = 2e6;
        }
      in
      let c = Platform.client platform ~retry_policy:policy ~thread:0 () in
      (match Runtime.Client.write_block c ~mount:"blk::/dev/t" ~lba:0 ~bytes:4096 with
      | Ok _ -> Alcotest.fail "lost command reported Ok"
      | Error msg ->
          Alcotest.(check bool)
            ("deadline surfaced as ETIMEDOUT: " ^ msg)
            true
            (String.length msg >= 9 && String.sub msg 0 9 = "ETIMEDOUT"));
      Alcotest.(check int) "one deadline miss" 1 (Runtime.Client.deadline_misses c);
      (* The client is not wedged: later requests still work. *)
      match Runtime.Client.write_block c ~mount:"blk::/dev/t" ~lba:8 ~bytes:4096 with
      | Ok n -> Alcotest.(check int) "client usable after miss" 4096 n
      | Error e -> Alcotest.fail ("client wedged after deadline miss: " ^ e))

let test_labfs_journal_abort_and_replay () =
  (* The first device command is the fsync's journal flush (creates
     stay in the in-memory log below the group-commit threshold); it
     fails, so the commit must be aborted: the records dropped, the
     inode table rebuilt from the surviving log. *)
  let platform =
    Platform.boot ~nworkers:2
      ~fault_script:[ Fault.One_shot { at_ns = 0.0; queue = None; fault = Fault.Io_error } ]
      ()
  in
  (match Platform.mount platform fs_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  let rt = Platform.runtime platform in
  let fs () = Option.get (Core.Registry.find (Runtime.Runtime.registry rt) "fs-1") in
  Platform.go platform (fun () ->
      let policy =
        { Runtime.Client.default_retry_policy with Runtime.Client.max_retries = 0 }
      in
      let c = Platform.client platform ~retry_policy:policy ~thread:0 () in
      List.iter
        (fun p ->
          match Runtime.Client.create c ("fs::/data/" ^ p) with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("create: " ^ e))
        [ "a"; "b"; "c" ];
      Alcotest.(check int) "3 files before failed commit" 3
        (Mods.Labfs.file_count (fs ()));
      let fd = Result.get_ok (Runtime.Client.open_file c "fs::/data/a") in
      (match Runtime.Client.fsync c ~fd with
      | Ok () -> Alcotest.fail "fsync should fail (injected journal fault)"
      | Error msg ->
          Alcotest.(check bool) ("errno-tagged: " ^ msg) true
            (String.length msg >= 3 && String.sub msg 0 3 = "EIO"));
      Alcotest.(check int) "commit aborted: no files survive" 0
        (Mods.Labfs.file_count (fs ()));
      Alcotest.(check int) "one commit failure" 1
        (Mods.Labfs.commit_failures (fs ()));
      (* Subsequent commits succeed and recovery agrees with the log. *)
      List.iter
        (fun p -> ignore (Runtime.Client.create c ("fs::/data/" ^ p)))
        [ "d"; "e" ];
      let fd2 = Result.get_ok (Runtime.Client.open_file c "fs::/data/d") in
      (match Runtime.Client.fsync c ~fd:fd2 with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("clean fsync failed: " ^ e));
      Alcotest.(check int) "2 files after clean commit" 2
        (Mods.Labfs.file_count (fs ()));
      let m = fs () in
      m.Core.Labmod.ops.Core.Labmod.state_repair m;
      Alcotest.(check int) "replay preserves the 2 committed files" 2
        (Mods.Labfs.file_count (fs ()));
      Alcotest.(check bool) "committed file resolvable after replay" true
        (Mods.Labfs.lookup (fs ()) "fs::/data/d" <> None))

(* ------------------------------------------------------------------ *)
(* Adjacent-LBA merging: batched contiguous writes fuse into one       *)
(* device op, yet every original request completes individually.       *)
(* ------------------------------------------------------------------ *)

let merge_spec =
  {|
mount: "blk::/dev/m"
rules:
  exec_mode: async
dag:
  - uuid: sched-m
    mod: blkswitch_sched
    attrs:
      merge_window_ns: 5000.0
    outputs: [drv-m]
  - uuid: drv-m
    mod: kernel_driver
|}

let batch_writes ~lba0 n =
  List.init n (fun i ->
      {
        Runtime.Client.op_kind = Core.Request.Write;
        op_lba = lba0 + (i * 8);
        op_bytes = 4096;
      })

let test_merge_completes_individually () =
  let platform =
    Platform.boot ~nworkers:2
      ~config:{ Runtime.Runtime.default_config with worker_batch_size = 4 }
      ()
  in
  (match Platform.mount platform merge_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  let rt = Platform.runtime platform in
  let sched () =
    Option.get (Core.Registry.find (Runtime.Runtime.registry rt) "sched-m")
  in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      match
        Runtime.Client.block_batch c ~mount:"blk::/dev/m" (batch_writes ~lba0:0 4)
      with
      | Error e -> Alcotest.fail ("batch rejected: " ^ e)
      | Ok results ->
          Alcotest.(check int) "four individual completions" 4
            (List.length results);
          List.iteri
            (fun i r ->
              match r with
              | Ok n ->
                  Alcotest.(check int)
                    (Printf.sprintf "result %d credits own bytes" i)
                    4096 n
              | Error e -> Alcotest.fail (Printf.sprintf "result %d: %s" i e))
            results);
  let dev = Platform.device platform Profile.Nvme in
  Alcotest.(check int) "one merged device write" 1 (Device.completed_writes dev);
  Alcotest.(check int) "all 16 KiB hit the device" 16384
    (Device.bytes_written dev);
  Alcotest.(check int) "one merged op dispatched" 1
    (Mods.Blkswitch_sched.merged_ops (sched ()));
  Alcotest.(check int) "three followers absorbed" 3
    (Mods.Blkswitch_sched.absorbed_reqs (sched ()))

let test_merge_torn_chunk_splits_errors () =
  (* The merged 8 KiB write is the first device command; the one-shot
     torn fault clamps persistence to the first 4096 bytes. The member
     inside the persisted prefix succeeds, the one beyond it gets the
     torn failure — errors cover only the originals they hit. *)
  let platform =
    Platform.boot ~nworkers:2
      ~config:{ Runtime.Runtime.default_config with worker_batch_size = 2 }
      ~fault_script:
        [ Fault.One_shot { at_ns = 0.0; queue = None; fault = Fault.Torn_write 4096 } ]
      ()
  in
  (match Platform.mount platform merge_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  Platform.go platform (fun () ->
      let policy =
        { Runtime.Client.default_retry_policy with Runtime.Client.max_retries = 0 }
      in
      let c = Platform.client platform ~retry_policy:policy ~thread:0 () in
      match
        Runtime.Client.block_batch c ~mount:"blk::/dev/m" (batch_writes ~lba0:0 2)
      with
      | Error e -> Alcotest.fail ("batch rejected: " ^ e)
      | Ok [ first; second ] ->
          (match first with
          | Ok n -> Alcotest.(check int) "persisted member succeeds" 4096 n
          | Error e -> Alcotest.fail ("member inside persisted prefix failed: " ^ e));
          (match second with
          | Ok _ -> Alcotest.fail "member beyond the tear reported Ok"
          | Error msg ->
              Alcotest.(check bool) ("torn member fails with ETORN: " ^ msg) true
                (String.length msg >= 5 && String.sub msg 0 5 = "ETORN"))
      | Ok results ->
          Alcotest.fail
            (Printf.sprintf "expected 2 results, got %d" (List.length results)));
  let dev = Platform.device platform Profile.Nvme in
  Alcotest.(check int) "single merged command carried the fault" 1
    (Device.completed_errors dev)

let () =
  Alcotest.run "lab_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
          Alcotest.test_case "torn write bound" `Quick test_torn_write_bound;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "retry masks one-shot EIO" `Quick
            test_retry_masks_one_shot_error;
          Alcotest.test_case "offline window requeues" `Quick
            test_offline_window_requeues;
          Alcotest.test_case "offline fails in-flight I/O with ENODEV" `Quick
            test_offline_fails_inflight_with_enodev;
          Alcotest.test_case "offline window fires health events" `Quick
            test_offline_health_events;
          Alcotest.test_case "deadline miss on lost command" `Quick
            test_deadline_miss_on_lost_command;
          Alcotest.test_case "labfs journal abort + replay" `Quick
            test_labfs_journal_abort_and_replay;
        ] );
      ( "merging",
        [
          Alcotest.test_case "merged batch completes individually" `Quick
            test_merge_completes_individually;
          Alcotest.test_case "torn chunk fails only covered originals" `Quick
            test_merge_torn_chunk_splits_errors;
        ] );
    ]
