(* Tests for the extension features: tunable consistency, ARC cache,
   LabMod repos with trust levels, Runtime configuration files, LabFS
   provenance. *)

open Lab_sim
open Lab_core
open Lab_mods

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let mk_req m ?(thread = 0) payload =
  Request.make ~id:1 ~pid:1 ~uid:0 ~thread ~stack_id:1 ~now:(Machine.now m) payload

let drive m ?(forward = fun _ -> Request.Done) (labmod : Labmod.t) req =
  let ctx =
    {
      Labmod.machine = m;
      thread = req.Request.thread;
      forward;
      forward_async = (fun r k -> k (forward r));
    }
  in
  labmod.Labmod.ops.Labmod.operate labmod ctx req

let block_write ?(lba = 0) ?(sync = false) bytes =
  Request.Block
    { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = sync }

let block_read ?(lba = 0) bytes =
  Request.Block
    { Request.b_kind = Request.Read; b_lba = lba; b_bytes = bytes; b_sync = false }

(* ------------------------------------------------------------------ *)
(* Consistency LabMod                                                  *)
(* ------------------------------------------------------------------ *)

let test_consistency_durable_tags_writes () =
  in_sim (fun m ->
      let cons =
        Consistency_mod.factory ~uuid:"c"
          ~attrs:[ ("mode", Yamlite.Str "durable") ]
      in
      let saw_sync = ref false in
      let forward r =
        (match r.Request.payload with
        | Request.Block { b_sync; _ } -> saw_sync := b_sync
        | _ -> ());
        Request.Done
      in
      ignore (drive m ~forward cons (mk_req m (block_write 4096)));
      Alcotest.(check bool) "durable write tagged FUA" true !saw_sync;
      Alcotest.(check int) "write counted" 1 (Consistency_mod.writes_seen cons))

let test_consistency_relaxed_passthrough () =
  in_sim (fun m ->
      let cons = Consistency_mod.factory ~uuid:"c" ~attrs:[] in
      Alcotest.(check (option string)) "default mode" (Some "relaxed")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons));
      let saw_sync = ref true in
      let forward r =
        (match r.Request.payload with
        | Request.Block { b_sync; _ } -> saw_sync := b_sync
        | _ -> ());
        Request.Done
      in
      ignore (drive m ~forward cons (mk_req m (block_write 4096)));
      Alcotest.(check bool) "relaxed leaves writes untouched" false !saw_sync)

let test_consistency_ordered_serializes () =
  in_sim (fun m ->
      let cons =
        Consistency_mod.factory ~uuid:"c" ~attrs:[ ("mode", Yamlite.Str "ordered") ]
      in
      let inside = ref 0 and peak = ref 0 in
      let forward _ =
        incr inside;
        if !inside > !peak then peak := !inside;
        Engine.wait 1000.0;
        decr inside;
        Request.Done
      in
      let all_done = Engine.join 4 in
      for i = 1 to 4 do
        Engine.spawn m.Machine.engine (fun () ->
            ignore (drive m ~forward cons (mk_req m ~thread:i (block_write 4096)));
            Engine.arrive all_done)
      done;
      Engine.await all_done;
      Alcotest.(check int) "one write downstream at a time" 1 !peak)

let test_consistency_live_mode_switch () =
  in_sim (fun m ->
      let cons = Consistency_mod.factory ~uuid:"c" ~attrs:[] in
      ignore (drive m cons (mk_req m (Request.Control 2)));
      Alcotest.(check (option string)) "switched to durable" (Some "durable")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons));
      ignore (drive m cons (mk_req m (Request.Control 0)));
      Alcotest.(check (option string)) "back to relaxed" (Some "relaxed")
        (Option.map Consistency_mod.mode_name (Consistency_mod.mode cons)))

(* ------------------------------------------------------------------ *)
(* ARC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_arc_basic_hit () =
  let a = Arc_cache.Arc.create ~capacity:4 in
  Alcotest.(check bool) "cold miss" false (Arc_cache.Arc.touch a 1);
  Alcotest.(check bool) "warm hit" true (Arc_cache.Arc.touch a 1);
  Alcotest.(check bool) "member" true (Arc_cache.Arc.mem a 1)

let test_arc_scan_resistance () =
  (* A hot set re-touched between one-shot scan pages should survive in
     ARC where plain LRU of the same size would evict it. *)
  let cap = 8 in
  let a = Arc_cache.Arc.create ~capacity:cap in
  let hot = [ 1; 2; 3; 4 ] in
  (* Establish frequency for the hot set. *)
  List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot;
  List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot;
  (* Long scan of cold pages interleaved with hot touches. *)
  for i = 100 to 160 do
    ignore (Arc_cache.Arc.touch a i);
    if i mod 4 = 0 then List.iter (fun k -> ignore (Arc_cache.Arc.touch a k)) hot
  done;
  let survivors = List.length (List.filter (Arc_cache.Arc.mem a) hot) in
  Alcotest.(check bool)
    (Printf.sprintf "%d/4 hot pages survive the scan" survivors)
    true (survivors >= 3)

let prop_arc_capacity_invariant =
  QCheck.Test.make ~name:"ARC: resident <= capacity, ghosts bounded, p in range"
    ~count:200
    QCheck.(pair (int_range 1 32) (list small_int))
    (fun (cap, keys) ->
      let a = Arc_cache.Arc.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Arc_cache.Arc.touch a k);
          Arc_cache.Arc.live_count a <= cap
          && Arc_cache.Arc.live_count a + Arc_cache.Arc.ghost_count a <= (2 * cap) + 1
          && Arc_cache.Arc.p a >= 0
          && Arc_cache.Arc.p a <= cap)
        keys)

let prop_arc_hit_iff_resident =
  QCheck.Test.make ~name:"ARC: touch reports hit exactly when resident" ~count:200
    QCheck.(list (int_range 0 20))
    (fun keys ->
      let a = Arc_cache.Arc.create ~capacity:8 in
      List.for_all
        (fun k ->
          let resident = Arc_cache.Arc.mem a k in
          Arc_cache.Arc.touch a k = resident)
        keys)

let test_arc_mod_interchangeable_with_lru () =
  (* Same attributes, same stack slot, same behaviour contract. *)
  in_sim (fun m ->
      let arc =
        Arc_cache.factory () ~uuid:"arc" ~attrs:[ ("capacity_mb", Yamlite.Int 1) ]
      in
      let downstream = ref 0 in
      let forward _ =
        incr downstream;
        Request.Done
      in
      ignore (drive m ~forward arc (mk_req m (block_write ~lba:7 4096)));
      Alcotest.(check int) "write absorbed" 0 !downstream;
      let r = drive m ~forward arc (mk_req m (block_read ~lba:7 4096)) in
      Alcotest.(check bool) "read hit" true (r = Request.Size 4096);
      Alcotest.(check int) "hits" 1 (Arc_cache.hits arc);
      ignore (drive m ~forward arc (mk_req m (block_read ~lba:4242 4096)));
      Alcotest.(check int) "miss forwarded" 1 !downstream;
      (* FUA passthrough, like the LRU mod. *)
      ignore (drive m ~forward arc (mk_req m (block_write ~sync:true 4096)));
      Alcotest.(check int) "sync write bypasses" 2 !downstream)

(* ------------------------------------------------------------------ *)
(* Repos & trust                                                       *)
(* ------------------------------------------------------------------ *)

let noop_factory : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name:"thirdparty" ~uuid ~mod_type:Labmod.Control
    {
      Labmod.operate = (fun _ _ _ -> Request.Done);
      est_processing_time = Labmod.default_est;
      state_update = (fun s -> s);
      state_repair = (fun _ -> ());
    }

let test_repo_trust_assignment () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 () in
  (match Repo.mount_repo repos reg ~name:"official" ~owner_uid:0 ~mods:[ ("off_mod", noop_factory) ] with
  | Ok Repo.Trusted -> ()
  | _ -> Alcotest.fail "runtime-owned repo should be trusted");
  (match Repo.mount_repo repos reg ~name:"community" ~owner_uid:1000 ~mods:[ ("com_mod", noop_factory) ] with
  | Ok Repo.Untrusted -> ()
  | _ -> Alcotest.fail "user repo should be untrusted");
  Alcotest.(check bool) "factories installed" true
    (Registry.find_factory reg "off_mod" <> None
    && Registry.find_factory reg "com_mod" <> None);
  Alcotest.(check bool) "builtin mods trusted" true
    (Repo.trust_of_mod repos "not_from_any_repo" = Repo.Trusted)

let test_repo_quota_and_collisions () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 ~max_repos_per_user:2 () in
  let mount i mods =
    Repo.mount_repo repos reg ~name:(Printf.sprintf "r%d" i) ~owner_uid:5 ~mods
  in
  (match mount 1 [ ("m1", noop_factory) ] with Ok _ -> () | Error e -> Alcotest.fail e);
  (match mount 2 [ ("m2", noop_factory) ] with Ok _ -> () | Error e -> Alcotest.fail e);
  (match mount 3 [ ("m3", noop_factory) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "quota should reject the third repo");
  (* Name collision with an installed implementation. *)
  let repos2 = Repo.create ~runtime_uid:0 () in
  (match
     Repo.mount_repo repos2 reg ~name:"dup" ~owner_uid:0 ~mods:[ ("m1", noop_factory) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "collision should be rejected");
  (* Unmount removes the factories. *)
  (match Repo.unmount_repo repos reg ~name:"r1" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "factory gone" true (Registry.find_factory reg "m1" = None)

let test_repo_untrusted_stack_rejected () =
  let reg = Registry.create () in
  let repos = Repo.create ~runtime_uid:0 () in
  ignore
    (Repo.mount_repo repos reg ~name:"community" ~owner_uid:1000
       ~mods:[ ("com_mod", noop_factory) ]);
  let spec exec =
    Result.get_ok
      (Stack_spec.parse
         (Printf.sprintf
            "mount: \"x::/m\"\nrules:\n  exec_mode: %s\ndag:\n  - uuid: v1\n    mod: com_mod"
            exec))
  in
  (match Repo.validate_stack_trust repos (spec "async") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "untrusted mod must not run inside the Runtime");
  match Repo.validate_stack_trust repos (spec "sync") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_runtime_mount_enforces_trust () =
  in_sim (fun m ->
      let nvme = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let backend = Lab_mods.Mods_env.backend_of_device m nvme in
      let rt =
        Lab_runtime.Runtime.create m ~backends:[ ("nvme", backend) ]
          ~default_backend:"nvme" ()
      in
      (match
         Lab_runtime.Runtime.mount_repo rt ~name:"third" ~owner_uid:1000
           ~mods:[ ("sketchy", noop_factory) ]
       with
      | Ok Repo.Untrusted -> ()
      | _ -> Alcotest.fail "expected untrusted mount");
      let spec exec =
        Printf.sprintf
          "mount: \"x::/m\"\nrules:\n  exec_mode: %s\ndag:\n  - uuid: v1\n    mod: sketchy"
          exec
      in
      (match Lab_runtime.Runtime.mount_text rt (spec "async") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "async untrusted stack must be rejected");
      match Lab_runtime.Runtime.mount_text rt (spec "sync") with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Runtime configuration files                                         *)
(* ------------------------------------------------------------------ *)

let test_run_config_defaults () =
  match Lab_runtime.Run_config.parse "" with
  | Ok c ->
      Alcotest.(check int) "default workers"
        Lab_runtime.Runtime.default_config.Lab_runtime.Runtime.nworkers
        c.Lab_runtime.Runtime.nworkers
  | Error e -> Alcotest.fail e

let test_run_config_full () =
  let doc =
    {|
workers: 12
busy_poll: true
profile_period_us: 500
policy:
  kind: dynamic
  max_workers: 10
  threshold: 0.3
  lq_cutoff_us: 250
|}
  in
  match Lab_runtime.Run_config.parse doc with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check int) "workers" 12 c.Lab_runtime.Runtime.nworkers;
      Alcotest.(check bool) "busy poll" true c.Lab_runtime.Runtime.workers_busy_poll;
      Alcotest.(check (float 1e-9)) "profile period" 5e5
        c.Lab_runtime.Runtime.profile_period_ns;
      (match c.Lab_runtime.Runtime.policy with
      | Lab_runtime.Orchestrator.Dynamic { max_workers; threshold; lq_cutoff_ns } ->
          Alcotest.(check int) "max workers" 10 max_workers;
          Alcotest.(check (float 1e-9)) "threshold" 0.3 threshold;
          Alcotest.(check (float 1e-9)) "cutoff" 250_000.0 lq_cutoff_ns
      | _ -> Alcotest.fail "expected dynamic policy")

let test_run_config_rejects_bad () =
  (match Lab_runtime.Run_config.parse "workers: 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero workers should be rejected");
  match Lab_runtime.Run_config.parse "policy:\n  kind: quantum" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy should be rejected"

(* Field-by-field equality of two configs. The record pattern names
   every field, so adding a field to [Runtime.config] fails to compile
   here until the field is compared. *)
let config_fields (a : Lab_runtime.Runtime.config)
    (b : Lab_runtime.Runtime.config) =
  let {
    Lab_runtime.Runtime.nworkers;
    policy;
    worker_core_base;
    workers_busy_poll;
    worker_batch_size;
    worker_max_inflight;
    trace_sample;
    trace_path;
    metrics_path;
    exemplar_k;
    exemplar_tail_us;
    exemplar_path;
    blackbox_cap;
    blackbox_path;
    profile_period_ns;
    profile_path;
    lvm_rebuild_rate_mbps;
    slo_p99_target_us;
    slo_floor_kops;
  } =
    a
  in
  [
    ("nworkers", nworkers = b.nworkers);
    ("policy", policy = b.policy);
    ("worker_core_base", worker_core_base = b.worker_core_base);
    ("workers_busy_poll", workers_busy_poll = b.workers_busy_poll);
    ("worker_batch_size", worker_batch_size = b.worker_batch_size);
    ("worker_max_inflight", worker_max_inflight = b.worker_max_inflight);
    ("trace_sample", trace_sample = b.trace_sample);
    ("trace_path", trace_path = b.trace_path);
    ("metrics_path", metrics_path = b.metrics_path);
    ("exemplar_k", exemplar_k = b.exemplar_k);
    ("exemplar_tail_us", exemplar_tail_us = b.exemplar_tail_us);
    ("exemplar_path", exemplar_path = b.exemplar_path);
    ("blackbox_cap", blackbox_cap = b.blackbox_cap);
    ("blackbox_path", blackbox_path = b.blackbox_path);
    ("profile_period_ns", profile_period_ns = b.profile_period_ns);
    ("profile_path", profile_path = b.profile_path);
    ("lvm_rebuild_rate_mbps", lvm_rebuild_rate_mbps = b.lvm_rebuild_rate_mbps);
    ("slo_p99_target_us", slo_p99_target_us = b.slo_p99_target_us);
    ("slo_floor_kops", slo_floor_kops = b.slo_floor_kops);
  ]

(* Every key set to a non-default value. [worker_core_base] has no key:
   boot derives it from the machine shape. *)
let every_key_doc =
  {|
workers: 6
busy_poll: true
worker_batch_size: 4
worker_max_inflight: 8
trace_sample: 10
trace_path: out/t.json
metrics_path: out/m.jsonl
exemplar_k: 4
exemplar_tail_us: 25
exemplar_path: out/e.json
blackbox_cap: 128
blackbox_path: out/b.json
profile_period_us: 20
profile_path: out/p.json
lvm_rebuild_rate_mbps: 200
slo_p99_target_us: 40
slo_floor_kops: 100
policy:
  kind: dynamic
  max_workers: 6
  threshold: 0.3
  lq_cutoff_us: 250
|}

let every_key_config () =
  match Lab_runtime.Run_config.parse every_key_doc with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let names fields = String.concat ", " (List.map fst fields)

let test_run_config_every_key () =
  let c = every_key_config () in
  let same =
    List.filter
      (fun (name, same) -> same && name <> "worker_core_base")
      (config_fields c Lab_runtime.Runtime.default_config)
  in
  if same <> [] then Alcotest.failf "fields left at their default: %s" (names same)

let test_run_config_rejects_unknown () =
  let rejects label doc needle =
    match Lab_runtime.Run_config.parse doc with
    | Ok _ -> Alcotest.failf "%s: accepted %S" label doc
    | Error e ->
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        if not (contains e needle) then
          Alcotest.failf "%s: error %S does not name %S" label e needle
  in
  rejects "misspelt key" "trace_sampel: 5" "trace_sampel";
  List.iter
    (fun doc ->
      rejects "deleted key" doc (String.sub doc 0 (String.index doc ':')))
    [
      "load_rate_kops: 50";
      "admin_period_us: 1000";
      "worker_spin_us: 5";
      "qos_quantum_kb: 64";
      "qos_window_kb: 128";
      "qos_bypass_kb: 16";
      "tenant_weight: 1";
      "tenant_rate_mbps: 0";
      "tenant_burst_kb: 256";
      "tenant_qcap: 64";
      "slo_name: client";
      "slo_error_budget: 0.01";
      "slo_window_ms: 1";
    ];
  rejects "derived field" "worker_core_base: 3" "worker_core_base";
  rejects "policy key" "policy:\n  kind: dynamic\n  max_worker: 4" "max_worker";
  rejects "key of another kind" "policy:\n  kind: round_robin\n  max_workers: 8"
    "max_workers";
  rejects "workers under dynamic" "policy:\n  kind: dynamic\n  workers: 3" "workers";
  rejects "cutoff without a kind" "policy:\n  lq_cutoff_us: 250" "lq_cutoff_us";
  rejects "int as word" "workers: eight" "workers";
  rejects "int as bool" "busy_poll: 3" "busy_poll";
  rejects "path as int" "trace_path: 7" "trace_path";
  rejects "key given twice" "workers: 2\nworkers: 0" "workers";
  rejects "policy key given twice" "policy:\n  kind: static\n  kind: dynamic" "kind";
  rejects "policy not a map" "policy: dynamic" "policy"

(* Boot keeps every field of the config it is given; only the worker
   cores are derived from the machine shape. *)
let test_boot_keeps_config () =
  let c = every_key_config () in
  let p = Labstor.Platform.boot ~config:c () in
  let got = Lab_runtime.Runtime.config (Labstor.Platform.runtime p) in
  let differ =
    List.filter
      (fun (name, same) -> (not same) && name <> "worker_core_base")
      (config_fields got c)
  in
  if differ <> [] then Alcotest.failf "boot changed: %s" (names differ);
  Alcotest.(check int) "workers on the top cores" (24 - 6)
    got.Lab_runtime.Runtime.worker_core_base

(* ------------------------------------------------------------------ *)
(* Mod harness (debugging mode)                                        *)
(* ------------------------------------------------------------------ *)

let test_harness_runs_mod_in_isolation () =
  let h =
    Lab_runtime.Mod_harness.create (fun _m -> Compress_mod.factory)
  in
  let result, elapsed =
    Lab_runtime.Mod_harness.run h (block_write (1 lsl 20))
  in
  Alcotest.(check bool) "completed" true (Request.is_ok result);
  (* ~0.625 ns/B over 1 MiB: the harness observes the charged time. *)
  Alcotest.(check bool)
    (Printf.sprintf "compression cpu measured (%.0f ns)" elapsed)
    true
    (elapsed > 5e5 && elapsed < 1e6);
  match Lab_runtime.Mod_harness.forwarded h with
  | [ fwd ] ->
      Alcotest.(check int) "halved downstream" (1 lsl 19) (Request.bytes_of fwd)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 forward, got %d" (List.length l))

let test_harness_scripted_downstream () =
  (* Script the downstream to fail and watch the module surface it. *)
  let h =
    Lab_runtime.Mod_harness.create
      ~downstream:(fun _ -> Request.Failed "injected fault")
      (fun _m -> Noop_sched.factory ~nqueues:4)
  in
  let result, _ = Lab_runtime.Mod_harness.run h (block_write 4096) in
  (match result with
  | Request.Failed "injected fault" -> ()
  | r -> Alcotest.fail (Fmt.str "fault not propagated: %a" Request.pp_result r));
  Lab_runtime.Mod_harness.clear_forwarded h;
  Alcotest.(check int) "log cleared" 0
    (List.length (Lab_runtime.Mod_harness.forwarded h))

let test_harness_driver_with_device () =
  let h =
    Lab_runtime.Mod_harness.create (fun m ->
        let dev =
          Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme
        in
        let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
        Kernel_driver.factory ~blk)
  in
  let result, elapsed = Lab_runtime.Mod_harness.run h (block_write 4096) in
  Alcotest.(check bool) "driver completed" true (result = Request.Size 4096);
  Alcotest.(check bool) "device time observed" true (elapsed > 8000.0)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_labfs_provenance () =
  in_sim (fun m ->
      let fs = Labfs.factory ~total_blocks:100000 ~nworkers:2 () ~uuid:"fs" ~attrs:[] in
      let forward _ = Request.Done in
      let exec payload = ignore (drive m ~forward fs (mk_req m (Request.Posix payload))) in
      exec (Request.Create { path = "/a" });
      exec (Request.Pwrite { fd = 3; path = "/a"; off = 0; bytes = 8192 });
      exec (Request.Rename { src = "/a"; dst = "/b" });
      exec (Request.Pwrite { fd = 3; path = "/b"; off = 8192; bytes = 4096 });
      (* Unrelated traffic must not appear in /b's history. *)
      exec (Request.Create { path = "/noise" });
      exec (Request.Pwrite { fd = 4; path = "/noise"; off = 0; bytes = 4096 });
      let history = Labfs.provenance fs "/b" in
      Alcotest.(check int) "create + 2 writes + rename" 4 (List.length history);
      (match history with
      | Labfs.Rec_create { path = "/a"; _ } :: _ -> ()
      | _ -> Alcotest.fail "history must start at the original create");
      Alcotest.(check bool) "rename recorded" true
        (List.exists
           (function Labfs.Rec_rename { dst = "/b"; _ } -> true | _ -> false)
           history);
      Alcotest.(check (list int)) "no history for missing files" []
        (List.map (fun _ -> 0) (Labfs.provenance fs "/ghost")))

let () =
  Alcotest.run "lab_extensions"
    [
      ( "consistency",
        [
          Alcotest.test_case "durable tags FUA" `Quick test_consistency_durable_tags_writes;
          Alcotest.test_case "relaxed passthrough" `Quick
            test_consistency_relaxed_passthrough;
          Alcotest.test_case "ordered serializes" `Quick
            test_consistency_ordered_serializes;
          Alcotest.test_case "live mode switch" `Quick test_consistency_live_mode_switch;
        ] );
      ( "arc",
        [
          Alcotest.test_case "basic hit" `Quick test_arc_basic_hit;
          Alcotest.test_case "scan resistance" `Quick test_arc_scan_resistance;
          Alcotest.test_case "interchangeable with lru" `Quick
            test_arc_mod_interchangeable_with_lru;
          QCheck_alcotest.to_alcotest prop_arc_capacity_invariant;
          QCheck_alcotest.to_alcotest prop_arc_hit_iff_resident;
        ] );
      ( "repos",
        [
          Alcotest.test_case "trust assignment" `Quick test_repo_trust_assignment;
          Alcotest.test_case "quota & collisions" `Quick test_repo_quota_and_collisions;
          Alcotest.test_case "untrusted stack rejected" `Quick
            test_repo_untrusted_stack_rejected;
          Alcotest.test_case "runtime enforces trust" `Quick
            test_runtime_mount_enforces_trust;
        ] );
      ( "run-config",
        [
          Alcotest.test_case "defaults" `Quick test_run_config_defaults;
          Alcotest.test_case "full document" `Quick test_run_config_full;
          Alcotest.test_case "rejects bad" `Quick test_run_config_rejects_bad;
          Alcotest.test_case "every key" `Quick test_run_config_every_key;
          Alcotest.test_case "rejects unknown" `Quick
            test_run_config_rejects_unknown;
          Alcotest.test_case "boot keeps config" `Quick test_boot_keeps_config;
        ] );
      ( "mod-harness",
        [
          Alcotest.test_case "isolated run" `Quick test_harness_runs_mod_in_isolation;
          Alcotest.test_case "scripted downstream" `Quick
            test_harness_scripted_downstream;
          Alcotest.test_case "driver with device" `Quick
            test_harness_driver_with_device;
        ] );
      ( "provenance",
        [ Alcotest.test_case "file history" `Quick test_labfs_provenance ] );
    ]
