(* Volume-manager tests.

   Pure part (QCheck over Lab_lvm.Meta): the redo journal's
   crash-consistency properties — replaying any prefix (a crash at any
   op boundary) yields a consistent volume group, recovering from that
   prefix and applying the suffix converges to the full replay, and
   replay is idempotent (each op may be applied twice). Journals are
   generated model-driven, the way lab_lvm itself writes them: only
   ops legal in the evolving volume group are emitted.

   Simulated part (Alcotest over the mounted LabMod): mirrored writes
   replicate to every leg, RAID0 stripes round-robin, a scripted leg
   loss degrades I/O onto the survivor and the returning leg is
   resilvered to rebuild_frac = 1.0, and state_repair rebuilds the
   in-memory volume group from the journal. *)

open Lab_sim
open Labstor
open Lab_mods
module M = Lab_lvm.Meta

(* ------------------------------------------------------------------ *)
(* Model-driven journal generator.                                     *)
(* ------------------------------------------------------------------ *)

let nlegs = 3

let extents_per_leg = 8

(* Interpret an abstract command script into a valid journal: walk the
   evolving vg and emit only ops lab_lvm could have logged in that
   state (Alloc of an unallocated extent onto free physical slots of
   live legs, Free of an allocated extent, leg transitions, ckpts). *)
let ops_of_script script =
  let vg = ref (M.create ~nlegs ~extents_per_leg) in
  let ops = ref [] in
  let emit op =
    vg := M.apply !vg op;
    ops := op :: !ops
  in
  let used_on leg =
    M.IMap.fold
      (fun _ placements acc ->
        List.fold_left
          (fun acc (l, p) -> if l = leg then p :: acc else acc)
          acc placements)
      !vg.M.lmap []
  in
  let free_pidx leg start =
    let used = used_on leg in
    let rec scan i n =
      if n = 0 then None
      else if not (List.mem (i mod extents_per_leg) used) then
        Some (i mod extents_per_leg)
      else scan (i + 1) (n - 1)
    in
    scan (start mod extents_per_leg) extents_per_leg
  in
  List.iter
    (fun (c, a, b) ->
      match c mod 5 with
      | 0 | 1 -> (
          let lidx = a mod extents_per_leg in
          match M.IMap.find_opt lidx !vg.M.lmap with
          | Some _ -> () (* already allocated *)
          | None ->
              let placements =
                List.filter_map
                  (fun leg ->
                    if M.leg_state !vg leg = M.Dead then None
                    else
                      Option.map (fun p -> (leg, p)) (free_pidx leg b))
                  (List.init nlegs Fun.id)
              in
              if placements <> [] then emit (M.Alloc { lidx; placements }))
      | 2 -> (
          match M.allocated !vg with
          | [] -> ()
          | allocs ->
              let lidx, _ = List.nth allocs (a mod List.length allocs) in
              emit (M.Free { lidx }))
      | 3 ->
          let state =
            match b mod 3 with 0 -> M.Healthy | 1 -> M.Dead | _ -> M.Rebuilding
          in
          emit (M.Leg_state { leg = a mod nlegs; state })
      | _ -> emit (M.Rebuild_ckpt { leg = a mod nlegs; copied = b }))
    script;
  List.rev !ops

let take k l = List.filteri (fun i _ -> i < k) l

let drop k l = List.filteri (fun i _ -> i >= k) l

let replay ops = M.replay ~nlegs ~extents_per_leg ops

(* A script plus a raw truncation point (taken mod len+1). *)
let scenario_arb =
  let open QCheck in
  let cmd = triple (int_range 0 99) small_nat small_nat in
  pair (list_of_size Gen.(int_range 0 60) cmd) small_nat

let print_scenario (script, k) =
  let ops = ops_of_script script in
  Printf.sprintf "k=%d of %d ops:\n%s"
    (k mod (List.length ops + 1))
    (List.length ops)
    (String.concat "\n" (List.map M.op_to_string ops))

let prop_prefix_consistent =
  QCheck.Test.make ~count:500
    ~name:"lvm meta: replay of any journal prefix is consistent"
    (QCheck.set_print print_scenario scenario_arb)
    (fun (script, kr) ->
      let ops = ops_of_script script in
      let k = kr mod (List.length ops + 1) in
      M.consistent (replay (take k ops)))

let prop_prefix_recovery_converges =
  QCheck.Test.make ~count:500
    ~name:"lvm meta: crash at any boundary + replay + suffix = full replay"
    (QCheck.set_print print_scenario scenario_arb)
    (fun (script, kr) ->
      let ops = ops_of_script script in
      let k = kr mod (List.length ops + 1) in
      let recovered = replay (take k ops) in
      M.equal (replay ops)
        (List.fold_left M.apply recovered (drop k ops)))

let prop_replay_idempotent =
  QCheck.Test.make ~count:500
    ~name:"lvm meta: ops are absolute — duplicated replay is identical"
    (QCheck.set_print print_scenario scenario_arb)
    (fun (script, _) ->
      let ops = ops_of_script script in
      let doubled = List.concat_map (fun op -> [ op; op ]) ops in
      M.equal (replay ops) (replay doubled))

(* ------------------------------------------------------------------ *)
(* Simulated end-to-end scenarios.                                     *)
(* ------------------------------------------------------------------ *)

let extent_blocks = 2048

let mirror_spec =
  {|
mount: "blk::/vol"
dag:
  - uuid: lvm0
    mod: lab_lvm
    attrs:
      raid: 1
      legs: [nvme, nvme2]
|}

let stripe_spec =
  {|
mount: "blk::/vol"
dag:
  - uuid: lvm0
    mod: lab_lvm
    attrs:
      raid: 0
      legs: [nvme, nvme2]
|}

let boot_lvm ?(rate = 100_000.0) spec =
  let platform =
    Platform.boot ~nworkers:2
      ~config:
        { Lab_runtime.Runtime.default_config with lvm_rebuild_rate_mbps = rate }
      ~devices:[ Lab_device.Profile.Nvme; Lab_device.Profile.Nvme ]
      ()
  in
  (match Platform.mount platform spec with
  | Ok _ -> ()
  | Error e -> failwith ("test_lvm: mount: " ^ e));
  let m =
    Option.get
      (Core.Registry.find (Runtime.Runtime.registry (Platform.runtime platform)) "lvm0")
  in
  (platform, m)

let write c lidx =
  match
    Runtime.Client.write_block c ~mount:"blk::/vol" ~lba:(lidx * extent_blocks)
      ~bytes:4096
  with
  | Ok n -> Alcotest.(check int) "write size" 4096 n
  | Error e -> Alcotest.fail ("write failed: " ^ e)

let counter m nm = try List.assoc nm (Lab_lvm.counters m) with Not_found -> 0

let test_mirror_replicates () =
  let platform, m = boot_lvm mirror_spec in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      write c 0;
      match Runtime.Client.read_block c ~mount:"blk::/vol" ~lba:0 ~bytes:4096 with
      | Ok n -> Alcotest.(check int) "read size" 4096 n
      | Error e -> Alcotest.fail ("read failed: " ^ e));
  let vg = Lab_lvm.vg m in
  (match M.IMap.find_opt 0 vg.M.lmap with
  | Some placements ->
      Alcotest.(check int) "mirrored extent placed on both legs" 2
        (List.length placements);
      Alcotest.(check bool) "one placement per leg" true
        (List.sort compare (List.map fst placements) = [ 0; 1 ])
  | None -> Alcotest.fail "extent 0 not allocated");
  Alcotest.(check bool) "journal recorded the allocation" true
    (List.exists
       (function M.Alloc { lidx = 0; _ } -> true | _ -> false)
       (Lab_lvm.journal_ops m));
  (* Both legs saw the data write (plus journal records). *)
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) (name ^ " wrote") true
        (Lab_device.Device.completed_writes d >= 1))
    (Platform.devices platform)

let test_raid0_stripes_round_robin () =
  let platform, m = boot_lvm stripe_spec in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      for lidx = 0 to 3 do
        write c lidx
      done);
  let vg = Lab_lvm.vg m in
  for lidx = 0 to 3 do
    match M.IMap.find_opt lidx vg.M.lmap with
    | Some [ (leg, _) ] ->
        Alcotest.(check int)
          (Printf.sprintf "extent %d striped to leg %d" lidx (lidx mod 2))
          (lidx mod 2) leg
    | Some _ -> Alcotest.fail "striped extent has more than one placement"
    | None -> Alcotest.fail "striped extent not allocated"
  done

let test_degraded_then_rebuild () =
  let platform, m = boot_lvm mirror_spec in
  let machine = Platform.machine platform in
  (* Populate two extents while healthy. *)
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      write c 0;
      write c 1);
  (* Leg nvme2 offline for 1 ms. *)
  let from_ns = Platform.now platform +. 50_000.0 in
  let until_ns = from_ns +. 1_000_000.0 in
  Lab_device.Device.set_fault_plan
    (Platform.device_by_name platform "nvme2")
    (Fault.create
       ~script:[ Fault.Offline { from_ns; until_ns; queue = None } ]
       ~seed:7 ());
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      Engine.wait (from_ns +. 10_000.0 -. Machine.now machine);
      (* Degraded: the survivor carries both a read and a new write. *)
      (match Runtime.Client.read_block c ~mount:"blk::/vol" ~lba:0 ~bytes:4096 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("degraded read failed: " ^ e));
      (* Overwrite a mirrored extent (its dead-leg replica is skipped —
         a degraded write) and allocate a fresh one on the survivor. *)
      write c 0;
      write c 2);
  Alcotest.(check bool) "leg loss recorded" true (counter m "legs_lost" >= 1);
  Alcotest.(check bool) "degraded reads counted" true
    (counter m "degraded_reads" >= 1);
  Alcotest.(check bool) "degraded writes counted" true
    (counter m "degraded_writes" >= 1);
  (* The extent written while degraded lives only on the survivor. *)
  (match M.IMap.find_opt 2 (Lab_lvm.vg m).M.lmap with
  | Some [ (0, _) ] -> ()
  | Some p ->
      Alcotest.fail
        (Printf.sprintf "degraded extent on %d legs" (List.length p))
  | None -> Alcotest.fail "degraded extent not allocated");
  (* The leg returns: drive reads until the resilver completes. *)
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let now () = Machine.now machine in
      if until_ns +. 10_000.0 > now () then
        Engine.wait (until_ns +. 10_000.0 -. now ());
      let guard = ref 0 in
      while Lab_lvm.rebuild_frac m < 1.0 && !guard < 10_000 do
        incr guard;
        (match Runtime.Client.read_block c ~mount:"blk::/vol" ~lba:0 ~bytes:4096 with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("read under rebuild failed: " ^ e));
        Engine.wait 5_000.0
      done);
  Alcotest.(check (float 0.0)) "rebuild_frac reached 1.0" 1.0
    (Lab_lvm.rebuild_frac m);
  Alcotest.(check int) "one rebuild completed" 1 (counter m "rebuilds_completed");
  Alcotest.(check bool) "every leg healthy again" true
    (List.for_all (fun (_, s) -> s = "healthy") (Lab_lvm.leg_states m));
  (* Resilver gave the degraded extent its second replica. *)
  (match M.IMap.find_opt 2 (Lab_lvm.vg m).M.lmap with
  | Some placements ->
      Alcotest.(check int) "resilvered extent mirrored again" 2
        (List.length placements)
  | None -> Alcotest.fail "extent lost by rebuild");
  (* Crash consistency end-to-end: the journal replays to the live vg. *)
  let replayed =
    let vg = Lab_lvm.vg m in
    M.replay ~nlegs:vg.M.nlegs ~extents_per_leg:vg.M.extents_per_leg
      (Lab_lvm.journal_ops m)
  in
  Alcotest.(check bool) "journal replay consistent" true (M.consistent replayed);
  Alcotest.(check bool) "journal replay = live vg" true
    (M.equal replayed (Lab_lvm.vg m))

let test_state_repair_replays_journal () =
  let platform, m = boot_lvm mirror_spec in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      write c 0;
      write c 3;
      Lab_lvm.free m ~thread:0 ~lba:(3 * extent_blocks) ~bytes:4096);
  let before = Lab_lvm.vg m in
  Platform.go platform (fun () -> m.Core.Labmod.ops.Core.Labmod.state_repair m);
  Alcotest.(check bool) "state_repair rebuilt the same vg" true
    (M.equal before (Lab_lvm.vg m));
  Alcotest.(check bool) "freed extent stayed freed" true
    (not (M.IMap.mem 3 (Lab_lvm.vg m).M.lmap))

(* A RAID1 mirror under three concurrent writers whose fan-outs are in
   flight when leg nvme2 goes offline, then a degraded read, then the
   leg's return and a short resilver. Every outcome and its instant,
   the event count, the final time and the lvm counters are pinned, so
   a change to how the volume manager waits for its legs shows here
   event for event. *)
let pinned_lvm_scenario () =
  let platform, m = boot_lvm ~rate:20_000.0 mirror_spec in
  let machine = Platform.machine platform in
  let e = machine.Machine.engine in
  let t0 = Platform.now platform in
  let from_ns = t0 +. 60_000.0 and until_ns = t0 +. 300_000.0 in
  Lab_device.Device.set_fault_plan
    (Platform.device_by_name platform "nvme2")
    (Fault.create
       ~script:[ Fault.Offline { from_ns; until_ns; queue = None } ]
       ~seed:7 ());
  let log = Buffer.create 1024 in
  let note tag = function
    | Ok n -> Printf.bprintf log "%s:%d@%.0f;" tag n (Machine.now machine)
    | Error err -> Printf.bprintf log "%s:%s@%.0f;" tag err (Machine.now machine)
  in
  Platform.go platform (fun () ->
      let remaining = ref 3 and all_done = Engine.make_park_cell () in
      for th = 0 to 2 do
        Engine.spawn e (fun () ->
            let c = Platform.client platform ~thread:th () in
            for i = 0 to 5 do
              let lba = (((th * 6) + i) mod 4 * extent_blocks) + (i * 128) in
              note
                (Printf.sprintf "w%d.%d" th i)
                (Runtime.Client.write_block c ~mount:"blk::/vol" ~lba
                   ~bytes:(if i mod 2 = 0 then 65536 else 4096));
              Engine.wait (Stdlib.float_of_int (((th * 7) + i) mod 5 * 2_000))
            done;
            decr remaining;
            if !remaining = 0 then Engine.unpark all_done)
      done;
      Engine.park all_done;
      let c = Platform.client platform ~thread:0 () in
      note "r" (Runtime.Client.read_block c ~mount:"blk::/vol" ~lba:128 ~bytes:8192);
      if until_ns > Machine.now machine then
        Engine.wait (until_ns -. Machine.now machine);
      let i = ref 0 in
      while Lab_lvm.rebuild_frac m < 1.0 && !i < 1_000 do
        note
          (Printf.sprintf "rb%d" !i)
          (Runtime.Client.read_block c ~mount:"blk::/vol" ~lba:(!i * 8) ~bytes:4096);
        incr i;
        Engine.wait 200_000.0
      done);
  let counters =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Lab_lvm.counters m))
  in
  (Buffer.contents log, Engine.events_executed e, Platform.now platform, counters)

let test_pinned_lvm_schedule () =
  let log, events, now, counters = pinned_lvm_scenario () in
  (* Values captured while the fan-out still waited through a callback
     adapter. *)
  if Digest.to_hex (Digest.string log) <> "bfa7a14cd021468c4acd4d8c18a86cc2"
  then Alcotest.failf "outcomes changed:\n%s" log;
  Alcotest.(check int) "events_executed" 4829 events;
  Alcotest.(check string) "final time" "4733080.000" (Printf.sprintf "%.3f" now);
  Alcotest.(check string) "counters"
    "degraded_reads=13 degraded_writes=4 legs_lost=1 rebuilds_completed=1 \
     journal_records=10 journal_write_errors=0 extents_allocated=4 \
     rebuild_copied_bytes=4194304"
    counters

let () =
  Alcotest.run "lab_lvm"
    [
      ( "meta",
        [
          QCheck_alcotest.to_alcotest prop_prefix_consistent;
          QCheck_alcotest.to_alcotest prop_prefix_recovery_converges;
          QCheck_alcotest.to_alcotest prop_replay_idempotent;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "mirror write replicates to both legs" `Quick
            test_mirror_replicates;
          Alcotest.test_case "raid0 stripes extents round-robin" `Quick
            test_raid0_stripes_round_robin;
          Alcotest.test_case "leg loss degrades, return resilvers" `Quick
            test_degraded_then_rebuild;
          Alcotest.test_case "state_repair replays the journal" `Quick
            test_state_repair_replays_journal;
          Alcotest.test_case "pinned lvm schedule" `Quick
            test_pinned_lvm_schedule;
        ] );
    ]
