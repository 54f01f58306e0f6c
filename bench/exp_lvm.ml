(* Volume-manager experiment — mirrored redundancy and online rebuild.

   Scenario (RAID1 over two NVMe legs): populate a mirrored volume,
   measure healthy read latency, then script one leg offline
   (Fault.offline) and measure the degraded phase — every read must
   still succeed on the surviving leg, with p99 inflation bounded by a
   stated factor. When the leg returns, the background resilver copies
   every allocated extent at a capped rate while foreground reads
   continue; the run asserts rebuild_frac reaches 1.0 and that
   replaying the redo journal reproduces a consistent volume group
   equal to the live one. A RAID0 stripe over both legs is then
   compared against a single device on a bandwidth-bound stream.

   Determinism: the whole mirror scenario runs twice with the same
   seed and must produce byte-identical summaries (journal included).

   Writes BENCH_lvm.json. --smoke shrinks the workload. *)

open Labstor
open Lab_sim
open Lab_mods

let threads = 4

let bytes = 4096

let extent_blocks = 2048 (* 1 MiB extents, the lab_lvm default *)

(* p99 inflation bound asserted for the degraded phase. *)
let degraded_p99_factor = 3.0

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
mount: "blk::/stripe"
dag:
  - uuid: lvm0
    mod: lab_lvm
    attrs:
      raid: 0
      legs: [nvme, nvme2]
|}

let single_spec =
  {|
mount: "blk::/single"
dag:
  - uuid: drv0
    mod: kernel_driver
|}

let lvm_mod platform =
  match
    Lab_core.Registry.find
      (Runtime.Runtime.registry (Platform.runtime platform))
      "lvm0"
  with
  | Some m -> m
  | None -> failwith "exp_lvm: lvm0 not mounted"

(* Run [f] on [threads] concurrent client threads and wait for all. *)
let spawn_clients platform f =
  let machine = Platform.machine platform in
  Platform.go platform (fun () ->
      let all_done = Engine.join threads in
      for th = 0 to threads - 1 do
        Engine.spawn machine.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:th () in
            f th c;
            Engine.arrive all_done)
      done;
      Engine.await all_done)

type mirror_outcome = {
  healthy_p99_us : float;
  degraded_p99_us : float;
  healthy_samples : int;
  degraded_samples : int;  (* an empty phase must not pass the p99 bound *)
  degraded_failures : int;
  rebuild_ms : float;
  counters : (string * int) list;
  rebuild_frac : float;
  journal_len : int;
  journal_consistent : bool;
  journal_matches_live : bool;
  summary : string;  (* byte-identical across same-seed runs *)
}

let counter counters nm = try List.assoc nm counters with Not_found -> 0

let run_mirror ~seed ~extents ~ops =
  let platform =
    Platform.boot ~nworkers:4 ~seed
      ~devices:[ Lab_device.Profile.Nvme; Lab_device.Profile.Nvme ]
      ()
  in
  (match Platform.mount platform mirror_spec with
  | Ok _ -> ()
  | Error e -> failwith ("exp_lvm: mount: " ^ e));
  let machine = Platform.machine platform in
  let mount = "blk::/vol" in
  let span = extents * extent_blocks in
  let healthy = Obs.Hist.create () in
  let degraded = Obs.Hist.create () in
  let failures = ref 0 in
  let read_phase stats th c n rng =
    for _ = 1 to n do
      let lba = Rng.int rng span in
      let t0 = Machine.now machine in
      match Runtime.Client.read_block c ~mount ~lba ~bytes with
      | Ok _ -> Obs.Hist.observe stats (Machine.now machine -. t0)
      | Error _ -> incr failures
    done;
    ignore th
  in
  (* Phase 1: populate every extent (one write each), then healthy
     reads served round-robin by both mirror legs. *)
  spawn_clients platform (fun th c ->
      let per = extents / threads in
      for i = 0 to per - 1 do
        let lba = ((th * per) + i) * extent_blocks in
        match Runtime.Client.write_block c ~mount ~lba ~bytes with
        | Ok _ -> ()
        | Error _ -> incr failures
      done;
      read_phase healthy th c ops (Rng.create (seed lxor (th * 7919))));
  if !failures > 0 then failwith "exp_lvm: healthy phase saw failures";
  (* Phase 2: take leg nvme2 offline for a fixed window. The device
     schedules the loss/return events; lab_lvm's health watcher flips
     the mirror into degraded mode. *)
  let t1 = Platform.now platform in
  let from_ns = t1 +. 100_000.0 in
  let window_ns = 5_000_000.0 in
  let until_ns = from_ns +. window_ns in
  Lab_device.Device.set_fault_plan
    (Platform.device_by_name platform "nvme2")
    (Fault.create
       ~script:[ Fault.Offline { from_ns; until_ns; queue = None } ]
       ~seed ());
  spawn_clients platform (fun th c ->
      Engine.wait (from_ns +. 10_000.0 -. Machine.now machine);
      (* A few writes while degraded: they land on the surviving leg
         only and must be resilvered later. *)
      for i = 0 to 3 do
        let lba = (((th * 4) + i) mod extents) * extent_blocks in
        match Runtime.Client.write_block c ~mount ~lba ~bytes with
        | Ok _ -> ()
        | Error _ -> incr failures
      done;
      read_phase degraded th c ops (Rng.create (seed lxor (th * 104729))));
  let degraded_failures = !failures in
  (* Phase 3: the leg returns at [until_ns]; foreground reads continue
     while the background resilver runs to completion. *)
  let m = lvm_mod platform in
  let rebuild_t0 = until_ns in
  let rebuild_done_at = ref 0.0 in
  spawn_clients platform (fun th c ->
      let rng = Rng.create (seed lxor (th * 15485863)) in
      let now () = Machine.now machine in
      if until_ns +. 10_000.0 > now () then
        Engine.wait (until_ns +. 10_000.0 -. now ());
      let guard = ref 0 in
      while Lab_lvm.rebuild_frac m < 1.0 && !guard < 200_000 do
        incr guard;
        let lba = Rng.int rng span in
        (match Runtime.Client.read_block c ~mount ~lba ~bytes with
        | Ok _ -> ()
        | Error _ -> incr failures);
        Engine.wait 20_000.0
      done;
      if th = 0 then rebuild_done_at := now ());
  let counters = Lab_lvm.counters m in
  let frac = Lab_lvm.rebuild_frac m in
  let ops_list = Lab_lvm.journal_ops m in
  let vg = Lab_lvm.vg m in
  let replayed =
    Lab_lvm.Meta.replay ~nlegs:vg.Lab_lvm.Meta.nlegs
      ~extents_per_leg:vg.Lab_lvm.Meta.extents_per_leg ops_list
  in
  let summary =
    String.concat "\n"
      (List.map Lab_lvm.Meta.op_to_string ops_list
      @ List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
      @ [
          Printf.sprintf "healthy_p99=%.1f degraded_p99=%.1f frac=%.3f"
            (Obs.Hist.quantile healthy 0.99)
            (Obs.Hist.quantile degraded 0.99)
            frac;
        ])
  in
  {
    healthy_p99_us = Obs.Hist.quantile healthy 0.99 /. 1e3;
    degraded_p99_us = Obs.Hist.quantile degraded 0.99 /. 1e3;
    healthy_samples = Obs.Hist.count healthy;
    degraded_samples = Obs.Hist.count degraded;
    degraded_failures;
    rebuild_ms = (!rebuild_done_at -. rebuild_t0) /. 1e6;
    counters;
    rebuild_frac = frac;
    journal_len = List.length ops_list;
    journal_consistent = Lab_lvm.Meta.consistent replayed;
    journal_matches_live = Lab_lvm.Meta.equal replayed vg;
    summary;
  }

(* Bandwidth-bound sequential stream through a stack; returns GB/s. *)
let run_stream ~seed ~spec ~mount ~devices ~ops_per_thread =
  let platform = Platform.boot ~nworkers:4 ~seed ~devices () in
  (match Platform.mount platform spec with
  | Ok _ -> ()
  | Error e -> failwith ("exp_lvm: mount: " ^ e));
  let big = 262144 in
  let blocks_per_op = big / 512 in
  let t0 = Platform.now platform in
  spawn_clients platform (fun th c ->
      let base = th * ops_per_thread * blocks_per_op * 2 in
      for i = 0 to ops_per_thread - 1 do
        let lba = base + (i * blocks_per_op) in
        ignore (Runtime.Client.write_block c ~mount ~lba ~bytes:big)
      done;
      for i = 0 to ops_per_thread - 1 do
        let lba = base + (i * blocks_per_op) in
        ignore (Runtime.Client.read_block c ~mount ~lba ~bytes:big)
      done);
  let elapsed = Platform.now platform -. t0 in
  let total_bytes = 2 * threads * ops_per_thread * big in
  Stdlib.float_of_int total_bytes /. elapsed (* bytes/ns = GB/s *)

let run () =
  let smoke = Bench_util.smoke () in
  let extents = if smoke then 16 else 64 in
  let ops = if smoke then 100 else 400 in
  let stream_ops = if smoke then 16 else 48 in
  let seed = 0x1074 in
  Bench_util.heading "lvm"
    "Volume manager: mirrored redundancy, degraded mode & online rebuild";
  Printf.printf
    "  RAID1 over 2 NVMe legs, %d x 1 MiB extents, %d reads/thread x %d \
     threads, seed %#x\n"
    extents ops threads seed;
  let o = run_mirror ~seed ~extents ~ops in
  let c nm = counter o.counters nm in
  Bench_util.print_table [ 10; 12; 12; 11; 9; 9; 11 ]
    [ "phase"; "p99(us)"; "failures"; "deg_reads"; "deg_wr"; "legs_lost"; "rebuilds" ]
    [
      [
        "healthy";
        Bench_util.f1 o.healthy_p99_us;
        "0"; "-"; "-"; "-"; "-";
      ];
      [
        "degraded";
        Bench_util.f1 o.degraded_p99_us;
        string_of_int o.degraded_failures;
        string_of_int (c "degraded_reads");
        string_of_int (c "degraded_writes");
        string_of_int (c "legs_lost");
        string_of_int (c "rebuilds_completed");
      ];
    ];
  Bench_util.note "rebuild: %.2f ms after the leg returned, frac %.2f, %d journal records"
    o.rebuild_ms o.rebuild_frac (c "journal_records");
  (* (a) single-mirror loss leaves reads available, p99 bounded. *)
  Bench_util.claim "lvm.degraded_reads_available" (o.degraded_failures = 0)
    "%d reads failed while degraded" o.degraded_failures;
  let sampled = o.healthy_samples > 0 && o.degraded_samples > 0 in
  Bench_util.claim "lvm.p99_samples" sampled
    "empty sample (healthy %d reads, degraded %d reads)" o.healthy_samples
    o.degraded_samples;
  (* A p99 over an empty sample bounds nothing; that failed just above. *)
  let bounded =
    o.degraded_p99_us <= degraded_p99_factor *. o.healthy_p99_us
  in
  Bench_util.claim "lvm.degraded_p99_bounded" ((not sampled) || bounded)
    "degraded %.1fus > %.1fx healthy %.1fus" o.degraded_p99_us
    degraded_p99_factor o.healthy_p99_us;
  if sampled && bounded then
    Bench_util.note "degraded p99 within %.1fx of healthy" degraded_p99_factor;
  (* (b) rebuild completed under foreground traffic. *)
  Bench_util.claim "lvm.rebuild_completes"
    (o.rebuild_frac >= 1.0 && c "rebuilds_completed" >= 1)
    "frac %.3f, completed %d" o.rebuild_frac (c "rebuilds_completed");
  (* Crash consistency: replaying the redo journal reproduces the live
     volume group. *)
  let replayed = o.journal_consistent && o.journal_matches_live in
  Bench_util.claim "lvm.journal_replays" replayed
    "consistent=%b matches_live=%b" o.journal_consistent
    o.journal_matches_live;
  if replayed then
    Bench_util.note "journal: %d ops replay to a consistent volume group"
      o.journal_len;
  (* RAID0 stripe vs a single device on a bandwidth-bound stream. *)
  let nvme2 = [ Lab_device.Profile.Nvme; Lab_device.Profile.Nvme ] in
  let raid0_gbps =
    run_stream ~seed ~spec:stripe_spec ~mount:"blk::/stripe" ~devices:nvme2
      ~ops_per_thread:stream_ops
  in
  let single_gbps =
    run_stream ~seed ~spec:single_spec ~mount:"blk::/single"
      ~devices:[ Lab_device.Profile.Nvme ] ~ops_per_thread:stream_ops
  in
  let speedup = raid0_gbps /. single_gbps in
  Bench_util.note "raid0 stream: %.2f GB/s vs single %.2f GB/s (%.2fx)"
    raid0_gbps single_gbps speedup;
  Bench_util.claim "lvm.raid0_speedup" (speedup >= 1.2)
    "raid0 speedup %.2fx < 1.2x" speedup;
  (* (c) same-seed determinism, journal included. *)
  let o2 = run_mirror ~seed ~extents ~ops in
  let same = String.equal o.summary o2.summary in
  Bench_util.claim "lvm.deterministic" same
    "summaries differ across identical runs";
  if same then
    Bench_util.note
      "determinism: two seed-%#x scenarios gave byte-identical summaries (%d lines)"
      seed
      (List.length (String.split_on_char '\n' o.summary));
  let oc = open_out "BENCH_lvm.json" in
  Printf.fprintf oc
    "{\n\
    \  \"extents\": %d,\n\
    \  \"reads_per_thread\": %d,\n\
    \  \"healthy_p99_us\": %.1f,\n\
    \  \"degraded_p99_us\": %.1f,\n\
    \  \"degraded_p99_factor_bound\": %.1f,\n\
    \  \"degraded_failures\": %d,\n\
    \  \"degraded_reads\": %d,\n\
    \  \"degraded_writes\": %d,\n\
    \  \"legs_lost\": %d,\n\
    \  \"rebuilds_completed\": %d,\n\
    \  \"rebuild_frac\": %.2f,\n\
    \  \"rebuild_ms\": %.2f,\n\
    \  \"journal_records\": %d,\n\
    \  \"journal_consistent\": %b,\n\
    \  \"raid0_gbps\": %.2f,\n\
    \  \"single_gbps\": %.2f,\n\
    \  \"raid0_speedup\": %.2f,\n\
    \  \"deterministic\": %b\n\
     }\n"
    extents ops o.healthy_p99_us o.degraded_p99_us degraded_p99_factor
    o.degraded_failures (c "degraded_reads") (c "degraded_writes")
    (c "legs_lost")
    (c "rebuilds_completed")
    o.rebuild_frac o.rebuild_ms (c "journal_records")
    (o.journal_consistent && o.journal_matches_live)
    raid0_gbps single_gbps speedup
    same;
  close_out oc
