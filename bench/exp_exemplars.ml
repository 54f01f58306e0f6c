(* Tail-latency exemplar capture + flight-recorder black box.

   Three claims, each gated:

   1. Zero overhead / engine neutrality. The observability layer does
      its work in plain OCaml between engine events — no spawns, no
      simulated time. A run with capture off must be *identical* to a
      run that never heard of the feature (same event count, same
      virtual time), and — stronger — a run with exemplar capture and
      the flight recorder on full blast must still replay the exact
      same schedule.

   2. Retroactive tail capture. Under open-loop overload (offered rate
      past the knee, CO-safe measurement via Workloads.Load), at least
      90% of the slowest 0.1% of completed requests — ranked by
      corrected latency — must end the run with a stored exemplar
      carrying full stage anatomy (stage records telescoping to the
      request's end-to-end latency). This is the case a prospective
      1-in-N sampler loses: the decision to keep the anatomy is made
      at completion, after the latency is known.

   3. Triggered black-box dumps. A scripted mid-run device outage must
      leave a dump whose reason is the client-visible errno:ENODEV and
      whose event list contains the triggering event itself.

   Plus the standing determinism gate: same-seed reruns byte-identical
   exemplar and black-box exports, identical event counts.

   BENCH_exemplars.json carries the neutrality verdicts, coverage,
   store/recorder counters and determinism flag; smoke and full runs
   emit the same key set. *)

open Labstor
open Lab_sim

let mount_pt = "blk::/exemplars"

let stack_spec =
  {|
mount: "blk::/exemplars"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let read_bytes = 4096

let injectors = 16

type obs = Plain | Off | On

(* One open-loop run; [latencies] collects every completed request's
   corrected latency (completion − scheduled arrival), the same number
   the exemplar store ranks by. *)
let run_point ~seed ~rate_kops ~total ~obs ?fault_script ?(slo = false) () =
  let d = { Runtime.Runtime.default_config with worker_max_inflight = 32 } in
  let config =
    match obs with
    | Plain | Off -> d
    | On ->
        let d = { d with exemplar_k = 32; blackbox_cap = 4096 } in
        if slo then { d with slo_p99_target_us = 500.0 }
        else d
  in
  let platform = Platform.boot ~config ~nworkers:4 ~seed ?fault_script () in
  (match Platform.mount platform stack_spec with
  | Ok _ -> ()
  | Error e -> failwith ("exp_exemplars: mount: " ^ e));
  let machine = Platform.machine platform in
  let latencies = ref [] in
  let res =
    Platform.go platform (fun () ->
        let clients =
          Array.init injectors (fun i ->
              Platform.client platform ~thread:(i mod 16) ())
        in
        let next = ref 0 in
        let region_blocks = 1 lsl 17 in
        let spec =
          {
            Workloads.Load.default_spec with
            proc = Workloads.Load.Poisson { rate_ops_s = rate_kops *. 1e3 };
            seed;
            total;
            injectors;
          }
        in
        Workloads.Load.run machine spec ~submit:(fun ~injector ~scheduled ->
            let lba = !next mod region_blocks * 8 in
            incr next;
            match
              Runtime.Client.read_block clients.(injector)
                ~scheduled_at:scheduled ~mount:mount_pt ~lba ~bytes:read_bytes
            with
            | Ok _ ->
                latencies :=
                  (Sim.Machine.now machine -. scheduled) :: !latencies;
                true
            | Error _ -> false))
  in
  (platform, res, Engine.events_executed machine.Machine.engine, !latencies)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let run () =
  let smoke = Bench_util.smoke () in
  Bench_util.heading "exemplars"
    "Tail exemplar capture + flight recorder: neutrality, coverage, dumps";
  let seed = 0x0B57A11 in
  let total = if smoke then 2000 else 8000 in
  let overload_kops = 1600.0 and cruise_kops = 400.0 in

  (* ---- Phase 1: engine neutrality --------------------------------- *)
  let _, _, ev_plain, _ =
    run_point ~seed ~rate_kops:cruise_kops ~total:(total / 2) ~obs:Plain ()
  in
  let p_off, _, ev_off, _ =
    run_point ~seed ~rate_kops:cruise_kops ~total:(total / 2) ~obs:Off ()
  in
  let p_on, _, ev_on, _ =
    run_point ~seed ~rate_kops:cruise_kops ~total:(total / 2) ~obs:On ()
  in
  let vt_plain = 0.0 in
  ignore vt_plain;
  let now_of p = Platform.now p in
  let off_neutral = ev_plain = ev_off in
  let on_neutral = ev_plain = ev_on && now_of p_off = now_of p_on in
  Bench_util.note
    "neutrality: plain/off/on executed %d/%d/%d engine events (virtual time \
     %s)"
    ev_plain ev_off ev_on
    (if now_of p_off = now_of p_on then "identical" else "DIVERGED");
  if not off_neutral then begin
    Bench_util.note
      "NEUTRALITY REGRESSION: capture-off run diverged from a no-obs run";
    exit 1
  end;
  if not on_neutral then begin
    Bench_util.note
      "NEUTRALITY REGRESSION: capture-on run perturbed the schedule";
    exit 1
  end;

  (* ---- Phase 2: tail coverage under overload ---------------------- *)
  let p2, res2, ev2, lats = run_point ~seed ~rate_kops:overload_kops ~total ~obs:On () in
  let store =
    match Runtime.Runtime.exemplars (Platform.runtime p2) with
    | Some s -> s
    | None -> failwith "exp_exemplars: store missing"
  in
  let completed = res2.Workloads.Load.completed in
  let sorted = List.sort (fun a b -> compare b a) lats in
  let n_tail = Stdlib.max 1 (completed / 1000) in
  let tail_floor = List.nth sorted (n_tail - 1) in
  let views = Obs.Exemplar.dump store in
  let covered =
    Stdlib.min n_tail
      (List.length
         (List.filter
            (fun v -> v.Obs.Exemplar.v_latency >= tail_floor -. 0.5)
            views))
  in
  let coverage = float_of_int covered /. float_of_int n_tail in
  Bench_util.note
    "coverage: %d of the %d slowest completions (slowest 0.1%% of %d, floor \
     %.0f ns) hold exemplars; store %d/%d used, %d offered, %d promoted, %d \
     evicted"
    covered n_tail completed tail_floor
    (Obs.Exemplar.stored store)
    (Obs.Exemplar.k store)
    (Obs.Exemplar.offered store)
    (Obs.Exemplar.promoted store)
    (Obs.Exemplar.evicted store);
  if coverage < 0.90 then begin
    Bench_util.note
      "COVERAGE REGRESSION: %.0f%% of the slowest 0.1%% captured (bound 90%%)"
      (coverage *. 100.0);
    exit 1
  end;
  (* Anatomy: every stored exemplar's stage records tile its root span. *)
  List.iter
    (fun v ->
      if v.Obs.Exemplar.v_stages = [] then begin
        Bench_util.note "ANATOMY REGRESSION: exemplar %d has no stages"
          v.Obs.Exemplar.v_id;
        exit 1
      end;
      let sum =
        List.fold_left
          (fun acc s ->
            if s.Obs.Exemplar.s_cat = "stage" then
              acc +. (s.Obs.Exemplar.s_t1 -. s.Obs.Exemplar.s_t0)
            else acc)
          0.0 v.Obs.Exemplar.v_stages
      in
      let residual = Float.abs (v.Obs.Exemplar.v_latency -. sum) in
      if residual > 0.01 *. Float.max v.Obs.Exemplar.v_latency 1.0 then begin
        Bench_util.note
          "ANATOMY REGRESSION: exemplar %d stages sum %.0f ns vs latency %.0f \
           ns"
          v.Obs.Exemplar.v_id sum v.Obs.Exemplar.v_latency;
        exit 1
      end)
    views;

  (* ---- Phase 3: triggered black-box dump on injected ENODEV ------- *)
  let outage_from = 2_000_000.0 in
  let outage =
    [
      Fault.Offline
        { from_ns = outage_from; until_ns = outage_from +. 2e6; queue = None };
    ]
  in
  let p3, res3, _, _ =
    run_point ~seed ~rate_kops:cruise_kops ~total:(total / 2) ~obs:On
      ~fault_script:outage ~slo:true ()
  in
  let bb =
    match Runtime.Runtime.blackbox (Platform.runtime p3) with
    | Some bb -> bb
    | None -> failwith "exp_exemplars: recorder missing"
  in
  let dumps = Obs.Flightrec.dumps bb in
  let enodev_dump =
    List.find_opt (fun d -> contains d {|"reason":"errno:ENODEV"|}) dumps
  in
  let enodev_ok =
    match enodev_dump with
    | Some d ->
        (* The dump must carry its own triggering event: the Trigger
           record written before the snapshot, tagged with the reason. *)
        contains d {|"kind":"trigger","ts_ns"|}
        && contains d {|"tag":"errno:ENODEV"|}
    | None -> false
  in
  let failed3 = res3.Workloads.Load.completed - res3.Workloads.Load.succeeded in
  Bench_util.note
    "black box: %d events recorded, %d triggers, %d dumps (%d requests failed \
     through the outage); errno:ENODEV dump %s"
    (Obs.Flightrec.recorded bb)
    (Obs.Flightrec.triggers bb)
    (List.length dumps) failed3
    (if enodev_ok then "present with its triggering event" else "MISSING");
  if not enodev_ok then begin
    Bench_util.note
      "BLACKBOX REGRESSION: no errno:ENODEV dump containing its trigger";
    exit 1
  end;

  (* ---- Phase 4: same-seed determinism ----------------------------- *)
  let p2b, _, ev2b, _ =
    run_point ~seed ~rate_kops:overload_kops ~total ~obs:On ()
  in
  let store_json p =
    match Runtime.Runtime.exemplars (Platform.runtime p) with
    | Some s -> Obs.Exemplar.to_json s
    | None -> ""
  in
  let p3b, _, _, _ =
    run_point ~seed ~rate_kops:cruise_kops ~total:(total / 2) ~obs:On
      ~fault_script:outage ~slo:true ()
  in
  let bb_json p =
    match Runtime.Runtime.blackbox (Platform.runtime p) with
    | Some b -> Obs.Flightrec.to_json b
    | None -> ""
  in
  let deterministic =
    ev2 = ev2b
    && store_json p2 = store_json p2b
    && bb_json p3 = bb_json p3b
  in
  if deterministic then
    Bench_util.note
      "determinism: same-seed reruns byte-identical (exemplars + black box)"
  else begin
    Bench_util.note "determinism VIOLATED: same-seed reruns differ";
    exit 1
  end;

  (* ---- JSON ------------------------------------------------------- *)
  let oc = open_out "BENCH_exemplars.json" in
  Printf.fprintf oc "{\"off_neutral\": %d, \"on_neutral\": %d,\n"
    (if off_neutral then 1 else 0)
    (if on_neutral then 1 else 0);
  Printf.fprintf oc " \"coverage\": %.3f, \"tail_n\": %d, \"covered\": %d,\n"
    coverage n_tail covered;
  Printf.fprintf oc
    " \"stored\": %d, \"offered\": %d, \"promoted\": %d, \"evicted\": %d,\n"
    (Obs.Exemplar.stored store)
    (Obs.Exemplar.offered store)
    (Obs.Exemplar.promoted store)
    (Obs.Exemplar.evicted store);
  Printf.fprintf oc " \"promoted_band\": 0.25, \"evicted_band\": 0.25,\n";
  Printf.fprintf oc
    " \"bb_recorded\": %d, \"bb_triggers\": %d, \"bb_dumps\": %d,\n"
    (Obs.Flightrec.recorded bb)
    (Obs.Flightrec.triggers bb)
    (List.length dumps);
  Printf.fprintf oc " \"bb_recorded_band\": 0.25, \"bb_triggers_band\": 0.25,\n";
  Printf.fprintf oc " \"enodev_dump\": %d, \"outage_failed\": %d,\n"
    (if enodev_ok then 1 else 0)
    failed3;
  Printf.fprintf oc " \"outage_failed_band\": 0.5,\n";
  Printf.fprintf oc " \"deterministic\": %d}\n" (if deterministic then 1 else 0);
  close_out oc;
  Bench_util.note "wrote BENCH_exemplars.json"
