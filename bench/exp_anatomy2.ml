(* Latency anatomy, derived from spans.

   Where exp_anatomy reconstructs the paper's Fig 4(a) stack anatomy
   from cost constants, this experiment measures it: every request is
   traced (trace_sample = 1) through a cache -> scheduler -> driver
   async LabStack, and the per-stage breakdown (submit, queue wait,
   worker dispatch, module stack, completion, reap) is aggregated from
   the emitted spans. The telescoping stage API guarantees the stages
   of each request tile its root span, so the table is checked to
   reconcile with end-to-end latency within 1% per request.

   Inside the module-stack stage, Profile.exclusive (a span minus its
   direct children) splits the nested mod/device spans into per-layer
   software time (cache, scheduler, driver) plus raw device service
   time.

   Also asserts the zero-overhead-when-off guarantee: a run with
   trace_sample = 0 must execute the identical number of simulator
   events in identical simulated time as the traced run.

   Writes BENCH_anatomy.json. --smoke shrinks the workload. *)

open Labstor
open Lab_sim

let stack_spec =
  {|
mount: "blk::/anatomy"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: 4
      shards: 2
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let threads = 4

let bytes = 4096

type run = { elapsed : float; events : int; spans : Obs.Trace.ev list }

let run_case ~seed ~ops ~sample =
  let platform =
    Platform.boot ~nworkers:4 ~seed
      ~config:{ Runtime.Runtime.default_config with trace_sample = sample }
      ()
  in
  (match Platform.mount platform stack_spec with
  | Ok _ -> ()
  | Error e -> failwith ("exp_anatomy2: mount: " ^ e));
  let machine = Platform.machine platform in
  Platform.go platform (fun () ->
      let all_done = Engine.join threads in
      for th = 0 to threads - 1 do
        Engine.spawn machine.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:th () in
            let rng = Rng.create (seed lxor (th * 7919)) in
            for i = 1 to ops do
              let lba = Rng.int rng 262144 in
              if i mod 4 = 0 then
                ignore
                  (Runtime.Client.write_block c ~mount:"blk::/anatomy"
                     ~lba ~bytes)
              else
                ignore
                  (Runtime.Client.read_block c ~mount:"blk::/anatomy"
                     ~lba ~bytes)
            done;
            Engine.arrive all_done)
      done;
      Engine.await all_done);
  {
    elapsed = Platform.now platform;
    events = Engine.events_executed machine.Machine.engine;
    spans = Obs.Trace.events (Platform.tracer platform);
  }

(* The telescoped stages, in request order. *)
let stages =
  [ "submit"; "queue_wait"; "dispatch"; "module_stack"; "complete"; "reap" ]

type anatomy = {
  per_stage : (string * Obs.Hist.t) list;
  cache_ns : Obs.Hist.t;  (** lru_cache software time, downstream excluded *)
  sched_ns : Obs.Hist.t;
  driver_ns : Obs.Hist.t;
  device_ns : Obs.Hist.t;
  e2e : Obs.Hist.t;
  requests : int;
  max_residual : float;  (** worst |root - sum(stages)| / root *)
}

let aggregate spans =
  let per_stage = List.map (fun s -> (s, Obs.Hist.create ())) stages in
  let cache_ns = Obs.Hist.create () in
  let sched_ns = Obs.Hist.create () in
  let driver_ns = Obs.Hist.create () in
  let device_ns = Obs.Hist.create () in
  let e2e = Obs.Hist.create () in
  let requests = ref 0 in
  let max_residual = ref 0.0 in
  List.iter
    (fun (_, spans) ->
      let root = ref 0.0 and stage_sum = ref 0.0 in
      (* Exclusive time per layer: each span minus its direct children
         (cache minus sched, sched minus driver, driver minus device).
         A request can traverse a module several times (e.g. the
         ride-fill path); keep the total per layer. *)
      let cache = ref 0.0 and sched = ref 0.0 and driver = ref 0.0
      and device = ref 0.0 in
      List.iter
        (fun (sp : Obs.Profile.span) ->
          let e = sp.Obs.Profile.sp_ev in
          let self = sp.Obs.Profile.sp_self_ns in
          match e.Obs.Trace.ev_cat, e.Obs.Trace.ev_name with
          | "request", _ -> root := e.Obs.Trace.ev_dur
          | "stage", name ->
              stage_sum := !stage_sum +. e.Obs.Trace.ev_dur;
              (match List.assoc_opt name per_stage with
              | Some st -> Obs.Hist.observe st e.Obs.Trace.ev_dur
              | None -> ())
          | "mod", "lru_cache" -> cache := !cache +. self
          | "mod", "blkswitch_sched" -> sched := !sched +. self
          | "mod", "kernel_driver" -> driver := !driver +. self
          | "device", _ -> device := !device +. self
          | _ -> ())
        spans;
      if !root > 0.0 then begin
        incr requests;
        Obs.Hist.observe e2e !root;
        let residual = Float.abs (!root -. !stage_sum) /. !root in
        if residual > !max_residual then max_residual := residual;
        Obs.Hist.observe cache_ns !cache;
        Obs.Hist.observe sched_ns !sched;
        Obs.Hist.observe driver_ns !driver;
        Obs.Hist.observe device_ns !device
      end)
    (Obs.Profile.exclusive spans);
  {
    per_stage;
    cache_ns;
    sched_ns;
    driver_ns;
    device_ns;
    e2e;
    requests = !requests;
    max_residual = !max_residual;
  }

let write_json path (a : anatomy) =
  let oc = open_out path in
  let pair name st =
    Printf.sprintf
      "    {\"stage\": \"%s\", \"mean_ns\": %.1f, \"p99_ns\": %.1f}" name
      (Obs.Hist.mean st)
      (Obs.Hist.quantile st 0.99)
  in
  let rows =
    List.map (fun (n, st) -> pair n st) a.per_stage
    @ [
        pair "module_stack.cache" a.cache_ns;
        pair "module_stack.sched" a.sched_ns;
        pair "module_stack.driver" a.driver_ns;
        pair "module_stack.device" a.device_ns;
      ]
  in
  Printf.fprintf oc
    "{\n  \"requests\": %d,\n  \"e2e_mean_ns\": %.1f,\n  \
     \"max_stage_residual\": %.6f,\n  \"stages\": [\n%s\n  ]\n}\n"
    a.requests (Obs.Hist.mean a.e2e) a.max_residual
    (String.concat ",\n" rows);
  close_out oc

let run () =
  let smoke = Bench_util.smoke () in
  let ops = if smoke then 200 else 2000 in
  let seed = 0xA2A7 in
  Bench_util.heading "anatomy2"
    "Latency anatomy from request-lifecycle spans (measured, not modeled)";
  Printf.printf
    "  %d random 4 KiB ops (1-in-4 writes) x %d threads, every request traced, seed %#x\n"
    ops threads seed;
  let traced, wall_s =
    Bench_util.time_events (fun () -> run_case ~seed ~ops ~sample:1)
  in
  let a = aggregate traced.spans in
  let e2e_mean = Obs.Hist.mean a.e2e in
  let share st =
    if e2e_mean > 0.0 then 100.0 *. Obs.Hist.mean st /. e2e_mean else 0.0
  in
  let widths = [ 22; 10; 10; 7 ] in
  Bench_util.print_table widths
    [ "stage"; "mean(ns)"; "p99(ns)"; "share" ]
    (List.map
       (fun (name, st) ->
         [
           name;
           Bench_util.f0 (Obs.Hist.mean st);
           Bench_util.f0 (Obs.Hist.quantile st 0.99);
           Printf.sprintf "%.1f%%" (share st);
         ])
       (a.per_stage
       @ [
           ("  cache (sw)", a.cache_ns);
           ("  sched (sw)", a.sched_ns);
           ("  driver (sw)", a.driver_ns);
           ("  device", a.device_ns);
         ]));
  Bench_util.note "end-to-end %s ns mean over %d traced requests"
    (Bench_util.f0 e2e_mean) a.requests;
  write_json "BENCH_anatomy.json" a;
  (* Acceptance: the telescoped stages of every request must tile its
     root span — worst residual within 1%. *)
  let reconciled = a.requests > 0 && a.max_residual <= 0.01 in
  Bench_util.claim "anatomy2.stages_reconcile" reconciled
    "max |root - sum(stages)|/root = %.4f over %d requests (bound 0.01)"
    a.max_residual a.requests;
  if reconciled then
    Bench_util.note
      "reconciliation: stage sums match end-to-end latency (max residual %.4f%%)"
      (100.0 *. a.max_residual);
  (* Zero overhead when off: an untraced run must be indistinguishable
     from the traced run in simulated time and event count. *)
  let off = run_case ~seed ~ops ~sample:0 in
  Bench_util.claim "anatomy2.untraced_emits_nothing" (off.spans = [])
    "sample=0 emitted %d events" (List.length off.spans);
  let neutral = off.elapsed = traced.elapsed && off.events = traced.events in
  Bench_util.claim "anatomy2.tracing_neutral" neutral
    "traced %.1f ns/%d events vs untraced %.1f ns/%d events" traced.elapsed
    traced.events off.elapsed off.events;
  if neutral then
    Bench_util.note
      "zero overhead: traced and untraced runs identical (%d events, %.2f ms simulated)"
      off.events (off.elapsed /. 1e6);
  Bench_util.note_event_rate ~events:(traced.events + off.events) ~wall_s
