(* Open-loop load harness + CO-safe latency recorder.

   Pure-stream properties (no engine): same-seed determinism, Poisson
   mean interarrival, on-off duty-cycle accounting, diurnal envelope
   integrating to the mean, replay gap arithmetic. Harness properties
   (in simulation): below saturation the CO-corrected and naive
   distributions coincide; under induced stalls the corrected p99
   dominates the naive one and injection lag is visible. Plus recorder
   and SLO unit coverage. *)

open Lab_sim
open Lab_workloads

let in_sim ?(ncores = 4) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Arrival-stream properties                                           *)
(* ------------------------------------------------------------------ *)

(* A random well-formed process: rates in [1, 1000] kops/s, windows in
   tens of microseconds — the regimes the harness is used in. *)
let process_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun r -> Load.Poisson { rate_ops_s = float_of_int r *. 1e3 })
          (int_range 1 1000);
        map3
          (fun r on off ->
            Load.On_off
              {
                rate_ops_s = float_of_int r *. 1e3;
                on_ns = float_of_int on *. 1e3;
                off_ns = float_of_int off *. 1e3;
              })
          (int_range 1 1000) (int_range 10 100) (int_range 0 100);
        map3
          (fun m a p ->
            Load.Diurnal
              {
                mean_ops_s = float_of_int m *. 1e3;
                amplitude = float_of_int a /. 10.0;
                period_ns = float_of_int p *. 1e4;
              })
          (int_range 1 1000) (int_range 0 10) (int_range 10 100);
        map
          (fun gaps -> Load.Replay { gaps_ns = Array.of_list gaps })
          (list_size (int_range 1 50) (int_range 0 100_000));
      ])

let process_print = function
  | Load.Poisson { rate_ops_s } -> Printf.sprintf "poisson %.0f" rate_ops_s
  | Load.On_off { rate_ops_s; on_ns; off_ns } ->
      Printf.sprintf "onoff %.0f %.0f/%.0f" rate_ops_s on_ns off_ns
  | Load.Diurnal { mean_ops_s; amplitude; period_ns } ->
      Printf.sprintf "diurnal %.0f a=%.1f T=%.0f" mean_ops_s amplitude period_ns
  | Load.Replay { gaps_ns } ->
      Printf.sprintf "replay[%d]" (Array.length gaps_ns)

let prop_same_seed_deterministic =
  QCheck.Test.make ~count:200 ~name:"same seed, same arrival stream"
    QCheck.(
      pair (make ~print:process_print process_gen) (int_range 0 1_000_000))
    (fun (proc, seed) ->
      let a = Load.arrivals ~seed proc 500 and b = Load.arrivals ~seed proc 500 in
      if a <> b then QCheck.Test.fail_report "streams differ";
      (* and monotone non-decreasing *)
      Array.iteri
        (fun i t -> if i > 0 && t < a.(i - 1) then
            QCheck.Test.fail_report "arrivals went backwards")
        a;
      true)

let prop_poisson_mean =
  QCheck.Test.make ~count:50 ~name:"Poisson mean interarrival ~ 1/rate"
    QCheck.(pair (int_range 10 1000) (int_range 0 10_000))
    (fun (rate_kops, seed) ->
      let rate_ops_s = float_of_int rate_kops *. 1e3 in
      let n = 4000 in
      let a = Load.arrivals ~seed (Load.Poisson { rate_ops_s }) n in
      (* mean gap = T/n; its stddev is mean/sqrt(n) ~ 1.6%, so 10% is a
         ~6-sigma band: tight enough to catch a wrong rate, loose
         enough to never flake. *)
      let mean_gap = a.(n - 1) /. float_of_int n in
      let expect = 1e9 /. rate_ops_s in
      if Float.abs (mean_gap -. expect) > 0.10 *. expect then
        QCheck.Test.fail_reportf "mean gap %.1f ns, expected %.1f ns" mean_gap
          expect;
      true)

let prop_onoff_duty_cycle =
  QCheck.Test.make ~count:50 ~name:"on-off: arrivals only in ON windows, duty-scaled rate"
    QCheck.(
      quad (int_range 50 500) (int_range 20 100) (int_range 10 100)
        (int_range 0 10_000))
    (fun (rate_kops, on_us, off_us, seed) ->
      let rate_ops_s = float_of_int rate_kops *. 1e3 in
      let on_ns = float_of_int on_us *. 1e3
      and off_ns = float_of_int off_us *. 1e3 in
      let proc = Load.On_off { rate_ops_s; on_ns; off_ns } in
      let n = 4000 in
      let a = Load.arrivals ~seed proc n in
      (* Every arrival's phase within its period must land in the ON
         window — the wall mapping inserts whole OFF intervals. *)
      Array.iter
        (fun t ->
          let period = on_ns +. off_ns in
          let phase = t -. (Float.floor (t /. period) *. period) in
          if phase > on_ns +. 1e-6 then
            QCheck.Test.fail_reportf "arrival in OFF window (phase %.1f > on %.1f)"
              phase on_ns)
        a;
      (* Long-run achieved rate = rate * duty cycle. *)
      let expect = Load.nominal_rate_ops_s proc in
      let got = float_of_int n /. a.(n - 1) *. 1e9 in
      if Float.abs (got -. expect) > 0.10 *. expect then
        QCheck.Test.fail_reportf "long-run rate %.0f ops/s, expected %.0f" got
          expect;
      true)

let prop_diurnal_mean =
  QCheck.Test.make ~count:50 ~name:"diurnal envelope integrates to the mean rate"
    QCheck.(
      quad (int_range 50 500) (int_range 0 10) (int_range 10 50)
        (int_range 0 10_000))
    (fun (mean_kops, amp10, period_10us, seed) ->
      let mean_ops_s = float_of_int mean_kops *. 1e3 in
      let period_ns = float_of_int period_10us *. 1e4 in
      let proc =
        Load.Diurnal
          { mean_ops_s; amplitude = float_of_int amp10 /. 10.0; period_ns }
      in
      let n = 4000 in
      let a = Load.arrivals ~seed proc n in
      (* Truncate to whole periods so the sinusoid integrates out. *)
      let whole = Float.floor (a.(n - 1) /. period_ns) *. period_ns in
      if whole > 0.0 then begin
        let k = ref 0 in
        Array.iter (fun t -> if t <= whole then incr k) a;
        let got = float_of_int !k /. whole *. 1e9 in
        if Float.abs (got -. mean_ops_s) > 0.12 *. mean_ops_s then
          QCheck.Test.fail_reportf "rate over whole periods %.0f, mean %.0f"
            got mean_ops_s
      end;
      true)

let test_diurnal_peak_vs_trough () =
  (* amplitude 0.8: the half-period around the sine peak must carry
     visibly more arrivals than the half around the trough. *)
  let period_ns = 1e6 in
  let a =
    Load.arrivals ~seed:7
      (Load.Diurnal { mean_ops_s = 200_000.0; amplitude = 0.8; period_ns })
      8000
  in
  let peak = ref 0 and trough = ref 0 in
  Array.iter
    (fun t ->
      let phase = t -. (Float.floor (t /. period_ns) *. period_ns) in
      (* sin(2πx/T) >= 0 on [0, T/2) — the "day" half. *)
      if phase < period_ns /. 2.0 then incr peak else incr trough)
    a;
  Alcotest.(check bool)
    (Printf.sprintf "peak half (%d) > 1.5x trough half (%d)" !peak !trough)
    true
    (float_of_int !peak > 1.5 *. float_of_int !trough)

let test_replay_exact () =
  let gaps = [| 100; 200; 300 |] in
  let a = Load.arrivals ~seed:1 (Load.Replay { gaps_ns = gaps }) 7 in
  Alcotest.(check (array (float 0.0)))
    "gaps accumulate and loop"
    [| 100.; 300.; 600.; 700.; 900.; 1200.; 1300. |]
    a

let test_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative rate" true
    (raises (fun () -> Load.generator (Load.Poisson { rate_ops_s = -1.0 })));
  Alcotest.(check bool) "amplitude > 1" true
    (raises (fun () ->
         Load.generator
           (Load.Diurnal { mean_ops_s = 1.0; amplitude = 1.5; period_ns = 1e6 })));
  Alcotest.(check bool) "empty trace" true
    (raises (fun () -> Load.generator (Load.Replay { gaps_ns = [||] })));
  Alcotest.(check bool) "zero on-window" true
    (raises (fun () ->
         Load.generator
           (Load.On_off { rate_ops_s = 1.0; on_ns = 0.0; off_ns = 1.0 })))

(* ------------------------------------------------------------------ *)
(* Harness: CO-corrected vs naive                                      *)
(* ------------------------------------------------------------------ *)

(* Drive Load.run against a synthetic service: each submit blocks the
   injector for a fixed simulated service time. With enough injectors
   the offered schedule is always met and the two views coincide; with
   few injectors and a hot schedule the sends lag and only the
   corrected view sees it. *)
let run_synthetic ~rate_kops ~injectors ~service_ns ~total =
  in_sim (fun m ->
      let spec =
        {
          Load.default_spec with
          proc = Load.Poisson { rate_ops_s = rate_kops *. 1e3 };
          seed = 42;
          total;
          injectors;
        }
      in
      Load.run m spec ~submit:(fun ~injector:_ ~scheduled:_ ->
          Engine.wait service_ns;
          true))

let test_below_saturation_views_agree () =
  (* 16 injectors x 10µs service = 1.6 Mops/s capacity; offered 50k. *)
  let res = run_synthetic ~rate_kops:50.0 ~injectors:16 ~service_ns:10_000.0 ~total:2000 in
  let r = res.Load.recorder in
  Alcotest.(check int) "all completed" 2000 res.Load.completed;
  Alcotest.(check int) "no drops" 0 res.Load.dropped;
  let c = Lab_obs.Latrec.corrected_quantile r 0.99
  and n = Lab_obs.Latrec.naive_quantile r 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "CO p99 %.0f within 1%% of naive %.0f" c n)
    true
    (c <= 1.01 *. n);
  Alcotest.(check (float 0.0)) "no injection lag" 0.0
    (Lab_obs.Latrec.lag_max_ns r)

let test_under_stall_corrected_dominates () =
  (* 2 injectors x 10µs service = 200 kops/s capacity; offered 800k:
     the schedule runs 4x ahead of the senders. *)
  let res = run_synthetic ~rate_kops:800.0 ~injectors:2 ~service_ns:10_000.0 ~total:2000 in
  let r = res.Load.recorder in
  let c = Lab_obs.Latrec.corrected_quantile r 0.99
  and n = Lab_obs.Latrec.naive_quantile r 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "CO p99 %.0f >= 5x naive %.0f" c n)
    true
    (c >= 5.0 *. n);
  Alcotest.(check bool) "late injections counted" true (res.Load.late > 0);
  Alcotest.(check bool) "injection lag visible" true
    (Lab_obs.Latrec.lag_max_ns r > 0.0)

let test_queue_cap_sheds () =
  (* Capacity 100 kops/s (1 injector), offered 2 Mops/s, backlog cap 8:
     most arrivals must be shed, and shed + completed = generated. *)
  let res =
    in_sim (fun m ->
        let spec =
          {
            Load.default_spec with
            proc = Load.Poisson { rate_ops_s = 2_000_000.0 };
            seed = 7;
            total = 1000;
            injectors = 1;
            queue_cap = 8;
          }
        in
        Load.run m spec ~submit:(fun ~injector:_ ~scheduled:_ ->
            Engine.wait 10_000.0;
            true))
  in
  Alcotest.(check bool) "drops happened" true (res.Load.dropped > 0);
  Alcotest.(check int) "conservation" 1000 (res.Load.completed + res.Load.dropped)

let test_harness_deterministic () =
  let fp () =
    let res = run_synthetic ~rate_kops:400.0 ~injectors:4 ~service_ns:9_000.0 ~total:1500 in
    let r = res.Load.recorder in
    ( res.Load.elapsed_ns,
      Lab_obs.Latrec.corrected_quantile r 0.99,
      Lab_obs.Latrec.naive_quantile r 0.99,
      res.Load.late )
  in
  let e1, c1, n1, l1 = fp () and e2, c2, n2, l2 = fp () in
  Alcotest.(check (float 0.0)) "elapsed (exact)" e1 e2;
  Alcotest.(check (float 0.0)) "CO p99 (exact)" c1 c2;
  Alcotest.(check (float 0.0)) "naive p99 (exact)" n1 n2;
  Alcotest.(check int) "late count" l1 l2

(* A pinned schedule: Poisson at 300 kops/s against 4 injectors of a
   fixed 12 us service (333 kops/s of capacity) and a 16-deep backlog,
   so the run crosses every harness path: idle injectors woken by an
   arrival, a backlog drained by busy ones, lag past the late threshold
   and shed arrivals. The literals are this schedule's outcome; any
   change to the generator, the backlog or the recorder moves one. *)
let pinned_spec =
  {
    Load.default_spec with
    proc = Load.Poisson { rate_ops_s = 300_000.0 };
    seed = 1;
    total = 2000;
    injectors = 4;
    queue_cap = 4;
  }

(* Minor words per arrival of the whole pinned run, harness and
   service together: 10.98 measured, 29.12 while the backlog was a
   [float Queue.t] and the clock was read through [Machine.now]. *)
let pinned_words_bound = 12.0

let run_pinned () =
  let words = ref 0.0 in
  let res =
    in_sim (fun m ->
        let w0 = Gc.minor_words () in
        let res =
          Load.run m pinned_spec ~submit:(fun ~injector:_ ~scheduled:_ ->
              Engine.wait 12_000.0;
              true)
        in
        words := Gc.minor_words () -. w0;
        res)
  in
  (res, !words /. 2000.0)

let test_pinned_schedule () =
  let res, words_per_arrival = run_pinned () in
  let r = res.Load.recorder in
  Alcotest.(check int) "generated" 2000 res.Load.generated;
  Alcotest.(check int) "completed" 1892 res.Load.completed;
  Alcotest.(check int) "dropped" 108 res.Load.dropped;
  Alcotest.(check int) "late" 1072 res.Load.late;
  Alcotest.(check (float 0.0)) "elapsed" 6866576.0 res.Load.elapsed_ns;
  let quantiles name f expect =
    List.iter2
      (fun p v ->
        Alcotest.(check (float 0.0)) (Printf.sprintf "%s p%g" name p) v (f p))
      [ 0.5; 0.99; 0.999 ] expect
  in
  quantiles "corrected" (Lab_obs.Latrec.corrected_quantile r)
    [ 14335.0; 23996.0; 23996.0 ];
  quantiles "naive" (Lab_obs.Latrec.naive_quantile r)
    [ 12000.0; 12000.0; 12000.0 ];
  quantiles "lag" (Lab_obs.Latrec.Hist.quantile (Lab_obs.Latrec.lag r))
    [ 2303.0; 11996.0; 11996.0 ];
  (* The harness's own share is what the bound is for; the rest is the
     service's [Engine.wait] and the engine. Native only: bytecode
     allocates differently. *)
  if Sys.backend_type = Sys.Native then
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words per arrival (bound %.1f)"
         words_per_arrival pinned_words_bound)
      true
      (words_per_arrival <= pinned_words_bound)

(* ------------------------------------------------------------------ *)
(* Recorder + SLO units                                                *)
(* ------------------------------------------------------------------ *)

let test_recorder_semantics () =
  let r = Lab_obs.Latrec.create ~late_threshold_ns:100.0 () in
  (* on time: scheduled == sent *)
  Lab_obs.Latrec.record r ~scheduled:0.0 ~sent:0.0 ~completed:500.0 ~ok:true;
  (* late: sent 400ns after schedule; corrected sees 900, naive 500 *)
  Lab_obs.Latrec.record r ~scheduled:1000.0 ~sent:1400.0 ~completed:1900.0
    ~ok:true;
  Lab_obs.Latrec.drop r;
  Alcotest.(check int) "late" 1 (Lab_obs.Latrec.late r);
  Alcotest.(check int) "dropped" 1 (Lab_obs.Latrec.dropped r);
  let c99 = Lab_obs.Latrec.corrected_quantile r 0.99
  and n99 = Lab_obs.Latrec.naive_quantile r 0.99 in
  Alcotest.(check bool) "corrected p99 ~900" true (c99 >= 890.0 && c99 <= 910.0);
  Alcotest.(check bool) "naive p99 ~500" true (n99 >= 495.0 && n99 <= 505.0);
  Alcotest.(check (float 1e-9)) "lag max" 400.0 (Lab_obs.Latrec.lag_max_ns r);
  Alcotest.(check (float 1e-9)) "lag mean" 200.0 (Lab_obs.Latrec.lag_mean_ns r)

let test_hist_exact_min_max () =
  (* Satellite guarantee: snapshots carry the exact extrema and count,
     not bucket midpoints. *)
  let h = Lab_obs.Metrics.histogram "test_load.minmax" in
  List.iter (fun v -> Lab_obs.Hist.observe h v) [ 123.0; 77.5; 90001.25 ];
  Alcotest.(check (float 0.0)) "exact min" 77.5 (Lab_obs.Hist.min_value h);
  Alcotest.(check (float 0.0)) "exact max" 90001.25 (Lab_obs.Hist.max_value h);
  Alcotest.(check int) "count" 3 (Lab_obs.Hist.count h)

let test_slo_burn () =
  (* 1% error budget, p99 target 100ns, 1µs windows. A window where
     every observation violates the target burns at the full 100x. *)
  let s =
    Lab_obs.Latrec.Slo.create ~name:"t" ~p99_target_ns:100.0
      ~error_budget:0.01 ~window_ns:1000.0 ()
  in
  for i = 0 to 99 do
    Lab_obs.Latrec.Slo.observe s ~latency_ns:10.0
      ~now:(float_of_int i *. 100.0)
  done;
  Alcotest.(check bool) "healthy: burn <= 1" true
    (Lab_obs.Latrec.Slo.burn_rate s <= 1.0);
  let b0 = Lab_obs.Latrec.Slo.budget_remaining s in
  for i = 0 to 99 do
    Lab_obs.Latrec.Slo.observe s ~latency_ns:1e6
      ~now:(10_000.0 +. (float_of_int i *. 100.0))
  done;
  Alcotest.(check bool) "violating: burn >= 10" true
    (Lab_obs.Latrec.Slo.burn_rate s >= 10.0);
  Alcotest.(check bool) "budget consumed" true
    (Lab_obs.Latrec.Slo.budget_remaining s < b0)

(* ------------------------------------------------------------------ *)
(* Latrec edges: empty and single-sample behaviour                     *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = Lab_obs.Latrec.Hist.create () in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty q%.3f" q)
        0.0
        (Lab_obs.Latrec.Hist.quantile h q))
    [ 0.0; 0.5; 0.99; 0.999; 1.0 ];
  Alcotest.(check (float 0.0)) "empty min" 0.0 (Lab_obs.Latrec.Hist.min_value h);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Lab_obs.Latrec.Hist.max_value h);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Lab_obs.Latrec.Hist.mean h);
  (* An empty recorder answers every quantile with 0 too. *)
  let r = Lab_obs.Latrec.create () in
  Alcotest.(check (float 0.0)) "recorder empty p99" 0.0
    (Lab_obs.Latrec.corrected_quantile r 0.99);
  Alcotest.(check (float 0.0)) "recorder empty naive" 0.0
    (Lab_obs.Latrec.naive_quantile r 0.99);
  Alcotest.(check (float 0.0)) "recorder empty lag max" 0.0
    (Lab_obs.Latrec.lag_max_ns r)

let test_hist_single_sample () =
  (* One observation: every quantile is that observation — the [min,max]
     clamp collapses the bucket midpoint to the exact value. *)
  let h = Lab_obs.Latrec.Hist.create () in
  Lab_obs.Latrec.Hist.observe h 7777.5;
  Alcotest.(check (float 0.0)) "min" 7777.5 (Lab_obs.Latrec.Hist.min_value h);
  Alcotest.(check (float 0.0)) "max" 7777.5 (Lab_obs.Latrec.Hist.max_value h);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q%.3f = the sample" q)
        7777.5
        (Lab_obs.Latrec.Hist.quantile h q))
    [ 0.0; 0.5; 0.999; 1.0 ]

let test_slo_empty_window () =
  (* No observations at all: burn is the cumulative bad fraction (0/0
     guarded to 0) and the budget is untouched. *)
  let s =
    Lab_obs.Latrec.Slo.create ~name:"empty" ~p99_target_ns:100.0
      ~error_budget:0.01 ~window_ns:1000.0 ()
  in
  Alcotest.(check (float 0.0)) "no obs: burn 0" 0.0
    (Lab_obs.Latrec.Slo.burn_rate s);
  Alcotest.(check (float 0.0)) "no obs: budget intact" 1.0
    (Lab_obs.Latrec.Slo.budget_remaining s);
  (* Ticking across many empty windows (no floor set) must not burn:
     zero demand, zero service is not a violation. *)
  Lab_obs.Latrec.Slo.tick s ~now:50_000.0;
  Alcotest.(check (float 0.0)) "idle windows: burn 0" 0.0
    (Lab_obs.Latrec.Slo.burn_rate s);
  Alcotest.(check (float 0.0)) "idle windows: budget intact" 1.0
    (Lab_obs.Latrec.Slo.budget_remaining s);
  (* With a throughput floor, an idle gap after the clock has started
     IS a violation: every empty window misses its demanded ops and
     burns budget. (The first tick only starts the clock — windows are
     anchored at the first event, not at t=0.) *)
  let f =
    Lab_obs.Latrec.Slo.create ~name:"floor" ~floor_ops_s:1e6
      ~error_budget:0.01 ~window_ns:1000.0 ()
  in
  Lab_obs.Latrec.Slo.tick f ~now:0.0;
  Lab_obs.Latrec.Slo.tick f ~now:50_000.0;
  Alcotest.(check bool) "floor: deficit accrued" true
    (Lab_obs.Latrec.Slo.floor_deficit f > 0.0);
  Alcotest.(check bool) "floor: budget burned" true
    (Lab_obs.Latrec.Slo.budget_remaining f < 1.0)

let test_slo_on_roll () =
  (* The window-close hook fires once per closed window — including the
     empty windows an idle gap closes — with the rolled burn rate. *)
  let s =
    Lab_obs.Latrec.Slo.create ~name:"hook" ~p99_target_ns:100.0
      ~error_budget:0.5 ~window_ns:1000.0 ()
  in
  let rolls = ref [] in
  Lab_obs.Latrec.Slo.set_on_roll s (fun ~now ~burn ->
      rolls := (now, burn) :: !rolls);
  (* The first observation anchors the window at t=100: [100,1100) sees
     one bad of two → bad fraction 0.5 → burn 1.0. *)
  Lab_obs.Latrec.Slo.observe s ~latency_ns:10.0 ~now:100.0;
  Lab_obs.Latrec.Slo.observe s ~latency_ns:1e6 ~now:200.0;
  (* Jumping to t=3500 closes [100,1100), [1100,2100), [2100,3100). *)
  Lab_obs.Latrec.Slo.observe s ~latency_ns:10.0 ~now:3500.0;
  match List.rev !rolls with
  | (n1, b1) :: (_, b2) :: (_, b3) :: [] ->
      Alcotest.(check (float 0.0)) "first roll at window end" 1100.0 n1;
      Alcotest.(check (float 1e-9)) "first burn = 1.0" 1.0 b1;
      Alcotest.(check (float 0.0)) "empty window burns 0" 0.0 b2;
      Alcotest.(check (float 0.0)) "empty window burns 0" 0.0 b3
  | rolls -> Alcotest.failf "expected 3 rolls, got %d" (List.length rolls)

let () =
  Alcotest.run "load"
    [
      ( "streams",
        [
          QCheck_alcotest.to_alcotest prop_same_seed_deterministic;
          QCheck_alcotest.to_alcotest prop_poisson_mean;
          QCheck_alcotest.to_alcotest prop_onoff_duty_cycle;
          QCheck_alcotest.to_alcotest prop_diurnal_mean;
          Alcotest.test_case "diurnal peak vs trough" `Quick
            test_diurnal_peak_vs_trough;
          Alcotest.test_case "replay exact" `Quick test_replay_exact;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "harness",
        [
          Alcotest.test_case "below saturation: views agree" `Quick
            test_below_saturation_views_agree;
          Alcotest.test_case "under stalls: corrected >= 5x naive" `Quick
            test_under_stall_corrected_dominates;
          Alcotest.test_case "queue cap sheds" `Quick test_queue_cap_sheds;
          Alcotest.test_case "same-seed determinism" `Quick
            test_harness_deterministic;
          Alcotest.test_case "pinned schedule" `Quick test_pinned_schedule;
        ] );
      ( "latrec",
        [
          Alcotest.test_case "recorder semantics" `Quick test_recorder_semantics;
          Alcotest.test_case "hist exact min/max" `Quick test_hist_exact_min_max;
          Alcotest.test_case "slo burn" `Quick test_slo_burn;
          Alcotest.test_case "hist empty" `Quick test_hist_empty;
          Alcotest.test_case "hist single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "slo empty window" `Quick test_slo_empty_window;
          Alcotest.test_case "slo on_roll hook" `Quick test_slo_on_roll;
        ] );
    ]
