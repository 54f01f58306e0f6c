(* Tests for lab_obs and its wiring: metrics registry semantics,
   span-tracer telescoping, exporter byte-stability, and the
   platform-level guarantees (trace determinism across identical runs,
   span nesting, zero overhead / zero events with sampling off). *)

open Labstor
module Metrics = Lab_obs.Metrics
module Hist = Lab_obs.Hist
module Trace = Lab_obs.Trace
module Timeseries = Lab_obs.Timeseries
module Profile = Lab_obs.Profile
module Exemplar = Lab_obs.Exemplar
module Flightrec = Lab_obs.Flightrec

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_interning () =
  let reg = Metrics.create () in
  let a = Metrics.counter ~reg "x.count" in
  Metrics.incr a;
  Metrics.incr ~by:4 a;
  (* Re-requesting the name yields the same instrument. *)
  let b = Metrics.counter ~reg "x.count" in
  Alcotest.(check int) "shared value" 5 (Metrics.value b);
  Metrics.incr b;
  Alcotest.(check int) "visible through first handle" 6 (Metrics.value a);
  (* One exported entry, not two. *)
  Alcotest.(check int) "one instrument" 1 (List.length (Metrics.to_list reg))

let test_kind_clash_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter ~reg "x");
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics: \"x\" already registered as a counter")
    (fun () -> ignore (Metrics.histogram ~reg "x"))

let test_detached_counter () =
  let reg = Metrics.create () in
  let d = Metrics.counter "floating" in
  Metrics.incr ~by:7 d;
  Alcotest.(check int) "records" 7 (Metrics.value d);
  Alcotest.(check int) "invisible to export" 0
    (List.length (Metrics.to_list reg))

let test_gauge_replace () =
  let reg = Metrics.create () in
  Metrics.gauge_fn reg "g" (fun () -> 1.0);
  Metrics.gauge_fn reg "g" (fun () -> 2.0);
  match Metrics.to_list reg with
  | [ ("g", Metrics.V_gauge v) ] -> Alcotest.(check (float 0.0)) "latest" 2.0 v
  | _ -> Alcotest.fail "expected exactly one gauge"

let test_gauge_read_through () =
  let reg = Metrics.create () in
  let cell = ref 0.0 in
  Metrics.gauge_fn reg "live" (fun () -> !cell);
  cell := 42.0;
  match Metrics.to_list reg with
  | [ ("live", Metrics.V_gauge v) ] ->
      Alcotest.(check (float 0.0)) "sampled at export" 42.0 v
  | _ -> Alcotest.fail "expected exactly one gauge"

let test_histogram_quantiles () =
  let h = Metrics.histogram "h" in
  (* Values below 32 have exact buckets; larger ones report the
     bucket's upper bound clamped into the exact [min, max]. *)
  List.iter (Hist.observe h) [ 3.0; 3.0; 3.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 1009.0 (Hist.sum h);
  Alcotest.(check (float 0.0)) "p50 exact below 32" 3.0 (Hist.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p999 clamped to the max" 1000.0
    (Hist.quantile h 0.999);
  let empty = Metrics.histogram "h2" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Hist.quantile empty 0.5);
  (* [clear] resets every statistic in place; the histogram stays
     usable and its old buckets do not leak into new quantiles. *)
  Hist.clear h;
  Alcotest.(check int) "cleared count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "cleared sum" 0.0 (Hist.sum h);
  Alcotest.(check (float 0.0)) "cleared min" 0.0 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "cleared max" 0.0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "cleared p50" 0.0 (Hist.quantile h 0.5);
  Alcotest.(check (list (pair (float 0.0) int))) "cleared buckets" []
    (Hist.buckets h);
  List.iter (Hist.observe h) [ 7.0; 9.0 ];
  Alcotest.(check int) "reused count" 2 (Hist.count h);
  Alcotest.(check (float 0.0)) "reused sum" 16.0 (Hist.sum h);
  Alcotest.(check (float 0.0)) "reused min" 7.0 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "reused max" 9.0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "reused p50" 7.0 (Hist.quantile h 0.5);
  Alcotest.(check (float 0.0)) "reused p100" 9.0 (Hist.quantile h 1.0)

(* [observe] runs on every request (runtime, client, device, recorders),
   so once its buckets cover the value it must allocate nothing: the
   float state is unboxed. Native only for the words. *)
let test_hist_observe_words () =
  let h = Hist.create () in
  let v = 12_345.0 in
  Hist.observe h v;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Hist.observe h v
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every observation counted" 10_001 (Hist.count h);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "observe allocates nothing (got %.0f words / 10k)" words)
        true (words <= 2.0)
  | Sys.Bytecode | Sys.Other _ -> ()

let test_hist_huge_values () =
  (* Values past the int range must not wrap [int_of_float] to a
     negative index (an out-of-bounds write) or to bucket 0: they share
     the last bucket, and the envelope stays exact. *)
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 5e18; 1e300; Float.max_float ];
  Alcotest.(check int) "all counted" 3 (Hist.count h);
  Alcotest.(check (float 0.0)) "exact min" 5e18 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "exact max" Float.max_float (Hist.max_value h);
  List.iter
    (fun q ->
      let v = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.3f within [min,max]" q)
        true
        (v >= 5e18 && v <= Float.max_float))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (match Hist.buckets h with
  | [ (_, 3) ] -> ()
  | _ -> Alcotest.fail "expected one shared top bucket");
  (* A small value after the huge ones still lands in its exact bucket. *)
  Hist.observe h 7.0;
  Alcotest.(check (float 0.0)) "p0 exact" 7.0 (Hist.quantile h 0.0)

(* Random integer ns values: 0, the exact range below 32, and values up
   to 2^40, mixed so the sub-32 and log2x32 ranges share one histogram.
   The mean is exact (these sums fit a double's mantissa) and so lies in
   [min, max]; quantiles are within 2^-4. *)
let prop_hist_quantile_accuracy =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (frequency
           [
             (1, return 0);
             (3, int_range 1 31);
             (6, map (fun e -> 1 lsl e) (int_range 5 40) >>= fun hi -> int_range 0 hi);
           ]))
  in
  QCheck.Test.make ~name:"hist quantile within 2^-4 of exact nearest rank"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list int) gen)
    (fun vs ->
      let h = Hist.create () in
      List.iter (fun v -> Hist.observe h (float_of_int v)) vs;
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      let exact_mean =
        float_of_int (List.fold_left ( + ) 0 vs) /. float_of_int n
      in
      Hist.mean h = exact_mean
      && exact_mean >= Hist.min_value h
      && exact_mean <= Hist.max_value h
      && List.for_all
        (fun q ->
          let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = float_of_int sorted.(rank - 1) in
          let est = Hist.quantile h q in
          est >= Hist.min_value h
          && est <= Hist.max_value h
          && Float.abs (est -. exact) <= exact *. Float.ldexp 1.0 (-4))
        [ 0.5; 0.99; 0.999 ])

(* Fractional ns values below 32 (with a few whole and larger ones
   mixed in): a value is bucketed by its whole part, so a quantile reads
   at most 1 ns below the exact nearest-rank value and never above it
   below 32 — never more than 2^-4 above it past 32 — and always lies in
   [min, max]. *)
let prop_hist_fractional_sub32 =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (frequency
           [
             (8, map2 (fun i k -> float_of_int i +. (float_of_int k /. 1000.0))
                   (int_range 0 31) (int_range 1 999));
             (1, map float_of_int (int_range 0 31));
             (1, map (fun k -> 32.0 +. (float_of_int k /. 1000.0)) (int_range 0 1_000_000));
           ]))
  in
  QCheck.Test.make ~name:"hist fractional sub-32 quantiles within 1 ns below"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list float) gen)
    (fun vs ->
      let h = Hist.create () in
      List.iter (Hist.observe h) vs;
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          let est = Hist.quantile h q in
          let above = if exact < 32.0 then 0.0 else exact *. Float.ldexp 1.0 (-4) in
          est >= Hist.min_value h
          && est <= Hist.max_value h
          && est > exact -. 1.0
          && est <= exact +. above)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let build_registry () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter ~reg "b.count");
  Metrics.gauge_fn reg "a.gauge" (fun () -> 1.5);
  let h = Metrics.histogram ~reg "c.hist" in
  List.iter (Hist.observe h) [ 10.0; 20.0; 3000.0 ];
  reg

let test_jsonl_stable () =
  let a = Metrics.to_jsonl (build_registry ()) in
  let b = Metrics.to_jsonl (build_registry ()) in
  Alcotest.(check string) "byte-identical" a b;
  (* Sorted by name, one object per line. *)
  let lines = String.split_on_char '\n' (String.trim a) in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let name_of l = String.sub l 0 (Stdlib.min 12 (String.length l)) in
  Alcotest.(check (list string)) "sorted"
    [ "{\"name\":\"a.g"; "{\"name\":\"b.c"; "{\"name\":\"c.h" ]
    (List.map name_of lines)

let test_nonfinite_clamped () =
  let reg = Metrics.create () in
  Metrics.gauge_fn reg "bad" (fun () -> Float.nan);
  let j = Metrics.to_jsonl reg in
  Alcotest.(check bool) "nan clamped" true
    (String.length j > 0
    && not
         (String.fold_left (fun acc c -> acc || c = 'n') false
            (String.sub j 20 (String.length j - 20))))

let test_observe_clamps_nonfinite () =
  (* Clamped at record time: one NaN must not poison the running sum. *)
  let h = Metrics.histogram "clamp" in
  Hist.observe h Float.nan;
  Hist.observe h Float.infinity;
  Hist.observe h Float.neg_infinity;
  Hist.observe h 8.0;
  Alcotest.(check int) "all observations counted" 4 (Hist.count h);
  Alcotest.(check bool) "sum stayed finite" true
    (Float.is_finite (Hist.sum h));
  Alcotest.(check (float 1e-9)) "non-finite recorded as 0" 8.0
    (Hist.sum h)

let test_gauge_clamped_at_read () =
  (* Clamped in to_list itself, not only in the JSONL exporter, so every
     consumer of snapshots sees finite values. *)
  let reg = Metrics.create () in
  Metrics.gauge_fn reg "nan" (fun () -> Float.nan);
  Metrics.gauge_fn reg "inf" (fun () -> Float.infinity);
  List.iter
    (fun (_, v) ->
      match v with
      | Metrics.V_gauge g -> Alcotest.(check (float 0.0)) "clamped to 0" 0.0 g
      | _ -> Alcotest.fail "expected gauges")
    (Metrics.to_list reg)

(* ------------------------------------------------------------------ *)
(* Span tracer                                                         *)
(* ------------------------------------------------------------------ *)

let test_sampling_predicate () =
  let off = Trace.create () in
  Alcotest.(check bool) "off" false (Trace.sampled off ~id:0);
  (* sample:1 always samples — the hash never changes "every request". *)
  let all = Trace.create ~sample:1 () in
  for id = 0 to 99 do
    Alcotest.(check bool) "sample 1" true (Trace.sampled all ~id)
  done;
  (* sample:N picks ids by a mixed hash, not [id mod N = 0]: strided id
     streams (every client stamping ids k, k+8, k+16, …) must not alias
     to all-or-nothing selections. The choice is deterministic, roughly
     1/N of any stride, and never the plain head-of-stride rule. *)
  let tr = Trace.create ~sample:3 () in
  let count stride =
    let n = ref 0 in
    for i = 0 to 2999 do
      if Trace.sampled tr ~id:(i * stride) then incr n
    done;
    !n
  in
  List.iter
    (fun stride ->
      let n = count stride in
      Alcotest.(check bool)
        (Printf.sprintf "stride %d near 1/3" stride)
        true
        (n > 800 && n < 1200))
    [ 1; 3; 8 ];
  (* Deterministic: same id, same verdict. *)
  Alcotest.(check bool) "stable" (Trace.sampled tr ~id:6) (Trace.sampled tr ~id:6);
  (* An unsampled id (no exemplar store attached) starts no flow. *)
  let unsampled =
    let id = ref 0 in
    while Trace.sampled tr ~id:!id do incr id done;
    !id
  in
  Alcotest.(check bool) "start unsampled" true
    (Trace.start tr ~id:unsampled [| 0.0 |] 0 = None)

let test_stage_telescoping () =
  let tr = Trace.create ~sample:1 () in
  let fl = Option.get (Trace.start tr ~id:5 [| 10.0 |] 0) in
  Trace.open_stage fl ~name:"one" ~now:10.0;
  Trace.close_stage fl ~tid:0 ~now:25.0;
  Trace.open_stage fl ~name:"two" ~now:25.0;
  Trace.finish fl ~tid:0 ~now:40.0;
  match Trace.events tr with
  | [ one; two; root ] ->
      Alcotest.(check string) "first stage" "one" one.Trace.ev_name;
      Alcotest.(check (float 0.0)) "one dur" 15.0 one.Trace.ev_dur;
      Alcotest.(check (float 0.0)) "two dur" 15.0 two.Trace.ev_dur;
      Alcotest.(check string) "root" "request" root.Trace.ev_name;
      Alcotest.(check (float 0.0)) "root ts" 10.0 root.Trace.ev_ts;
      Alcotest.(check (float 0.0)) "root dur" 30.0 root.Trace.ev_dur;
      Alcotest.(check (float 0.0))
        "stages tile the root" root.Trace.ev_dur
        (one.Trace.ev_dur +. two.Trace.ev_dur)
  | evs -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs))

let test_chrome_json_stable () =
  let build () =
    let tr = Trace.create ~sample:1 () in
    let fl = Option.get (Trace.start tr ~id:2 [| 100.0 |] 0) in
    Trace.instant fl ~name:"hit" ~tid:3 ~now:150.0;
    Trace.span fl ~name:"mod" ~cat:"mod" ~tid:3 ~t0:120.0 ~t1:180.0
      ~args:[ ("uuid", "m0") ];
    Trace.finish fl ~tid:3 ~now:200.0;
    Trace.to_chrome_json tr
  in
  let a = build () in
  Alcotest.(check string) "byte-identical" a (build ());
  Alcotest.(check bool) "has traceEvents" true
    (String.length a > 0 && String.sub a 0 1 = "{")

(* ------------------------------------------------------------------ *)
(* Timeseries sampler                                                  *)
(* ------------------------------------------------------------------ *)

let test_timeseries_ticks_and_samples () =
  let ts = Timeseries.create ~capacity:8 ~period:10.0 () in
  let calls = ref 0 in
  Timeseries.add_series ts "probe.calls" (fun _now ->
      incr calls;
      Stdlib.float_of_int !calls);
  Timeseries.add_series ts "probe.time" (fun now -> now);
  Timeseries.tick ts ~now:10.0;
  Timeseries.tick ts ~now:20.0;
  Timeseries.tick ts ~now:30.0;
  Alcotest.(check int) "ticks" 3 (Timeseries.ticks ts);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "samples oldest first"
    [ (10.0, 1.0); (20.0, 2.0); (30.0, 3.0) ]
    (Timeseries.samples ts "probe.calls");
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "probe sees the sample instant"
    [ (10.0, 10.0); (20.0, 20.0); (30.0, 30.0) ]
    (Timeseries.samples ts "probe.time");
  Alcotest.(check (list string)) "names sorted"
    [ "probe.calls"; "probe.time" ]
    (Timeseries.series_names ts)

let test_timeseries_ring_wrap () =
  let ts = Timeseries.create ~capacity:4 ~period:1.0 () in
  Timeseries.add_series ts "s" (fun now -> now);
  for i = 1 to 6 do
    Timeseries.tick ts ~now:(Stdlib.float_of_int i)
  done;
  (* Capacity 4: the two oldest samples were overwritten. *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "last four, oldest first"
    [ (3.0, 3.0); (4.0, 4.0); (5.0, 5.0); (6.0, 6.0) ]
    (Timeseries.samples ts "s");
  match Timeseries.stats ts with
  | [ s ] ->
      Alcotest.(check int) "count" 4 s.Timeseries.st_count;
      Alcotest.(check (float 1e-9)) "mean" 4.5 s.Timeseries.st_mean;
      Alcotest.(check (float 0.0)) "max" 6.0 s.Timeseries.st_max;
      Alcotest.(check (float 0.0)) "last" 6.0 s.Timeseries.st_last
  | l -> Alcotest.fail (Printf.sprintf "expected 1 stat, got %d" (List.length l))

let test_timeseries_guards () =
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Timeseries.create: period must be positive") (fun () ->
      ignore (Timeseries.create ~period:0.0 ()));
  let ts = Timeseries.create ~period:1.0 () in
  Timeseries.add_series ts "dup" (fun _ -> 0.0);
  Alcotest.check_raises "duplicate series"
    (Invalid_argument "Timeseries.add_series: \"dup\" already registered")
    (fun () -> Timeseries.add_series ts "dup" (fun _ -> 1.0));
  (* Non-finite probe values are clamped at record time. *)
  Timeseries.add_series ts "nan" (fun _ -> Float.nan);
  Timeseries.tick ts ~now:1.0;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "nan clamped" [ (1.0, 0.0) ]
    (Timeseries.samples ts "nan")

let test_timeseries_json_stable () =
  let build () =
    let ts = Timeseries.create ~capacity:8 ~period:5.0 () in
    Timeseries.add_series ts "b" (fun now -> now *. 2.0);
    Timeseries.add_series ts "a" (fun now -> now);
    Timeseries.tick ts ~now:5.0;
    Timeseries.tick ts ~now:10.0;
    Timeseries.to_json ts
  in
  let a = build () in
  Alcotest.(check string) "byte-identical" a (build ());
  (* Series sorted by name in the export. *)
  let find_sub sub =
    let n = String.length a and m = String.length sub in
    let rec go i =
      if i + m > n then -1 else if String.sub a i m = sub then i else go (i + 1)
    in
    go 0
  in
  let ia = find_sub "\"a\"" and ib = find_sub "\"b\"" in
  Alcotest.(check bool) "sorted series" true (ia >= 0 && ib >= 0 && ia < ib)

(* ------------------------------------------------------------------ *)
(* Profile (flamegraph + tail attribution)                             *)
(* ------------------------------------------------------------------ *)

(* One synthetic request: root [0,20] containing stage "work" [0,10]
   containing mod "cache" [2,8]. *)
let synthetic_trace () =
  let tr = Trace.create ~sample:1 () in
  let fl = Option.get (Trace.start tr ~id:2 [| 0.0 |] 0) in
  Trace.span fl ~name:"cache" ~cat:"mod" ~tid:0 ~t0:2.0 ~t1:8.0 ~args:[];
  Trace.open_stage fl ~name:"work" ~now:0.0;
  Trace.close_stage fl ~tid:0 ~now:10.0;
  Trace.open_stage fl ~name:"rest" ~now:10.0;
  Trace.finish fl ~tid:0 ~now:20.0;
  Trace.events tr

let test_profile_flamegraph () =
  let p = Profile.of_events (synthetic_trace ()) in
  Alcotest.(check int) "one request" 1 p.Profile.requests;
  let node key =
    match List.find_opt (fun n -> n.Profile.pf_key = key) p.Profile.nodes with
    | Some n -> n
    | None ->
        Alcotest.fail
          (Printf.sprintf "missing key %S among [%s]" key
             (String.concat "; "
                (List.map (fun n -> n.Profile.pf_key) p.Profile.nodes)))
  in
  let root = node "request" in
  Alcotest.(check (float 1e-9)) "root total" 20.0 root.Profile.pf_total_ns;
  (* Stages tile the root exactly: no exclusive time left. *)
  Alcotest.(check (float 1e-9)) "root self" 0.0 root.Profile.pf_self_ns;
  let work = node "request;work" in
  Alcotest.(check (float 1e-9)) "work total" 10.0 work.Profile.pf_total_ns;
  Alcotest.(check (float 1e-9)) "work self excludes mod" 4.0
    work.Profile.pf_self_ns;
  let cache = node "request;work;cache" in
  Alcotest.(check (float 1e-9)) "mod total" 6.0 cache.Profile.pf_total_ns;
  Alcotest.(check (float 1e-9)) "mod self" 6.0 cache.Profile.pf_self_ns;
  ignore (node "request;rest")

let test_profile_tail_and_stability () =
  let evs = synthetic_trace () in
  let p = Profile.of_events evs in
  (* A single request is its own p50 and tail cohort. *)
  Alcotest.(check (float 1e-9)) "p50 = e2e" 20.0 p.Profile.p50_ns;
  Alcotest.(check (float 1e-9)) "p99 = e2e" 20.0 p.Profile.p99_ns;
  Alcotest.(check int) "p50 cohort" 1 p.Profile.p50_cohort;
  Alcotest.(check int) "tail cohort" 1 p.Profile.tail_cohort;
  (match
     List.find_opt (fun r -> r.Profile.tr_stage = "work") p.Profile.tail
   with
  | Some r ->
      Alcotest.(check (float 1e-9)) "stage p50 mean" 10.0
        r.Profile.tr_p50_mean_ns;
      Alcotest.(check (float 1e-9)) "stage tail mean" 10.0
        r.Profile.tr_tail_mean_ns
  | None -> Alcotest.fail "missing work stage in tail table");
  Alcotest.(check string) "json byte-stable"
    (Profile.to_json p)
    (Profile.to_json (Profile.of_events evs))

(* ------------------------------------------------------------------ *)
(* Exemplar store                                                      *)
(* ------------------------------------------------------------------ *)

let offer_simple store ~id ~latency =
  Exemplar.offer store ~id ~t0:0.0 ~latency ~n:1 ~dropped:0
    ~names:[| "stage" |] ~cats:[| "stage" |] ~t0s:[| 0.0 |]
    ~t1s:[| latency |]

let test_exemplar_promote_recycle () =
  let thr = ref 100.0 in
  let store = Exemplar.create ~threshold:(fun () -> !thr) ~k:2 () in
  (* Under threshold: recycled, not stored. *)
  Alcotest.(check bool) "fast recycled" false
    (offer_simple store ~id:1 ~latency:50.0);
  Alcotest.(check int) "nothing stored" 0 (Exemplar.stored store);
  (* Tail: promoted into free slots. *)
  Alcotest.(check bool) "slow promoted" true
    (offer_simple store ~id:2 ~latency:200.0);
  Alcotest.(check bool) "slow promoted" true
    (offer_simple store ~id:3 ~latency:300.0);
  Alcotest.(check int) "store full" 2 (Exemplar.stored store);
  (* Full store: only strictly-slower requests evict the minimum. *)
  Alcotest.(check bool) "equal-to-min keeps incumbent" false
    (offer_simple store ~id:4 ~latency:200.0);
  Alcotest.(check bool) "slower evicts min" true
    (offer_simple store ~id:5 ~latency:250.0);
  Alcotest.(check int) "evictions counted" 1 (Exemplar.evicted store);
  (match Exemplar.dump store with
  | [ a; b ] ->
      Alcotest.(check int) "slowest first" 3 a.Exemplar.v_id;
      Alcotest.(check (float 0.0)) "slowest latency" 300.0 a.Exemplar.v_latency;
      Alcotest.(check int) "runner-up" 5 b.Exemplar.v_id
  | vs -> Alcotest.failf "expected 2 exemplars, got %d" (List.length vs));
  (* The threshold closure is re-read per offer: raising it recycles. *)
  thr := 1e9;
  Alcotest.(check bool) "raised threshold recycles" false
    (offer_simple store ~id:6 ~latency:500.0);
  Alcotest.(check int) "offers counted" 6 (Exemplar.offered store);
  Alcotest.(check int) "promotions counted" 3 (Exemplar.promoted store);
  Alcotest.(check int) "recycles counted" 3 (Exemplar.recycled store);
  (* Export is byte-stable. *)
  Alcotest.(check string) "json stable" (Exemplar.to_json store)
    (Exemplar.to_json store)

let test_exemplar_full_store_top_bucket () =
  (* Adaptive store: its p99 estimate is the top bucket's upper bound
     clamped to the running max, so 1000.5 (in the max's bucket, below
     the max) reads as under the p99. Once the store is full, beating
     the stored minimum must still promote it. *)
  let store = Exemplar.create ~k:2 () in
  Alcotest.(check bool) "first fills a slot" true
    (offer_simple store ~id:1 ~latency:1000.0);
  Alcotest.(check bool) "new max fills the last slot" true
    (offer_simple store ~id:2 ~latency:1001.0);
  Alcotest.(check (float 0.0)) "p99 is the running max" 1001.0
    (Exemplar.threshold_ns store);
  Alcotest.(check bool) "below the max, above the stored min: promoted" true
    (offer_simple store ~id:3 ~latency:1000.5);
  Alcotest.(check bool) "equal to the new min: incumbent kept" false
    (offer_simple store ~id:4 ~latency:1000.5);
  Alcotest.(check bool) "below the min: recycled" false
    (offer_simple store ~id:5 ~latency:999.0);
  Alcotest.(check (list int)) "the two slowest, slowest first" [ 2; 3 ]
    (List.map (fun v -> v.Exemplar.v_id) (Exemplar.dump store));
  Alcotest.(check int) "one eviction" 1 (Exemplar.evicted store)

let test_exemplar_stage_copy () =
  (* Promotion copies the stage arrays; the caller's buffers can be
     reused without corrupting the stored anatomy. *)
  let store = Exemplar.create ~k:1 () in
  let names = [| "a"; "b" |] and cats = [| "stage"; "stage" |] in
  let t0s = [| 0.0; 5.0 |] and t1s = [| 5.0; 9.0 |] in
  ignore (Exemplar.offer store ~id:7 ~t0:0.0 ~latency:9.0 ~n:2 ~dropped:0
            ~names ~cats ~t0s ~t1s);
  names.(0) <- "clobbered";
  t1s.(0) <- 1e9;
  match Exemplar.dump store with
  | [ v ] -> (
      match v.Exemplar.v_stages with
      | [ s1; s2 ] ->
          Alcotest.(check string) "stage name copied" "a" s1.Exemplar.s_name;
          Alcotest.(check (float 0.0)) "stage end copied" 5.0 s1.Exemplar.s_t1;
          Alcotest.(check string) "second stage" "b" s2.Exemplar.s_name
      | ss -> Alcotest.failf "expected 2 stages, got %d" (List.length ss))
  | vs -> Alcotest.failf "expected 1 exemplar, got %d" (List.length vs)

(* No store is an absent one, not a zero-slot store. *)
let test_exemplar_disabled () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "k %d refused" k)
        (Invalid_argument "Exemplar.create: k must be positive")
        (fun () -> ignore (Exemplar.create ~k ())))
    [ 0; -1 ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flightrec_ring () =
  let bb = Flightrec.create ~cap:4 () in
  let at = [| 0.0 |] in
  for i = 1 to 6 do
    at.(0) <- float_of_int i;
    Flightrec.record bb Flightrec.Submit at 0 ~id:i ~arg:0 ~tag:""
  done;
  Alcotest.(check int) "all recorded" 6 (Flightrec.recorded bb);
  (match Flightrec.events bb with
  | [ a; b; c; d ] ->
      (* Ring keeps the last cap events, oldest first. *)
      Alcotest.(check int) "oldest survivor" 3 a.Flightrec.e_id;
      Alcotest.(check int) "then" 4 b.Flightrec.e_id;
      Alcotest.(check int) "then" 5 c.Flightrec.e_id;
      Alcotest.(check int) "newest" 6 d.Flightrec.e_id
  | es -> Alcotest.failf "expected 4 ring events, got %d" (List.length es));
  (* No recorder is an absent one, not a zero-capacity ring. *)
  List.iter
    (fun cap ->
      Alcotest.check_raises
        (Printf.sprintf "cap %d refused" cap)
        (Invalid_argument "Flightrec.create: cap must be positive")
        (fun () -> ignore (Flightrec.create ~cap ())))
    [ 0; -1 ]

let test_flightrec_triggers () =
  let bb = Flightrec.create ~max_dumps:2 ~cap:16 () in
  let at = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Flightrec.record bb Flightrec.Errno at 0 ~id:9 ~arg:0 ~tag:"ENODEV";
  Flightrec.trigger bb ~reason:"errno:ENODEV" at 1;
  (* Same reason again: counted, but no second dump. *)
  Flightrec.trigger bb ~reason:"errno:ENODEV" at 2;
  Flightrec.trigger bb ~reason:"deadline_miss" at 3;
  (* Third distinct reason: over max_dumps, counted only. *)
  Flightrec.trigger bb ~reason:"slo_burn" at 4;
  Alcotest.(check int) "all triggers counted" 4 (Flightrec.triggers bb);
  (match Flightrec.dumps bb with
  | [ d1; d2 ] ->
      Alcotest.(check bool) "first dump names its reason" true
        (String.length d1 > 0
        && String.sub d1 0 30 = {|{"reason":"errno:ENODEV","now_|});
      (* The dump's event list ends with its own Trigger record, and
         carries the errno event that preceded it. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dump contains errno event" true
        (contains d1 {|"tag":"ENODEV"|});
      Alcotest.(check bool) "dump contains trigger event" true
        (contains d1 {|"kind":"trigger"|});
      Alcotest.(check bool) "second dump is the next distinct reason" true
        (contains d2 {|"reason":"deadline_miss"|})
  | ds -> Alcotest.failf "expected 2 dumps, got %d" (List.length ds));
  Alcotest.(check string) "export stable" (Flightrec.to_json bb)
    (Flightrec.to_json bb)

(* ------------------------------------------------------------------ *)
(* Platform-level: determinism, nesting, zero overhead                 *)
(* ------------------------------------------------------------------ *)

let stack_spec =
  {|
mount: "blk::/obs-test"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: 1
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let threads = 2

let ops = 40

let run_platform ?(config = Runtime.Runtime.default_config) ~sample () =
  let platform =
    Platform.boot ~config:{ config with trace_sample = sample } ~nworkers:2
      ~seed:0x0B5 ()
  in
  (match Platform.mount platform stack_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("mount: " ^ e));
  let machine = Platform.machine platform in
  Platform.go platform (fun () ->
      let all_done = Lab_sim.Engine.join threads in
      for th = 0 to threads - 1 do
        Lab_sim.Engine.spawn machine.Lab_sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:th () in
            for i = 1 to ops do
              let lba = (th * 100_000) + i in
              if i mod 3 = 0 then
                ignore
                  (Runtime.Client.write_block c ~mount:"blk::/obs-test"
                     ~lba ~bytes:4096)
              else
                ignore
                  (Runtime.Client.read_block c ~mount:"blk::/obs-test"
                     ~lba ~bytes:4096)
            done;
            Lab_sim.Engine.arrive all_done)
      done;
      Lab_sim.Engine.await all_done);
  platform

let test_run_determinism () =
  let artifacts () =
    let p = run_platform ~sample:2 () in
    ( Trace.to_chrome_json (Platform.tracer p),
      Metrics.to_jsonl (Platform.metrics p) )
  in
  let t1, m1 = artifacts () in
  let t2, m2 = artifacts () in
  Alcotest.(check bool) "trace nonempty" true (String.length t1 > 100);
  Alcotest.(check string) "trace byte-identical" t1 t2;
  Alcotest.(check string) "metrics byte-identical" m1 m2

let test_span_nesting () =
  let p = run_platform ~sample:2 () in
  let evs = Trace.events (Platform.tracer p) in
  Alcotest.(check bool) "nonempty" true (evs <> []);
  (* Index root spans and module-stack stages by request id. *)
  let roots = Hashtbl.create 64 in
  let mstacks = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.ev) ->
      Alcotest.(check bool) "sampling respected" true
        (Trace.sampled (Platform.tracer p) ~id:e.Trace.ev_id);
      Alcotest.(check bool) "end >= begin" true (e.Trace.ev_dur >= 0.0);
      match (e.Trace.ev_cat, e.Trace.ev_name) with
      | "request", _ -> Hashtbl.replace roots e.Trace.ev_id e
      | "stage", "module_stack" -> Hashtbl.replace mstacks e.Trace.ev_id e
      | _ -> ())
    evs;
  Alcotest.(check bool) "traced requests exist" true (Hashtbl.length roots > 0);
  let within ~outer (e : Trace.ev) =
    e.Trace.ev_ts >= outer.Trace.ev_ts -. 1e-6
    && e.Trace.ev_ts +. e.Trace.ev_dur
       <= outer.Trace.ev_ts +. outer.Trace.ev_dur +. 1e-6
  in
  let stage_sums = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.ev) ->
      match Hashtbl.find_opt roots e.Trace.ev_id with
      | None -> ()
      | Some root -> (
          match e.Trace.ev_cat with
          | "stage" ->
              Alcotest.(check bool) "stage within root" true (within ~outer:root e);
              let prev =
                Option.value (Hashtbl.find_opt stage_sums e.Trace.ev_id)
                  ~default:0.0
              in
              Hashtbl.replace stage_sums e.Trace.ev_id (prev +. e.Trace.ev_dur)
          | "mod" -> (
              match Hashtbl.find_opt mstacks e.Trace.ev_id with
              | Some ms ->
                  Alcotest.(check bool) "mod within module_stack" true
                    (within ~outer:ms e)
              | None -> Alcotest.fail "mod span without module_stack stage")
          | _ -> ()))
    evs;
  (* Telescoping: the stages of each request sum to its root span
     within 1% (the acceptance bound; exact in practice). *)
  Hashtbl.iter
    (fun id (root : Trace.ev) ->
      match Hashtbl.find_opt stage_sums id with
      | None -> Alcotest.fail "request without stages"
      | Some sum ->
          let residual = Float.abs (root.Trace.ev_dur -. sum) in
          Alcotest.(check bool) "stages reconcile with end-to-end" true
            (residual <= 0.01 *. Float.max root.Trace.ev_dur 1.0))
    roots

let test_zero_overhead_when_off () =
  let run () =
    let p = run_platform ~sample:0 () in
    let machine = Platform.machine p in
    ( Trace.event_count (Platform.tracer p),
      Platform.now p,
      Lab_sim.Engine.events_executed machine.Lab_sim.Machine.engine )
  in
  let count0, elapsed0, events0 = run () in
  Alcotest.(check int) "no trace events" 0 count0;
  (* A traced run of the same workload must not perturb the simulation:
     identical virtual time and event count. *)
  let p = run_platform ~sample:1 () in
  let machine = Platform.machine p in
  Alcotest.(check bool) "tracing emitted events" true
    (Trace.event_count (Platform.tracer p) > 0);
  Alcotest.(check (float 0.0)) "same virtual time" elapsed0 (Platform.now p);
  Alcotest.(check int) "same event count" events0
    (Lab_sim.Engine.events_executed machine.Lab_sim.Machine.engine)

(* Retroactive capture full blast: every request's stages recorded, a
   low promotion bar and a flight recorder. *)
let retro_config =
  {
    Runtime.Runtime.default_config with
    exemplar_k = 8;
    exemplar_tail_us = 1.0;
    blackbox_cap = 256;
  }

(* Every consumer on at once: the hooks fan one lifecycle point out to
   the tracer, exemplar capture, the flight recorder and the SLO in
   turn, while the sampler ticks. *)
let all_on_config =
  {
    retro_config with
    slo_p99_target_us = 50.0;
    profile_period_ns = 25_000.0;
  }

let test_capture_neutrality () =
  (* Exemplar capture and the flight recorder do their work in plain
     OCaml between engine events — no spawns, no simulated time — so
     turning both on full blast must leave the schedule untouched:
     identical event count and identical final virtual time. So must
     every consumer at once. *)
  let observe p =
    let machine = Platform.machine p in
    ( Lab_sim.Engine.events_executed machine.Lab_sim.Machine.engine,
      Platform.now p )
  in
  let off = run_platform ~sample:0 () in
  let on = run_platform ~sample:0 ~config:retro_config () in
  let all = run_platform ~sample:1 ~config:all_on_config () in
  let events0, elapsed0 = observe off in
  let events1, elapsed1 = observe on in
  let events2, elapsed2 = observe all in
  Alcotest.(check int) "same event count" events0 events1;
  Alcotest.(check (float 0.0)) "same virtual time" elapsed0 elapsed1;
  Alcotest.(check int) "all on: same event count" events0 events2;
  Alcotest.(check (float 0.0)) "all on: same virtual time" elapsed0 elapsed2;
  let rt = Platform.runtime all in
  Alcotest.(check bool) "all on: traced" true
    (Trace.event_count (Platform.tracer all) > 0);
  Alcotest.(check bool) "all on: recorded" true
    (match Runtime.Runtime.blackbox rt with
    | Some bb -> Flightrec.recorded bb > 0
    | None -> false);
  Alcotest.(check bool) "all on: captured" true
    (match Runtime.Runtime.exemplars rt with
    | Some store -> Exemplar.offered store = threads * ops
    | None -> false);
  Alcotest.(check bool) "all on: sampled" true
    (match Runtime.Runtime.timeseries rt with
    | Some ts -> Timeseries.ticks ts > 0
    | None -> false);
  Alcotest.(check bool) "all on: SLO gauges" true
    (List.mem_assoc "slo.client.burn_rate" (Metrics.to_list (Platform.metrics all)));
  (* ... and the capture actually happened. *)
  (match Runtime.Runtime.exemplars (Platform.runtime on) with
  | None -> Alcotest.fail "exemplar store missing"
  | Some store ->
      Alcotest.(check int) "every request offered" (threads * ops)
        (Exemplar.offered store);
      Alcotest.(check bool) "tail requests promoted" true
        (Exemplar.stored store > 0);
      (* Full anatomy: each exemplar's stage records tile its root
         request span (same telescoping guarantee the tracer gives). *)
      List.iter
        (fun v ->
          Alcotest.(check bool) "has stages" true (v.Exemplar.v_stages <> []);
          Alcotest.(check int) "no overflow" 0 v.Exemplar.v_dropped;
          let sum =
            List.fold_left
              (fun acc s ->
                if s.Exemplar.s_cat = "stage" then
                  acc +. (s.Exemplar.s_t1 -. s.Exemplar.s_t0)
                else acc)
              0.0 v.Exemplar.v_stages
          in
          let residual = Float.abs (v.Exemplar.v_latency -. sum) in
          Alcotest.(check bool) "stages reconcile with latency" true
            (residual <= 0.01 *. Float.max v.Exemplar.v_latency 1.0))
        (Exemplar.dump store));
  (match Runtime.Runtime.blackbox (Platform.runtime on) with
  | None -> Alcotest.fail "flight recorder missing"
  | Some bb ->
      Alcotest.(check bool) "recorder saw traffic" true
        (Flightrec.recorded bb > 0);
      Alcotest.(check int) "clean run, no dumps" 0
        (List.length (Flightrec.dumps bb)));
  (* Same-seed determinism extends to the new artifacts. *)
  let again = run_platform ~sample:0 ~config:retro_config () in
  let json p =
    match Runtime.Runtime.exemplars (Platform.runtime p) with
    | Some s -> Exemplar.to_json s
    | None -> ""
  in
  Alcotest.(check string) "exemplar json byte-identical" (json on) (json again)

let test_sampler_neutrality () =
  (* The sampler rides the engine clock between events (it is not a
     heap event), so enabling it must leave the simulation untouched:
     identical event count and identical final virtual time. *)
  let observe p =
    let machine = Platform.machine p in
    ( Lab_sim.Engine.events_executed machine.Lab_sim.Machine.engine,
      Platform.now p )
  in
  let off = run_platform ~sample:0 () in
  Alcotest.(check bool) "no sampler when off" true
    (Runtime.Runtime.timeseries (Platform.runtime off) = None);
  let on = run_platform ~sample:0
      ~config:{ Runtime.Runtime.default_config with profile_period_ns = 25_000.0 }
      () in
  let events0, elapsed0 = observe off in
  let events1, elapsed1 = observe on in
  Alcotest.(check int) "same event count" events0 events1;
  Alcotest.(check (float 0.0)) "same virtual time" elapsed0 elapsed1;
  (match Runtime.Runtime.timeseries (Platform.runtime on) with
  | None -> Alcotest.fail "sampler missing with profile_period set"
  | Some ts ->
      Alcotest.(check bool) "sampler ticked" true (Timeseries.ticks ts > 0);
      Alcotest.(check bool) "series registered" true
        (Timeseries.series_names ts <> []));
  (* Same-seed profile export is byte-identical. *)
  let again = run_platform ~sample:0
      ~config:{ Runtime.Runtime.default_config with profile_period_ns = 25_000.0 }
      () in
  Alcotest.(check string) "profile json byte-identical"
    (Platform.profile_json on)
    (Platform.profile_json again)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter interning" `Quick test_counter_interning;
          Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
          Alcotest.test_case "detached counter" `Quick test_detached_counter;
          Alcotest.test_case "gauge replace" `Quick test_gauge_replace;
          Alcotest.test_case "gauge read-through" `Quick test_gauge_read_through;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram huge values" `Quick test_hist_huge_values;
          Alcotest.test_case "Hist.observe allocates nothing" `Quick
            test_hist_observe_words;
          QCheck_alcotest.to_alcotest prop_hist_quantile_accuracy;
          QCheck_alcotest.to_alcotest prop_hist_fractional_sub32;
          Alcotest.test_case "jsonl stable" `Quick test_jsonl_stable;
          Alcotest.test_case "non-finite clamped" `Quick test_nonfinite_clamped;
          Alcotest.test_case "observe clamps non-finite" `Quick
            test_observe_clamps_nonfinite;
          Alcotest.test_case "gauge clamped at read" `Quick
            test_gauge_clamped_at_read;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "ticks and samples" `Quick
            test_timeseries_ticks_and_samples;
          Alcotest.test_case "ring wrap" `Quick test_timeseries_ring_wrap;
          Alcotest.test_case "guards" `Quick test_timeseries_guards;
          Alcotest.test_case "json stable" `Quick test_timeseries_json_stable;
        ] );
      ( "profile",
        [
          Alcotest.test_case "flamegraph" `Quick test_profile_flamegraph;
          Alcotest.test_case "tail and stability" `Quick
            test_profile_tail_and_stability;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sampling predicate" `Quick test_sampling_predicate;
          Alcotest.test_case "stage telescoping" `Quick test_stage_telescoping;
          Alcotest.test_case "chrome json stable" `Quick test_chrome_json_stable;
        ] );
      ( "exemplar",
        [
          Alcotest.test_case "promote/recycle/evict" `Quick
            test_exemplar_promote_recycle;
          Alcotest.test_case "full store: top bucket below max promotes"
            `Quick test_exemplar_full_store_top_bucket;
          Alcotest.test_case "stage copy" `Quick test_exemplar_stage_copy;
          Alcotest.test_case "disabled" `Quick test_exemplar_disabled;
        ] );
      ( "flightrec",
        [
          Alcotest.test_case "ring wrap" `Quick test_flightrec_ring;
          Alcotest.test_case "triggers and dumps" `Quick
            test_flightrec_triggers;
        ] );
      ( "platform",
        [
          Alcotest.test_case "run determinism" `Quick test_run_determinism;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "zero overhead when off" `Quick
            test_zero_overhead_when_off;
          Alcotest.test_case "capture neutrality" `Quick
            test_capture_neutrality;
          Alcotest.test_case "sampler neutrality" `Quick
            test_sampler_neutrality;
        ] );
    ]
