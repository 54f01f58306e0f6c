(* Coordinated-omission-safe latency recording.

   Closed-loop benches measure latency from the moment a request was
   *sent*, so a stalled server silently slows the generator down and
   the stall never shows up in the percentiles (coordinated omission).
   A [Latrec.t] instead timestamps every request at its *scheduled*
   arrival — the instant the open-loop arrival process intended it to
   exist — and keeps three distributions side by side:

   - corrected : completed - scheduled  (what a user would experience)
   - naive     : completed - sent       (what a closed-loop bench reports)
   - lag       : sent - scheduled       (injection lag: how far the
                 generator itself fell behind its own schedule)

   plus counts of dropped injections (arrivals the harness had to shed
   because its backlog cap was hit) and late injections (lag above a
   threshold). Below saturation corrected ≈ naive; past the knee they
   diverge — the divergence *is* the queueing delay closed-loop
   measurement hides.

   All three are [Hist.t]s: the same log2x32 buckets with exact
   min/max that the metrics registry uses. Everything here is plain
   arithmetic on caller-supplied timestamps — no clocks, no engine —
   so recording can never perturb a deterministic run. *)

module Hist = Hist

(* ------------------------------------------------------------------ *)
(* The recorder                                                        *)

type t = {
  corrected : Hist.t;
  naive : Hist.t;
  lag : Hist.t;
  late_threshold_ns : float;
  scratch : float array;
      (* [record]'s three timestamps, then the three differences
         [record_cells] observes: kept in cells, no float is boxed *)
  mutable recorded : int;
  mutable errors : int;
  mutable dropped : int;
  mutable late : int;
}

let create ?(late_threshold_ns = 1_000.0) () =
  {
    corrected = Hist.create ();
    naive = Hist.create ();
    lag = Hist.create ();
    late_threshold_ns;
    scratch = Array.make 6 0.0;
    recorded = 0;
    errors = 0;
    dropped = 0;
    late = 0;
  }

let record_cells t cells ~scheduled ~sent ~completed ~ok =
  let d = t.scratch in
  d.(3) <- cells.(completed) -. cells.(scheduled);
  d.(4) <- cells.(completed) -. cells.(sent);
  d.(5) <- cells.(sent) -. cells.(scheduled);
  Hist.observe_cell t.corrected d 3;
  Hist.observe_cell t.naive d 4;
  Hist.observe_cell t.lag d 5;
  t.recorded <- t.recorded + 1;
  if not ok then t.errors <- t.errors + 1;
  if d.(5) > t.late_threshold_ns then t.late <- t.late + 1

let record t ~scheduled ~sent ~completed ~ok =
  let c = t.scratch in
  c.(0) <- scheduled;
  c.(1) <- sent;
  c.(2) <- completed;
  record_cells t c ~scheduled:0 ~sent:1 ~completed:2 ~ok

let drop t = t.dropped <- t.dropped + 1

let dropped t = t.dropped

let late t = t.late

let lag t = t.lag

let corrected_quantile t q = Hist.quantile t.corrected q

let naive_quantile t q = Hist.quantile t.naive q

let lag_mean_ns t = Hist.mean t.lag

let lag_max_ns t = Hist.max_value t.lag

(* ------------------------------------------------------------------ *)
(* Service-level objectives                                            *)

(* An SLO pairs a latency target (requests over the target are "bad")
   with a throughput floor (windows that served fewer ops than the
   floor demanded burn budget for the ops that never got served) and
   tracks the classic error-budget arithmetic: with budget fraction b,
   budget_remaining = 1 - bad/(b * total) (1.0 = untouched, 0 =
   exhausted, negative = overdrawn) and burn_rate = the last complete
   window's bad fraction divided by b (1.0 = burning exactly at
   budget). Both export as registry gauges under "slo.<name>.*". *)
module Slo = struct
  type slo = {
    name : string;
    p99_target_ns : float;
    floor_ops_s : float;
    error_budget : float;
    window_ns : float;
    mutable total : float;
    mutable bad : float;
    mutable w_start : float;  (* nan until the first observation *)
    mutable w_ops : float;  (* real ops in the open window *)
    mutable w_bad : float;
    mutable pw_frac : float;  (* last complete window's bad fraction *)
    mutable windows_done : int;
    mutable floor_deficit : float;  (* unserved ops charged so far *)
    mutable on_roll : (now:float -> burn:float -> unit) option;
        (* window-close hook: called once per closed window with the
           window's end time and its burn rate — the flight recorder
           rides this to log SLO rolls and trigger on burn > 1 *)
  }

  type t = slo

  (* Close the open window: charge the throughput floor's unserved ops
     as bad demand, then publish the window's bad fraction. A long idle
     gap closes every intervening empty window in one step. *)
  let rotate t ~now =
    if Float.is_finite t.w_start then begin
      let expected = t.floor_ops_s *. t.window_ns /. 1e9 in
      while now -. t.w_start >= t.window_ns do
        let deficit = Float.max 0.0 (expected -. t.w_ops) in
        t.bad <- t.bad +. deficit;
        t.total <- t.total +. deficit;
        t.floor_deficit <- t.floor_deficit +. deficit;
        let w_total = t.w_ops +. deficit in
        t.pw_frac <- (if w_total > 0.0 then (t.w_bad +. deficit) /. w_total else 0.0);
        t.windows_done <- t.windows_done + 1;
        t.w_ops <- 0.0;
        t.w_bad <- 0.0;
        t.w_start <- t.w_start +. t.window_ns;
        match t.on_roll with
        | Some f -> f ~now:t.w_start ~burn:(t.pw_frac /. t.error_budget)
        | None -> ()
      done
    end
    else t.w_start <- now

  let observe t ~latency_ns ~now =
    rotate t ~now;
    let bad = t.p99_target_ns > 0.0 && latency_ns > t.p99_target_ns in
    t.total <- t.total +. 1.0;
    t.w_ops <- t.w_ops +. 1.0;
    if bad then begin
      t.bad <- t.bad +. 1.0;
      t.w_bad <- t.w_bad +. 1.0
    end

  let tick t ~now = rotate t ~now

  let budget_remaining t =
    if t.total <= 0.0 then 1.0
    else 1.0 -. (t.bad /. (t.error_budget *. t.total))

  (* Burn rate prefers the last complete window (the operational
     "how fast right now" signal); before any window has closed it
     falls back to the cumulative fraction. *)
  let burn_rate t =
    let frac =
      if t.windows_done > 0 then t.pw_frac
      else if t.total > 0.0 then t.bad /. t.total
      else 0.0
    in
    frac /. t.error_budget

  let floor_deficit t = t.floor_deficit

  let name t = t.name

  let set_on_roll t f = t.on_roll <- Some f

  let create ?reg ~name ?(p99_target_ns = 0.0) ?(floor_ops_s = 0.0)
      ?(error_budget = 0.01) ?(window_ns = 1e8) () =
    if error_budget <= 0.0 then invalid_arg "Latrec.Slo.create: error_budget";
    if window_ns <= 0.0 then invalid_arg "Latrec.Slo.create: window_ns";
    let t =
      {
        name;
        p99_target_ns;
        floor_ops_s;
        error_budget;
        window_ns;
        total = 0.0;
        bad = 0.0;
        w_start = nan;
        w_ops = 0.0;
        w_bad = 0.0;
        pw_frac = 0.0;
        windows_done = 0;
        floor_deficit = 0.0;
        on_roll = None;
      }
    in
    (match reg with
    | Some reg ->
        let g k f = Metrics.gauge_fn reg ("slo." ^ name ^ "." ^ k) f in
        g "budget_remaining" (fun () -> budget_remaining t);
        g "burn_rate" (fun () -> burn_rate t)
    | None -> ());
    t
end
