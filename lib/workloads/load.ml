(* Open-loop traffic harness.

   Closed-loop workloads (Fio, Ycsb, ...) send the next request only
   after the previous one completes, so when the system slows down the
   workload politely slows down with it and the measured latency hides
   the overload — coordinated omission. This harness decouples offered
   load from completion rate: a deterministic arrival process fires on
   Engine timers at its own schedule regardless of how the system is
   doing, a finite injector pool sends the requests, and a Latrec
   recorder measures every completion from the *scheduled* arrival.
   Below saturation injectors are always idle when an arrival fires and
   the corrected and naive distributions agree; past the knee the
   backlog grows, injection lags the schedule, and the corrected tail
   diverges by exactly the queueing delay a closed-loop bench would
   never see.

   Arrival times are generated as exact floats, then rounded to whole
   nanoseconds so the integer Engine.timer gaps reproduce the schedule
   exactly: when a timer fires, virtual now IS the scheduled time. *)

open Lab_sim

type process =
  | Poisson of { rate_ops_s : float }
  | On_off of { rate_ops_s : float; on_ns : float; off_ns : float }
  | Diurnal of { mean_ops_s : float; amplitude : float; period_ns : float }
  | Replay of { gaps_ns : int array }

let nominal_rate_ops_s = function
  | Poisson { rate_ops_s } -> rate_ops_s
  | On_off { rate_ops_s; on_ns; off_ns } ->
      rate_ops_s *. (on_ns /. (on_ns +. off_ns))
  | Diurnal { mean_ops_s; _ } -> mean_ops_s
  | Replay { gaps_ns } ->
      let total = Array.fold_left ( + ) 0 gaps_ns in
      if total <= 0 then 0.0
      else 1e9 *. Stdlib.float_of_int (Array.length gaps_ns)
           /. Stdlib.float_of_int total

let validate = function
  | Poisson { rate_ops_s } ->
      if rate_ops_s <= 0.0 then invalid_arg "Load: Poisson rate must be > 0"
  | On_off { rate_ops_s; on_ns; off_ns } ->
      if rate_ops_s <= 0.0 then invalid_arg "Load: on-off rate must be > 0";
      if on_ns <= 0.0 then invalid_arg "Load: on_ns must be > 0";
      if off_ns < 0.0 then invalid_arg "Load: off_ns must be >= 0"
  | Diurnal { mean_ops_s; amplitude; period_ns } ->
      if mean_ops_s <= 0.0 then invalid_arg "Load: diurnal mean must be > 0";
      if amplitude < 0.0 || amplitude > 1.0 then
        invalid_arg "Load: diurnal amplitude must be in [0,1]";
      if period_ns <= 0.0 then invalid_arg "Load: diurnal period must be > 0"
  | Replay { gaps_ns } ->
      if Array.length gaps_ns = 0 then invalid_arg "Load: empty replay trace";
      Array.iter
        (fun g -> if g < 0 then invalid_arg "Load: negative replay gap")
        gaps_ns

type gen = {
  proc : process;
  rng : Rng.t;
  (* Poisson/Diurnal/Replay: wall-clock ns of the last arrival.
     On_off: cumulative ON-time ns — the wall mapping re-inserts the
     off intervals, which is what makes duty-cycle accounting exact. *)
  mutable clock : float;
  mutable r_idx : int;  (* Replay position; the trace loops *)
}

let generator ?(seed = 1) proc =
  validate proc;
  { proc; rng = Rng.create (seed lxor 0x10AD); clock = 0.0; r_idx = 0 }

let pi = 4.0 *. atan 1.0

(* Next arrival as an exact relative timestamp (ns since the run
   started). Monotone non-decreasing by construction. *)
let next g =
  match g.proc with
  | Poisson { rate_ops_s } ->
      g.clock <- g.clock +. Rng.exponential g.rng (1e9 /. rate_ops_s);
      g.clock
  | On_off { rate_ops_s; on_ns; off_ns } ->
      (* Arrivals are Poisson at [rate_ops_s] during ON windows and
         absent during OFF windows: draw on the on-time clock, then map
         on-time to wall time by re-inserting one OFF interval per
         completed ON window. *)
      g.clock <- g.clock +. Rng.exponential g.rng (1e9 /. rate_ops_s);
      let k = Float.floor (g.clock /. on_ns) in
      (k *. (on_ns +. off_ns)) +. (g.clock -. (k *. on_ns))
  | Diurnal { mean_ops_s; amplitude; period_ns } ->
      (* Lewis-Shedler thinning: candidates at the envelope's peak rate,
         accepted with probability rate(t)/peak — an exact sampler for
         the inhomogeneous Poisson process, still fully seeded. *)
      let peak = mean_ops_s *. (1.0 +. amplitude) in
      let rec draw () =
        g.clock <- g.clock +. Rng.exponential g.rng (1e9 /. peak);
        let rate =
          mean_ops_s
          *. (1.0 +. (amplitude *. sin (2.0 *. pi *. g.clock /. period_ns)))
        in
        if Rng.float g.rng 1.0 *. peak <= rate then g.clock else draw ()
      in
      draw ()
  | Replay { gaps_ns } ->
      g.clock <- g.clock +. Stdlib.float_of_int gaps_ns.(g.r_idx);
      g.r_idx <- (g.r_idx + 1) mod Array.length gaps_ns;
      g.clock

let arrivals ?seed proc n =
  let g = generator ?seed proc in
  let a = Array.make (Stdlib.max 0 n) 0.0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- next g
  done;
  a

(* --- the harness -------------------------------------------------- *)

type spec = {
  proc : process;
  seed : int;
  total : int;  (* arrivals to generate *)
  injectors : int;  (* concurrent open-loop senders *)
  queue_cap : int;  (* pending-arrival backlog cap; overflow is shed *)
  late_threshold_ns : float;
}

let default_spec =
  {
    proc = Poisson { rate_ops_s = 50_000.0 };
    seed = 1;
    total = 1000;
    injectors = 16;
    queue_cap = 4096;
    late_threshold_ns = 1000.0;
  }

type result = {
  generated : int;
  completed : int;
  succeeded : int;
  dropped : int;
  late : int;
  elapsed_ns : float;
  offered_ops_s : float;  (* what the schedule demanded *)
  achieved_ops_s : float;  (* what the system delivered *)
  recorder : Lab_obs.Latrec.t;
}

let run (machine : Machine.t) spec ~submit =
  if spec.total <= 0 then invalid_arg "Load.run: total must be > 0";
  if spec.injectors <= 0 then invalid_arg "Load.run: injectors must be > 0";
  if spec.queue_cap <= 0 then invalid_arg "Load.run: queue_cap must be > 0";
  validate spec.proc;
  let eng = machine.Machine.engine in
  let gen = generator ~seed:spec.seed spec.proc in
  let recorder =
    Lab_obs.Latrec.create ~late_threshold_ns:spec.late_threshold_ns ()
  in
  let backlog : float Queue.t = Queue.create () in
  let idle : Engine.park_cell Stack.t = Stack.create () in
  let t0 = Machine.now machine in
  let generated = ref 0 in
  let completed = ref 0 in
  let succeeded = ref 0 in
  let last_arrival = ref t0 in
  let stopping = ref false in
  let finished = Engine.make_park_cell () in
  let finish_check () =
    if
      (not !stopping)
      && !generated >= spec.total
      && !completed + Lab_obs.Latrec.dropped recorder >= spec.total
    then begin
      stopping := true;
      (* Wake the parked injectors so their processes exit. *)
      Stack.iter Engine.unpark idle;
      Engine.unpark finished
    end
  in
  let injector j cell () =
    let rec loop () =
      if not !stopping then
        match Queue.take_opt backlog with
        | Some scheduled ->
            let sent = Machine.now machine in
            let ok = submit ~injector:j ~scheduled in
            Lab_obs.Latrec.record recorder ~scheduled ~sent
              ~completed:(Machine.now machine) ~ok;
            incr completed;
            if ok then incr succeeded;
            finish_check ();
            loop ()
        | None ->
            Stack.push cell idle;
            Engine.park cell;
            loop ()
    in
    loop ()
  in
  for j = 0 to spec.injectors - 1 do
    let cell = Engine.make_park_cell () in
    Engine.spawn eng (injector j cell)
  done;
  (* The dispatcher: one preallocated timer callback re-arming
     itself with integer gaps — the closure-free hot path, and
     crucially a path that never waits on the injectors, so the
     offered schedule is independent of the completion rate. *)
  let rel = ref 0 in
  let next_rel () =
    let exact = next gen in
    let n = Stdlib.int_of_float (Float.round exact) in
    if n <= !rel then !rel else n
  in
  let rec fire _ =
    incr generated;
    let now = Machine.now machine in
    last_arrival := now;
    if Queue.length backlog >= spec.queue_cap then
      (* Shed rather than queue without bound: the drop count is
         the signal that the offered rate is unservable. *)
      Lab_obs.Latrec.drop recorder
    else begin
      Queue.push now backlog;
      match Stack.pop_opt idle with
      | Some cell -> Engine.unpark cell
      | None -> ()
    end;
    if !generated < spec.total then begin
      let r = next_rel () in
      let gap = r - !rel in
      rel := r;
      Engine.timer eng ~ns:gap fire 0
    end
    else finish_check ()
  in
  let r0 = next_rel () in
  rel := r0;
  Engine.timer eng ~ns:r0 fire 0;
  Engine.park finished;
  let elapsed = Machine.now machine -. t0 in
  let span = !last_arrival -. t0 in
  {
    generated = !generated;
    completed = !completed;
    succeeded = !succeeded;
    dropped = Lab_obs.Latrec.dropped recorder;
    late = Lab_obs.Latrec.late recorder;
    elapsed_ns = elapsed;
    offered_ops_s =
      (if span > 0.0 then Stdlib.float_of_int !generated /. span *. 1e9
       else 0.0);
    achieved_ops_s =
      (if elapsed > 0.0 then Stdlib.float_of_int !completed /. elapsed *. 1e9
       else 0.0);
    recorder;
  }
