(* Tests for the lab_sim discrete-event simulation substrate. *)

open Lab_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_wait_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.wait 10.0;
      log := ("a", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.wait 5.0;
      log := ("b", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "events in time order"
    [ ("b", 5.0); ("a", 10.0) ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () ->
        Engine.wait 7.0;
        log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal timestamps" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_spawn () =
  let e = Engine.create () in
  let finished = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.wait 3.0;
      Engine.spawn e (fun () ->
          Engine.wait 4.0;
          finished := Engine.now e));
  Engine.run e;
  check_float "child sees parent's clock" 7.0 !finished

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        Engine.wait 10.0;
        incr hits
      done);
  Engine.run ~until:55.0 e;
  Alcotest.(check int) "stopped at limit" 5 !hits;
  check_float "clock clamped to limit" 55.0 (Engine.now e)

let test_engine_negative_wait () =
  let e = Engine.create () in
  let ok = ref false in
  Engine.spawn e (fun () ->
      Engine.wait (-5.0);
      ok := Engine.now e = 0.0);
  Engine.run e;
  Alcotest.(check bool) "negative wait is zero" true !ok

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref None in
  let resumed_at = ref Float.nan in
  Engine.spawn e (fun () ->
      Engine.suspend (fun r -> resumer := Some r);
      resumed_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.wait 42.0;
      match !resumer with Some r -> r () | None -> Alcotest.fail "no resumer");
  Engine.run e;
  check_float "resumed at resumer's time" 42.0 !resumed_at

let test_engine_resumer_one_shot () =
  let e = Engine.create () in
  let wakeups = ref 0 in
  let resumer = ref None in
  Engine.spawn e (fun () ->
      Engine.suspend (fun r -> resumer := Some r);
      incr wakeups);
  Engine.spawn e (fun () ->
      Engine.wait 1.0;
      let r = Option.get !resumer in
      r ();
      r ();
      r ());
  Engine.run e;
  Alcotest.(check int) "woken exactly once" 1 !wakeups

(* A driver's fork-join: counted workers (one of them a nested join),
   uncounted daemons spawned between them, and the last arrival landing
   at t = 25 with four other events due then and one queued right
   after it. Each process's resume
   instant and order and the event count are pinned to the schedule the
   countdown-and-resumer join produced, so a join that resumes at any
   other (time, seq) key shows here. *)
let fork_join_scenario () =
  let e = Engine.create () in
  let log = Buffer.create 256 in
  let note who = Printf.bprintf log "%s@%.0f;" who (Engine.now e) in
  let daemon name period () =
    while true do
      Engine.wait period;
      note name
    done
  in
  Engine.spawn e (fun () ->
      Engine.schedule e 25.0 (fun () -> note "s25");
      let all = Engine.join 3 in
      Engine.spawn e (daemon "d0" 5.0);
      Engine.spawn e (fun () ->
          Engine.wait 10.0;
          note "w0";
          Engine.arrive all);
      Engine.spawn e (daemon "d1" 10.0);
      Engine.spawn e (fun () ->
          Engine.wait 20.0;
          Engine.schedule e 25.0 (fun () -> note "s1");
          Engine.wait 5.0;
          note "w1";
          Engine.arrive all;
          Engine.schedule e 25.0 (fun () -> note "s1'"));
      Engine.spawn e (fun () ->
          let inner = Engine.join 2 in
          Engine.spawn e (fun () ->
              Engine.wait 7.0;
              note "a";
              Engine.arrive inner);
          Engine.spawn e (fun () ->
              Engine.wait 18.0;
              note "b";
              Engine.arrive inner);
          Engine.await inner;
          note "w2";
          Engine.wait 7.0;
          note "w2'";
          Engine.arrive all);
      Engine.await all;
      note "main";
      let pair = Engine.join 2 in
      for i = 0 to 1 do
        Engine.spawn e (fun () ->
            Engine.wait 4.0;
            note (Printf.sprintf "x%d" i);
            Engine.arrive pair;
            Engine.wait 0.0;
            note (Printf.sprintf "x%d'" i))
      done;
      Engine.await pair;
      note "main'");
  Engine.run ~until:30.0 e;
  (Engine.events_executed e, Buffer.contents log)

let test_fork_join_schedule_pinned () =
  let events, log = fork_join_scenario () in
  Alcotest.(check string) "resume instants and order"
    "d0@5;a@7;w0@10;d1@10;d0@10;d0@15;b@18;w2@18;d1@20;d0@20;s25@25;w2'@25;\
     s1@25;w1@25;d0@25;main@25;s1'@25;x0@29;x1@29;x0'@29;main'@29;x1'@29;\
     d1@30;d0@30;"
    log;
  Alcotest.(check int) "events_executed" 35 events

(* [join 0] has nothing to wait for: [await] returns at once and queues
   no event. *)
let test_join_zero () =
  let e = Engine.create () in
  let returned = ref false in
  Engine.spawn e (fun () ->
      let j = Engine.join 0 in
      Alcotest.(check bool) "joined" true (Engine.joined j);
      Engine.await j;
      returned := true);
  Engine.run e;
  Alcotest.(check bool) "await returned" true !returned;
  Alcotest.(check int) "only the spawn ran" 1 (Engine.events_executed e)

(* Arrivals past the last one do nothing: one resume, one event. *)
let test_join_extra_arrivals () =
  let e = Engine.create () in
  let wakeups = ref 0 in
  let j = Engine.join 2 in
  Engine.spawn e (fun () ->
      Engine.await j;
      incr wakeups);
  Engine.spawn e (fun () ->
      Engine.wait 1.0;
      for _ = 1 to 5 do
        Engine.arrive j
      done);
  Engine.run e;
  Alcotest.(check int) "woken exactly once" 1 !wakeups;
  (* two spawns, one wait, one resume *)
  Alcotest.(check int) "events" 4 (Engine.events_executed e)

(* The last arrival takes the next (time, seq) key, as unpark does: an
   event queued for the same instant before the arrival runs first, one
   queued after it runs after the resumed process. *)
let test_join_resume_key () =
  let e = Engine.create () in
  let log = ref [] in
  let j = Engine.join 1 in
  Engine.spawn e (fun () ->
      Engine.await j;
      log := ("awaiter", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.wait 5.0;
      Engine.schedule e 5.0 (fun () -> log := ("before", Engine.now e) :: !log);
      Engine.arrive j;
      Engine.schedule e 5.0 (fun () -> log := ("after", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "resumed at the arrival's key"
    [ ("before", 5.0); ("awaiter", 5.0); ("after", 5.0) ]
    (List.rev !log)

(* [park] on a cell that already holds a process is refused; the first
   process stays parked and still resumes. *)
let test_park_occupied_cell () =
  let e = Engine.create () in
  let cell = Engine.make_park_cell () in
  let first = ref false and refused = ref false in
  Engine.spawn e (fun () ->
      Engine.park cell;
      first := true);
  Engine.spawn e (fun () ->
      (try Engine.park cell with Invalid_argument _ -> refused := true);
      Engine.unpark cell);
  Engine.run e;
  Alcotest.(check bool) "second park refused" true !refused;
  Alcotest.(check bool) "first process resumed" true !first

let test_engine_until_pushback_order () =
  let e = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i d -> Engine.schedule e d (fun () -> log := (i, Engine.now e) :: !log))
    [ 10.0; 20.0; 20.0; 30.0 ];
  Engine.run ~until:15.0 e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "only the pre-horizon event ran" [ (0, 10.0) ] (List.rev !log);
  (* The event popped past the horizon was pushed back with its original
     (time, seq) key: resuming must preserve same-time FIFO order. *)
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "pushed-back event keeps its slot"
    [ (0, 10.0); (1, 20.0); (2, 20.0); (3, 30.0) ]
    (List.rev !log)

(* Regression for tick-boundary drift: boundaries are derived as
   base + k*period, so with period 0.1 every sample instant is exactly
   float k *. 0.1 — the old [next_tick +. period] accumulation drifted
   off these values within ten ticks. Exact comparison, epsilon 0. *)
let test_engine_tick_exact_boundaries () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.set_tick e ~period:0.1 (fun b -> ticks := b :: !ticks);
  Engine.schedule e 1.0 (fun () -> ());
  Engine.run e;
  let expected = List.init 10 (fun i -> Stdlib.float_of_int (i + 1) *. 0.1) in
  Alcotest.(check (list (float 0.0))) "boundaries exact" expected
    (List.rev !ticks)

let test_engine_timer () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec fn n =
    incr count;
    if n > 1 then Engine.timer e ~ns:50 fn (n - 1)
  in
  Engine.timer e ~ns:50 fn 10;
  Engine.run e;
  Alcotest.(check int) "ten firings" 10 !count;
  check_float "clock advanced 10 * 50ns" 500.0 (Engine.now e);
  Alcotest.(check int) "one event per firing" 10 (Engine.events_executed e)

(* The pooled timer path must not allocate in steady state: slots are
   recycled, times travel through staging cells, dispatch is tagged.
   Budget is <= 2 minor words/event (the occasional calendar-window
   re-anchor writes one boxed float). Native only — bytecode boxes
   everything. *)
let test_engine_timer_alloc_free () =
  let e = Engine.create () in
  let remaining = ref 0 in
  let rec fn arg =
    if !remaining > 0 then begin
      decr remaining;
      Engine.timer e ~ns:100 fn arg
    end
  in
  remaining := 1_000;
  Engine.timer e ~ns:100 fn 0;
  Engine.run e;
  remaining := 5_000;
  Engine.timer e ~ns:100 fn 0;
  let e0 = Engine.events_executed e in
  let w0 = Gc.minor_words () in
  Engine.run e;
  let w1 = Gc.minor_words () in
  let events = Engine.events_executed e - e0 in
  let per_event = (w1 -. w0) /. Stdlib.float_of_int events in
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "timer path allocates <= 2 words/event (got %.3f)"
           per_event)
        true
        (per_event <= 2.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* [timer_cell] takes the key a [wait_cell] on the same cell would:
   issued at one instant from one cell, the two fire at the same time
   in issue order, whichever comes first. *)
let test_engine_timer_cell_matches_wait_cell () =
  let e = Engine.create () in
  let cells = [| 12.5 |] in
  let log = ref [] in
  let note tag = log := Printf.sprintf "%s@%.1f" tag (Engine.now e) :: !log in
  let fired = Array.map (fun tag _ -> note tag) [| "timer-first"; "timer-second" |] in
  Engine.spawn e (fun () ->
      Engine.wait 1.0;
      Engine.timer_cell e cells 0 fired.(0) 0;
      Engine.wait_cell cells 0;
      note "wait-second");
  Engine.spawn e (fun () ->
      Engine.wait 40.0;
      Engine.schedule e (Engine.now e) (fun () ->
          Engine.timer_cell e cells 0 fired.(1) 0);
      Engine.wait_cell cells 0;
      note "wait-first");
  Engine.run e;
  Alcotest.(check (list string)) "same time, issue order"
    [ "timer-first@13.5"; "wait-second@13.5"; "wait-first@52.5"; "timer-second@52.5" ]
    (List.rev !log)

let test_engine_timer_cell_negative () =
  let e = Engine.create () in
  let at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Engine.wait 7.0;
      Engine.timer_cell e [| -3.0 |] 0 (fun _ -> at := Engine.now e) 0);
  Engine.run e;
  check_float "a negative cell lands at now" 7.0 !at

(* Steady-state [timer_cell] traffic allocates nothing, as [timer]'s
   does: the same closed loop on each path, run for 1000 and for 3000
   events after a warmup, inside one calendar window. [run]'s own
   per-call words cancel in the difference. *)
let test_engine_timer_cell_alloc_free () =
  let words use_cell n =
    let e = Engine.create () in
    let cells = [| 10.0 |] in
    let remaining = ref 0 in
    let rec fn arg =
      if !remaining > 0 then begin
        decr remaining;
        if use_cell then Engine.timer_cell e cells 0 fn arg
        else Engine.timer e ~ns:10 fn arg
      end
    in
    remaining := 1_000;
    fn 0;
    Engine.run e;
    remaining := n;
    fn 0;
    let w0 = Gc.minor_words () in
    Engine.run e;
    Gc.minor_words () -. w0
  in
  let per_2000 use_cell = words use_cell 3_000 -. words use_cell 1_000 in
  match Sys.backend_type with
  | Sys.Native ->
      check_float "timer" 0.0 (per_2000 false);
      check_float "timer_cell" 0.0 (per_2000 true)
  | Sys.Bytecode | Sys.Other _ -> ()

(* A spinning poller on a poll chain must replay a loop of [wait]s event
   for event. Each poller parks once per idle period; its tick re-arms
   the chain while there is nothing to see and resumes it in place when
   there is, and every signal or stop fires the chain. Competitors land
   on and off the pollers' 80 ns grids, queued before and after the
   re-arm they tie with (a relay queues them from an earlier instant),
   and peer processes wait on grids of their own so ties between
   processes matter. Pollers with an infinite deadline busy-poll until
   a stop. The run is driven by [run], by [run ~until] with signals and
   pushes between horizons, or by a [step] loop with signals between
   steps. *)
type poller = {
  phase : float;  (* first sweep *)
  budget : float option;  (* spin deadline after each sweep; None = busy *)
  work_ns : float;  (* time each signal takes to serve *)
  rounds : int;  (* idle periods before the poller ends *)
  stop_at : float option;
}

type competitor = {
  cname : string;
  at : float;
  target : int;
  relay : float option;  (* queued at this earlier instant, not up front *)
}

type drive =
  | Run
  | Until of (float * int * float) list
      (** horizon, poller signalled outside the run, delay of a signal
          pushed then *)
  | Steps of (int * int) list
      (** after this many log entries, signal this poller between steps *)

type poll_spec = {
  pollers : poller list;
  competitors : competitor list;
  peers : float list;
  drive : drive;
}

let poll_run spec variant =
  let e = Engine.create () in
  let log = Buffer.create 1024 in
  let entries = ref 0 in
  let note s =
    incr entries;
    Buffer.add_string log (Printf.sprintf "%s@%g;" s (Engine.now e))
  in
  let pollers = Array.of_list spec.pollers in
  let n = Array.length pollers in
  let ready = Array.make n 0 in
  let stopped = Array.make n false in
  let cells = Array.init n (fun _ -> [| 0.0; 80.0 |]) in
  let cell = Array.init n (fun _ -> Engine.make_park_cell ()) in
  let chains = Array.init n (fun i -> Engine.chain e cells.(i)) in
  let idle i = ready.(i) = 0 && not stopped.(i) in
  let ticks =
    Array.init n (fun i ->
        let rec tick () =
          if idle i && not (Engine.reached e cells.(i) 0) then
            Engine.arm chains.(i) tick
          else Engine.resume_in_place cell.(i)
        in
        tick)
  in
  let poll_wait i =
    match variant with
    | `Wait -> Engine.wait 80.0
    | `Chain ->
        Engine.arm chains.(i) ticks.(i);
        if not (idle i) then Engine.fire chains.(i);
        Engine.park cell.(i)
  in
  let signal name i () =
    note name;
    ready.(i) <- ready.(i) + 1;
    Engine.fire chains.(i)
  in
  Array.iteri
    (fun i p ->
      (match p.stop_at with
      | Some at ->
          Engine.schedule e at (fun () ->
              note (Printf.sprintf "stop%d" i);
              stopped.(i) <- true;
              Engine.fire chains.(i))
      | None -> ());
      Engine.spawn_at e p.phase (fun () ->
          let rec idle_period round =
            (match p.budget with
            | Some b -> Engine.set_after cells.(i) 0 b
            | None -> cells.(i).(0) <- Float.infinity);
            let rec spin () =
              if Engine.reached e cells.(i) 0 then false
              else begin
                poll_wait i;
                (not (idle i)) || spin ()
              end
            in
            if spin () then
              if stopped.(i) then note (Printf.sprintf "halt%d" i)
              else begin
                note (Printf.sprintf "work%d" i);
                ready.(i) <- ready.(i) - 1;
                if p.work_ns > 0.0 then Engine.wait p.work_ns;
                idle_period round
              end
            else begin
              note (Printf.sprintf "idle%d" i);
              if round < p.rounds then begin
                Engine.wait 500.0;
                idle_period (round + 1)
              end
            end
          in
          idle_period 1))
    pollers;
  List.iter
    (fun c ->
      match c.relay with
      | None -> Engine.schedule e c.at (signal c.cname c.target)
      | Some r ->
          Engine.schedule e r (fun () ->
              Engine.schedule e c.at (signal c.cname c.target)))
    spec.competitors;
  List.iteri
    (fun j phase ->
      Engine.spawn_at e phase (fun () ->
          for _ = 1 to 30 do
            Engine.wait 80.0;
            note (Printf.sprintf "peer%d" j)
          done))
    spec.peers;
  (match spec.drive with
  | Run -> Engine.run e
  | Until horizons ->
      List.iteri
        (fun k (h, i, d) ->
          Engine.run ~until:h e;
          signal (Printf.sprintf "out%d" k) i ();
          Engine.schedule e (Engine.now e +. d)
            (signal (Printf.sprintf "push%d" k) i))
        horizons;
      Engine.run e
  | Steps outside ->
      (* Only events that log can satisfy a count, so the signals land
         after the same event in both variants. *)
      let rec outside_signals = function
        | (k, i) :: rest when !entries >= k ->
            signal (Printf.sprintf "out%d" k) i ();
            outside_signals rest
        | pending -> pending
      in
      let pending = ref outside in
      while Engine.step e do
        pending := outside_signals !pending
      done);
  (Buffer.contents log, Engine.events_executed e, Engine.now e)

(* The fixed case: one poller, [early] queued before the poll due at
   its instant (so the poll sees it), [late] after (so the poll misses
   it until the next one), [at_deadline] on the deadline instant
   itself, and a peer on the same grid. Resuming through [unpark]
   instead would queue an extra event and move the poller behind the
   peer at the same instant. *)
let test_engine_resume_in_place_matches_wait () =
  let spec =
    {
      pollers =
        [
          { phase = 0.0; budget = Some 960.0; work_ns = 0.0; rounds = 1;
            stop_at = None };
        ];
      competitors =
        [
          { cname = "early"; at = 160.0; target = 0; relay = None };
          { cname = "late"; at = 400.0; target = 0; relay = Some 330.0 };
          { cname = "at_deadline"; at = 1440.0; target = 0; relay = None };
        ];
      peers = [ 0.0 ];
      drive = Run;
    }
  in
  let log_w, ev_w, now_w = poll_run spec `Wait in
  let log_t, ev_t, now_t = poll_run spec `Chain in
  Alcotest.(check string) "same interleaving" log_w log_t;
  Alcotest.(check int) "same events_executed" ev_w ev_t;
  check_float "same final time" now_w now_t;
  Alcotest.(check bool) "competitors were seen in the expected order" true
    (let has sub =
       let n = String.length sub and m = String.length log_t in
       let rec go i = i + n <= m && (String.sub log_t i n = sub || go (i + 1)) in
       go 0
     in
     has "early@160;work0@160;peer0@160;"
     && has "peer0@400;late@400;work0@480;peer0@480;"
     && has "at_deadline@1440;work0@1440;peer0@1440;"
     && has "idle0@2400;")

let gen_poll_spec =
  let open QCheck.Gen in
  let grid_time phases =
    (* On a poller's grid, or anywhere. *)
    frequency
      [
        ( 3,
          map2
            (fun i k -> List.nth phases (i mod List.length phases) +. (80.0 *. float_of_int k))
            (int_bound 3) (int_range 1 40) );
        (1, map float_of_int (int_bound 3500));
      ]
  in
  let poller =
    map
      (fun (phase, budget, work_ns, rounds, stop) ->
        let budget = if budget = 0 then None else Some (float_of_int (budget * 40)) in
        let stop_at =
          match (budget, stop) with
          | None, _ -> Some (float_of_int (1000 + stop))
          | Some _, s when s mod 3 = 0 -> Some (float_of_int (500 + s))
          | Some _, _ -> None
        in
        { phase; budget; work_ns; rounds; stop_at })
      (tup5
         (map (fun q -> float_of_int q /. 4.0) (int_bound 640))
         (frequency [ (1, return 0); (3, int_range 1 40) ])
         (oneofl [ 0.0; 40.0; 80.0; 115.0 ])
         (int_range 1 3) (int_bound 3000))
  in
  list_size (int_range 1 4) poller >>= fun pollers ->
  let n = List.length pollers in
  let phases = List.map (fun p -> p.phase) pollers in
  let competitor k =
    map3
      (fun at target relay ->
        let relay =
          match relay with
          | 0 -> None
          | d -> Some (Float.max 0.0 (at -. float_of_int d))
        in
        { cname = Printf.sprintf "c%d" k; at; target; relay })
      (grid_time phases) (int_bound (n - 1))
      (frequency [ (1, return 0); (2, int_range 1 200) ])
  in
  int_bound 12 >>= fun nc ->
  flatten_l (List.init nc competitor) >>= fun competitors ->
  list_size (int_bound 2) (map float_of_int (int_bound 159)) >>= fun peers ->
  let until =
    map
      (fun hs ->
        Until
          (List.sort compare hs
          |> List.map (fun (h, i, d) -> (float_of_int h, i mod n, float_of_int d))))
      (list_size (int_range 1 4)
         (triple (int_bound 4000) (int_bound 3) (oneofl [ 0; 1; 80; 160; 37 ])))
  in
  let steps =
    map
      (fun ks ->
        Steps (List.sort compare ks |> List.map (fun (k, i) -> (k, i mod n))))
      (list_size (int_range 1 4) (pair (int_range 1 40) (int_bound 3)))
  in
  frequency [ (1, return Run); (2, until); (2, steps) ] >>= fun drive ->
  return { pollers; competitors; peers; drive }

let show_poll_spec s =
  let f = Printf.sprintf "%g" in
  let opt = function None -> "-" | Some x -> f x in
  String.concat " "
    (List.map
       (fun p ->
         Printf.sprintf "poller(phase=%s budget=%s work=%s rounds=%d stop=%s)"
           (f p.phase) (opt p.budget) (f p.work_ns) p.rounds (opt p.stop_at))
       s.pollers
    @ List.map
        (fun c ->
          Printf.sprintf "%s(at=%s ->%d relay=%s)" c.cname (f c.at) c.target
            (opt c.relay))
        s.competitors
    @ List.map (fun p -> "peer@" ^ f p) s.peers
    @
    match s.drive with
    | Run -> [ "run" ]
    | Until hs ->
        List.map
          (fun (h, i, d) -> Printf.sprintf "until(%s sig%d +%s)" (f h) i (f d))
          hs
    | Steps ks -> List.map (fun (k, i) -> Printf.sprintf "step(%d sig%d)" k i) ks)

let prop_poll_chain_matches_wait =
  QCheck.Test.make ~name:"poll chain replays the wait loop" ~count:300
    (QCheck.make ~print:show_poll_spec gen_poll_spec)
    (fun spec ->
      let log_w, ev_w, now_w = poll_run spec `Wait in
      let log_c, ev_c, now_c = poll_run spec `Chain in
      if log_w <> log_c || ev_w <> ev_c || now_w <> now_c then
        QCheck.Test.fail_reportf "wait: %d events, end %g\n%s\nchain: %d events, end %g\n%s"
          ev_w now_w log_w ev_c now_c log_c
      else true)

(* The engine's elision against the plain per-poll loop over records
   ({!Elide_oracle}), the reference for any faster catch-up. Chains are
   armed through the public API at times on a 40 ns grid (or anywhere),
   with periods of 80 ns, 2000 ns or anything, so keys tie across
   chains and with the bound; deadlines land on a chain's own grid, on
   one shared by several chains, anywhere, or never. After a setup run
   up to the last arm, each call elides before a bound key (on the
   grid, anywhere, or the empty queue's infinite key) within a horizon,
   and the engine must end exactly where the loop does. *)
type elide_chain = { e_at : float; e_period : float; e_deadline : float }

type elide_call = {
  c_key : float;  (* offset past the last arm; infinity = empty queue *)
  c_seq : int;  (* per mille of the seqs handed out so far *)
  c_horizon : float;  (* offset past the last arm *)
}

let gen_elide_spec =
  let open QCheck.Gen in
  let grid n = map (fun k -> 40.0 *. float_of_int k) (int_bound n) in
  let chain shared =
    frequency
      [ (3, grid 3); (1, grid 10);
        (1, map (fun q -> float_of_int q /. 8.0) (int_bound 3200)) ]
    >>= fun e_at ->
    frequency
      [ (4, return 80.0); (2, return 2000.0);
        (2, map (fun q -> float_of_int q /. 4.0) (int_range 1 4000)) ]
    >>= fun e_period ->
    frequency
      [ (3, map (fun j -> e_at +. (e_period *. float_of_int j)) (int_range 1 80));
        (2, map (fun d -> e_at +. float_of_int d) (int_bound 9000));
        (3, return shared); (1, return Float.infinity) ]
    >>= fun e_deadline -> return { e_at; e_period; e_deadline }
  in
  let call =
    frequency
      [ (4, grid 150); (2, map float_of_int (int_bound 6000)); (1, return Float.infinity) ]
    >>= fun c_key ->
    int_bound 1000 >>= fun c_seq ->
    frequency
      [ (2, grid 150); (1, map float_of_int (int_bound 6000));
        (2, return Float.infinity) ]
    >>= fun c_horizon -> return { c_key; c_seq; c_horizon }
  in
  (* A deadline several chains share, so their deadline polls tie. *)
  map (fun k -> 400.0 +. (40.0 *. float_of_int k)) (int_bound 100) >>= fun shared ->
  pair (list_size (int_range 1 4) (chain shared)) (list_size (int_range 1 3) call)

let show_elide_spec (chains, calls) =
  String.concat " "
    (List.map
       (fun c ->
         Printf.sprintf "chain(at=%g period=%g deadline=%g)" c.e_at c.e_period
           c.e_deadline)
       chains
    @ List.map
        (fun c ->
          Printf.sprintf "call(key=+%g seq=%d%%o horizon=+%g)" c.c_key c.c_seq
            c.c_horizon)
        calls)

let prop_elision_matches_loop =
  QCheck.Test.make ~name:"elision matches the per-poll loop" ~count:500
    (QCheck.make ~print:show_elide_spec gen_elide_spec)
    (fun (specs, calls) ->
      let e = Engine.create () in
      let specs = Array.of_list specs in
      let cells = Array.map (fun s -> [| s.e_deadline; s.e_period |]) specs in
      let chains = Array.map (fun c -> Engine.chain e c) cells in
      Array.iteri
        (fun i s -> Engine.schedule e s.e_at (fun () -> Engine.arm chains.(i) ignore))
        specs;
      let t0 = Array.fold_left (fun m s -> Float.max m s.e_at) 0.0 specs in
      Engine.run ~until:t0 e;
      List.for_all
        (fun call ->
          let key = t0 +. call.c_key in
          (* With no bound and no horizon an undying chain never stops. *)
          let horizon =
            if key = Float.infinity && call.c_horizon = Float.infinity then t0 +. 9000.0
            else t0 +. call.c_horizon
          in
          let seq =
            if key = Float.infinity then Stdlib.max_int
            else Engine.last_seq e * call.c_seq / 1000
          in
          let model =
            {
              Elide_oracle.chains =
                Array.mapi
                  (fun i c ->
                    let key, cseq, armed = Engine.chain_state c in
                    { Elide_oracle.key; cseq; armed; period = specs.(i).e_period;
                      deadline = specs.(i).e_deadline })
                  chains;
              seq = Engine.last_seq e;
              elided = 0;
              bkey = key;
              bseq = seq;
              horizon;
            }
          in
          let ev0 = Engine.events_executed e and el0 = Engine.polls_elided e in
          let lowered = Engine.elide_before e ~key ~seq ~horizon in
          let lowered' = Elide_oracle.catch_up model in
          let same_chains =
            Array.for_all2
              (fun c m ->
                Engine.chain_state c = (m.Elide_oracle.key, m.cseq, m.armed))
              chains model.chains
          in
          let ok =
            lowered = lowered' && same_chains
            && Engine.events_executed e - ev0 = model.elided
            && Engine.polls_elided e - el0 = model.elided
            && Engine.last_seq e = model.seq
            && Engine.bound e = (model.bkey, model.bseq)
          in
          if not ok then
            QCheck.Test.fail_reportf
              "engine: lowered=%b elided=%d seq=%d bound=(%g,%d) chains=%s\n\
               loop:   lowered=%b elided=%d seq=%d bound=(%g,%d) chains=%s"
              lowered (Engine.polls_elided e - el0) (Engine.last_seq e)
              (fst (Engine.bound e)) (snd (Engine.bound e))
              (String.concat ";"
                 (Array.to_list
                    (Array.map
                       (fun c ->
                         let k, s, a = Engine.chain_state c in
                         Printf.sprintf "(%g,%d,%b)" k s a)
                       chains)))
              lowered' model.elided model.seq model.bkey model.bseq
              (String.concat ";"
                 (Array.to_list
                    (Array.map
                       (fun m ->
                         Printf.sprintf "(%g,%d,%b)" m.Elide_oracle.key m.cseq m.armed)
                       model.chains)))
          else true)
        calls)

(* A chain that would poll at one instant forever is refused at [arm];
   with the deadline already reached its one poll is queued as usual. *)
let test_arm_zero_period () =
  let e = Engine.create () in
  let ahead = Engine.chain e [| 1000.0; 0.0 |] in
  Engine.timer e ~ns:500 ignore 0;
  Alcotest.check_raises "zero period, deadline ahead"
    (Invalid_argument "Engine.arm: period must be positive before the deadline")
    (fun () -> Engine.arm ahead ignore);
  Alcotest.(check bool) "not armed" false
    (let _, _, armed = Engine.chain_state ahead in armed);
  Engine.run e;
  Alcotest.(check int) "the timer ran alone" 1 (Engine.events_executed e);
  let due = Engine.chain e [| 0.0; -5.0 |] in
  let polled = ref false in
  Engine.arm due (fun () -> polled := true);
  Engine.run e;
  Alcotest.(check bool) "reached deadline polls once" true !polled

(* [resume_in_place] on an empty cell does nothing, like [unpark]. *)
let test_engine_resume_in_place_empty () =
  let e = Engine.create () in
  let cell = Engine.make_park_cell () in
  Engine.timer e ~ns:10 (fun _ -> Engine.resume_in_place cell) 0;
  Engine.run e;
  Alcotest.(check bool) "still empty" false (Engine.parked cell);
  Alcotest.(check int) "one event" 1 (Engine.events_executed e)

(* A spinning worker, and in a second run a busy-polling one, see
   submissions that land exactly on their poll instants: before the
   poll due then, after it, on the spin deadline, while parked, and a
   stop / resume / unassign on the busy worker's grid. The event counts, final times
   and completion instants are pinned to what the [Engine.wait] poll
   loop produced, so any drift in the idle path's schedule shows. *)
let worker_poll_scenario ~busy_poll =
  let costs =
    { Costs.default with Costs.shmem_cross_core_ns = 0.0; shmem_enqueue_ns = 0.0 }
  in
  let m = Machine.create ~costs ~ncores:2 () in
  let e = m.Machine.engine in
  let seen = Buffer.create 64 in
  let exec ~thread:_ (r : Lab_core.Request.t) =
    Buffer.add_string seen
      (Printf.sprintf "%d@%.0f;" r.Lab_core.Request.id (Engine.now e));
    Lab_core.Request.Done
  in
  let w =
    Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:0 ~thread:0 ~exec
      ~busy_poll ~spin_ns:4000.0 ()
  in
  let qp =
    Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered ~id:1 ()
  in
  Lab_runtime.Worker.assign w [ qp ];
  Lab_runtime.Worker.start w;
  let submit i () =
    let r =
      Lab_core.Request.make ~id:i ~pid:1 ~uid:0 ~thread:1 ~stack_id:1
        ~now:(Engine.now e) (Lab_core.Request.Control i)
    in
    ignore (Lab_ipc.Qp.try_submit qp r)
  in
  let later at f () = Engine.schedule e at f in
  if busy_poll then begin
    Engine.schedule e 2000.0 (submit 1);
    Engine.schedule e 5000.0 (later 6000.0 (submit 2));
    Engine.schedule e 10000.0 (fun () -> Lab_runtime.Worker.stop w);
    Engine.schedule e 12000.0 (fun () -> Lab_runtime.Worker.resume w);
    Engine.schedule e 13000.0 (later 14000.0 (submit 3));
    Engine.schedule e 18000.0 (fun () -> Lab_runtime.Worker.assign w [])
  end
  else begin
    Engine.schedule e 160.0 (submit 1);
    Engine.schedule e 330.0 (later 400.0 (submit 2));
    Engine.schedule e 4480.0 (submit 3);
    Engine.schedule e 20000.0 (submit 4)
  end;
  Engine.run e;
  ( Engine.events_executed e,
    Engine.now e,
    Buffer.contents seen,
    Lab_runtime.Worker.processed w )

let test_worker_poll_schedule_pinned () =
  let check name (ev, now, seen, n) (ev', now', seen', n') =
    Alcotest.(check int) (name ^ " events_executed") ev' ev;
    check_float (name ^ " final time") now' now;
    Alcotest.(check string) (name ^ " completion instants") seen' seen;
    Alcotest.(check int) (name ^ " processed") n' n
  in
  check "spin"
    (worker_poll_scenario ~busy_poll:false)
    (175, 24000.0, "1@160;2@480;3@4480;4@20000;", 4);
  check "busy"
    (worker_poll_scenario ~busy_poll:true)
    (77, 22000.0, "1@2000;2@8000;3@16000;", 3)

(* Three spinning workers share one unordered queue pair, each polling
   on its own phase of the 80 ns grid (started at 0, 30 and 55 ns).
   Doorbells land on those poll instants, queued before and after the
   poll due then, in a burst that keeps more than one worker busy, on
   a spin deadline and while every worker is parked. The event count,
   final time and who-ran-what-when are pinned to what the [Engine.wait]
   poll loop produced. *)
let shared_qp_scenario () =
  let costs =
    { Costs.default with Costs.shmem_cross_core_ns = 200.0; shmem_enqueue_ns = 0.0 }
  in
  let m = Machine.create ~costs ~ncores:4 () in
  let e = m.Machine.engine in
  let seen = Buffer.create 128 in
  let exec ~thread (r : Lab_core.Request.t) =
    Buffer.add_string seen
      (Printf.sprintf "%d:%d@%.0f;" r.Lab_core.Request.id thread (Engine.now e));
    Engine.wait 150.0;
    Lab_core.Request.Done
  in
  let qp =
    Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Unordered
      ~id:1 ()
  in
  let workers =
    List.mapi
      (fun i (start_at, spin_ns) ->
        let w =
          Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:i ~thread:i
            ~exec ~spin_ns ()
        in
        Engine.schedule e start_at (fun () ->
            Lab_runtime.Worker.assign w [ qp ];
            Lab_runtime.Worker.start w);
        w)
      [ (0.0, 3000.0); (30.0, 4000.0); (55.0, 2000.0) ]
  in
  let submit i () =
    let r =
      Lab_core.Request.make ~id:i ~pid:1 ~uid:0 ~thread:3 ~stack_id:1
        ~now:(Engine.now e) (Lab_core.Request.Control i)
    in
    ignore (Lab_ipc.Qp.try_submit qp r)
  in
  let later at f () = Engine.schedule e at f in
  Engine.schedule e 160.0 (submit 1);
  Engine.schedule e 150.0 (later 190.0 (submit 2));
  Engine.schedule e 215.0 (submit 3);
  Engine.schedule e 200.0 (later 215.0 (submit 4));
  List.iter (fun i -> Engine.schedule e 1040.0 (submit i)) [ 5; 6; 7; 8 ];
  Engine.schedule e 1000.0 (later 1070.0 (submit 9));
  Engine.schedule e 3960.0 (submit 10);
  Engine.schedule e 5000.0 (later 5235.0 (submit 11));
  Engine.schedule e 12000.0 (submit 12);
  Engine.run e;
  ( Engine.events_executed e,
    Engine.now e,
    Buffer.contents seen,
    List.map Lab_runtime.Worker.processed workers )

let test_worker_shared_qp_pinned () =
  let ev, now, seen, per_worker = shared_qp_scenario () in
  Alcotest.(check int) "events_executed" 396 ev;
  check_float "final time" 16000.0 now;
  Alcotest.(check string) "completion instants"
    "1:0@360;2:2@415;3:1@470;4:0@560;5:0@1240;6:2@1255;7:1@1310;8:0@1440;\
     9:2@1455;10:2@4160;11:0@5435;12:2@12200;"
    seen;
  Alcotest.(check (list int)) "processed per worker" [ 5; 2; 5 ] per_worker

(* stop_all must blank the event pool, not just the queue indices, so
   dropped events release their closures to the GC. *)
let test_engine_stop_all_releases () =
  let e = Engine.create () in
  let freed = ref false in
  let mk () =
    let payload = ref 42 in
    Gc.finalise (fun _ -> freed := true) payload;
    fun () -> ignore !payload
  in
  Engine.schedule e 10.0 (mk ());
  Engine.stop_all e;
  Gc.full_major ();
  Alcotest.(check bool) "stopped engine retains no closures" true !freed

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create () in
    let rng = Rng.create 7 in
    let trace = Buffer.create 256 in
    for i = 1 to 20 do
      Engine.spawn e (fun () ->
          Engine.wait (Rng.float rng 100.0);
          Buffer.add_string trace (Printf.sprintf "%d@%.3f;" i (Engine.now e)))
    done;
    Engine.run e;
    (Buffer.contents trace, Engine.events_executed e)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair string int)) "identical replay" a b

(* ------------------------------------------------------------------ *)
(* Evq                                                                 *)
(* ------------------------------------------------------------------ *)

(* The calendar queue must pop the exact same (time, seq, slot)
   sequence as a binary heap ordered on (time, seq) — the engine's
   byte-identical-output guarantee rests on this. Each generated op
   list mixes the shapes that reach different queue paths:

   - [scattered]: absolute times up to ~1000 with duplicates — at the
     tiny 8x16 ns window they constantly overflow into the heap;
   - [burst]: runs of pushes at one timestamp (tail appends, same-time
     FIFO);
   - [one_bucket]: out-of-order times inside one bucket, so inserts
     land mid-list and at the head;
   - [behind]: times before the last pop (the drain cursor);
   - [far]: times one to three windows ahead (overflow heap, window
     re-anchoring);
   - [drain_far]: pop to empty, then push past the window;
   - [clear]: drop everything, then keep using the queue.

   Push times are relative to the last popped time, as the engine's
   are. *)
type evq_op =
  | Pop
  | Push_at of float  (* absolute time *)
  | Push_after of float  (* offset from the last popped time, >= -now *)
  | Drain
  | Clear

let gen_evq_ops ~width ~window =
  let open QCheck.Gen in
  let pops = map (fun n -> List.init n (fun _ -> Pop)) (int_range 0 3) in
  let scattered =
    map (fun m -> [ Push_at (Stdlib.float_of_int (m * 97 mod 1000)) ]) small_nat
  in
  let burst =
    map (fun n -> List.init n (fun _ -> Push_after 0.0)) (int_range 1 12)
  in
  let one_bucket =
    map
      (List.map (fun k ->
           Push_after (width +. (Stdlib.float_of_int k *. width /. 8.0))))
      (list_size (int_range 2 8) (int_range 0 7))
  in
  let behind =
    map (fun r -> [ Push_after (-.Stdlib.float_of_int r) ]) (int_range 1 300)
  in
  let far =
    map2
      (fun k r ->
        [ Push_after ((window *. Stdlib.float_of_int k) +. Stdlib.float_of_int r) ])
      (int_range 1 3) small_nat
  in
  let drain_far = map (fun ops -> Drain :: ops) far in
  let chunk =
    frequency
      [
        (6, pops);
        (3, scattered);
        (2, burst);
        (2, one_bucket);
        (2, behind);
        (2, far);
        (1, drain_far);
        (1, return [ Clear ]);
      ]
  in
  map List.concat (list_size (int_range 0 60) chunk)

let show_evq_op = function
  | Pop -> "pop"
  | Push_at t -> Printf.sprintf "at %g" t
  | Push_after d -> Printf.sprintf "+%g" d
  | Drain -> "drain"
  | Clear -> "clear"

let prop_evq_matches_heap_at ~name ~nbuckets ~width =
  let key_cmp (t1, s1) (t2, s2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare s1 s2
  in
  let window = Stdlib.float_of_int nbuckets *. width in
  QCheck.Test.make ~name ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_evq_op ops))
       (gen_evq_ops ~width ~window))
    (fun ops ->
      let q = Evq.create ~nbuckets ~width () in
      let h = Heap.create ~cmp:key_cmp () in
      let seq = ref 0 in
      let now = ref 0.0 in
      let ok = ref true in
      let pop_both () =
        let slot = Evq.pop q in
        match Heap.pop h with
        | None -> ok := !ok && slot < 0
        | Some ((time, s), hslot) ->
            now := time;
            ok :=
              !ok && slot = hslot
              && q.Evq.key_out.(0) = time
              && q.Evq.out_seq = s
      in
      let push time =
        incr seq;
        q.Evq.key_in.(0) <- time;
        Evq.push q ~seq:!seq ~slot:!seq;
        Heap.push h (time, !seq) !seq
      in
      List.iter
        (function
          | Pop -> pop_both ()
          | Push_at time -> push time
          | Push_after d -> push (Float.max 0.0 (!now +. d))
          | Drain ->
              while not (Heap.is_empty h) do
                pop_both ()
              done;
              ok := !ok && Evq.is_empty q
          | Clear ->
              Evq.clear q;
              Heap.clear h)
        ops;
      while not (Evq.is_empty q) || not (Heap.is_empty h) do
        pop_both ()
      done;
      !ok && Evq.length q = 0 && Evq.pop q = -1)

let prop_evq_matches_heap =
  prop_evq_matches_heap_at
    ~name:"evq pops the same (time,seq) sequence as a heap" ~nbuckets:8
    ~width:16.0

let prop_evq_matches_heap_default =
  prop_evq_matches_heap_at
    ~name:"evq matches the heap at the default 16384x8ns geometry"
    ~nbuckets:16384 ~width:8.0

(* Popping the last entry leaves the cursor where it was; the next push
   re-aims it at its own bucket, or re-anchors the window when the
   entry falls outside it. Either way the pop order is unaffected. *)
let test_evq_push_after_last_pop () =
  let q = Evq.create () in
  let push seq time =
    q.Evq.key_in.(0) <- time;
    Evq.push q ~seq ~slot:seq
  in
  let pop_key () =
    let slot = Evq.pop q in
    (slot, q.Evq.key_out.(0))
  in
  let key = Alcotest.(pair int (float 0.0)) in
  push 1 800.0;
  Alcotest.check key "only entry" (1, 800.0) (pop_key ());
  Alcotest.(check int) "cursor stays on the emptied bucket" 100 q.Evq.cur;
  (* Earlier than the last pop, inside the window: cursor jumps back. *)
  push 2 80.0;
  Alcotest.(check int) "cursor re-aimed at the new bucket" 10 q.Evq.cur;
  Alcotest.check key "earlier entry" (2, 80.0) (pop_key ());
  (* Past the window: re-anchored at the entry, cursor on bucket 0. *)
  push 3 1e6;
  Alcotest.(check int) "re-anchored cursor" 0 q.Evq.cur;
  Alcotest.(check (float 0.0)) "window starts at the entry" 1e6 q.Evq.fq.(0);
  (* Behind the re-anchored window while it is live: joins bucket 0. *)
  push 4 500.0;
  Alcotest.check key "behind-window entry first" (4, 500.0) (pop_key ());
  Alcotest.check key "re-anchored entry" (3, 1e6) (pop_key ());
  Alcotest.(check int) "empty" (-1) (Evq.pop q)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (fun k -> Heap.push h k (string_of_int k)) [ 5; 3; 9; 1; 7; 1 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 5; 7; 9 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any input sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.sort Int.compare xs)

(* Leak regression: a drained or cleared heap must not pin popped
   values — pop blanks the vacated tail slot and an emptied/cleared
   heap drops its backing arrays. *)
let test_heap_releases_entries () =
  let h = Heap.create ~cmp:Int.compare () in
  let freed = ref 0 in
  let add k =
    let v = ref k in
    Gc.finalise (fun _ -> incr freed) v;
    Heap.push h k v
  in
  List.iter add [ 3; 1; 2 ];
  for _ = 1 to 3 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Alcotest.(check int) "drained heap retains nothing" 3 !freed;
  List.iter add [ 5; 4 ];
  Heap.clear h;
  Gc.full_major ();
  Alcotest.(check int) "cleared heap retains nothing" 5 !freed

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks push/pop" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let n = List.length xs in
      let ok = ref (Heap.length h = n) in
      for i = 1 to n do
        ignore (Heap.pop h);
        ok := !ok && Heap.length h = n - i
      done;
      !ok && Heap.pop h = None)

(* ------------------------------------------------------------------ *)
(* Semaphore                                                           *)
(* ------------------------------------------------------------------ *)

let test_semaphore_mutex () =
  let e = Engine.create () in
  let s = Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        Semaphore.acquire s;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.wait 10.0;
        decr inside;
        Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  check_float "serialized duration" 50.0 (Engine.now e)

let test_semaphore_counting () =
  let e = Engine.create () in
  let s = Semaphore.create 3 in
  let peak = ref 0 and inside = ref 0 in
  for _ = 1 to 9 do
    Engine.spawn e (fun () ->
        Semaphore.acquire s;
        incr inside;
        if !inside > !peak then peak := !inside;
        Engine.wait 10.0;
        decr inside;
        Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "three at a time" 3 !peak;
  check_float "three batches" 30.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cpu_dedicated_core_no_switches () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:2 () in
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Cpu.compute cpu ~thread:0 100.0
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Cpu.compute cpu ~thread:1 100.0
      done);
  Engine.run e;
  Alcotest.(check int) "no switches on dedicated cores" 0
    (Cpu.context_switches cpu)

let test_cpu_shared_core_switches () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:1 () in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Cpu.compute cpu ~thread:0 100.0
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Cpu.compute cpu ~thread:1 100.0
      done);
  Engine.run e;
  Alcotest.(check bool) "interleaving causes switches" true
    (Cpu.context_switches cpu >= 4)

let test_cpu_utilization () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:4 () in
  Engine.spawn e (fun () -> Cpu.compute cpu ~thread:0 1000.0);
  Engine.run e;
  check_float "one core busy 1000 of 4*1000" 0.25
    (Cpu.utilization cpu ~elapsed:1000.0)

(* A compute burst allocates only its wait's effect continuation: the
   burst is staged in the core's own float cell, ints and a float array
   hold the per-core state, the affinity lookup is [Hashtbl.find], and
   [compute_cell] reads the caller's cell unboxed. 20k warm-up bursts
   (2 ms) run first, so pool growth stays out of the measurement.
   Native only. *)
let test_cpu_compute_words () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:2 () in
  Cpu.pin cpu ~thread:5 ~core:1;
  let cells = [| 100.0 |] in
  let unpinned = ref 0.0 and pinned = ref 0.0 and celled = ref 0.0 in
  let measure burst =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      burst ()
    done;
    (Gc.minor_words () -. w0) /. 10_000.0
  in
  Engine.spawn e (fun () ->
      for _ = 1 to 20_000 do
        Cpu.compute cpu ~thread:0 100.0
      done;
      unpinned := measure (fun () -> Cpu.compute cpu ~thread:0 100.0);
      pinned := measure (fun () -> Cpu.compute cpu ~thread:5 100.0);
      celled := measure (fun () -> Cpu.compute_cell cpu ~thread:0 cells 0));
  Engine.run e;
  check_float "busy time kept" 5_000_000.0 (Cpu.busy_ns cpu);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf
           "compute allocates <= 2 words (unpinned %.3f, pinned %.3f, cell %.3f)"
           !unpinned !pinned !celled)
        true
        (!unpinned <= 2.0 && !pinned <= 2.0 && !celled <= 2.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* [compute_cell] is [compute] on the cell's value at the call: the
   same completion instants, busy time and context switches. Three
   threads share one core and one staging cell, so a caller that parks
   on the core's semaphore has its cell restaged by the next caller
   before its burst starts; one burst is negative (clamped to 0). *)
let test_cpu_compute_cell_matches () =
  let burst k i = if k = 1 && i = 2 then -50.0 else float_of_int ((100 * (k + 1)) + i) in
  let run use_cell =
    let e = Engine.create () in
    let cpu = Cpu.create ~ncores:2 () in
    let cells = [| 0.0 |] in
    let log = ref [] in
    for k = 0 to 2 do
      (* Threads 0 and 2 share core 0; thread 1 has core 1. *)
      let thread = if k = 1 then 1 else k in
      Engine.spawn e (fun () ->
          for i = 0 to 3 do
            if use_cell then begin
              cells.(0) <- burst k i;
              Cpu.compute_cell cpu ~thread cells 0
            end
            else Cpu.compute cpu ~thread (burst k i);
            log := (k, i, Engine.now e) :: !log
          done)
    done;
    Engine.run e;
    (List.rev !log, Cpu.busy_ns cpu, Cpu.context_switches cpu)
  in
  let log, busy, switches = run false in
  let log', busy', switches' = run true in
  Alcotest.(check (list (triple int int (float 0.0))))
    "same completion instants" log log';
  check_float "same busy ns" busy busy';
  Alcotest.(check int) "same context switches" switches switches';
  Alcotest.(check bool) "the shared core switched" true (switches > 0)

let test_cpu_pinning () =
  let e = Engine.create () in
  let cpu = Cpu.create ~ncores:4 () in
  Cpu.pin cpu ~thread:9 ~core:2;
  Engine.spawn e (fun () -> Cpu.compute cpu ~thread:9 500.0);
  Engine.run e;
  check_float "burst landed on pinned core" 500.0 (Cpu.busy_ns_of_core cpu 2)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

(* [is_empty] runs on every idle poll, so it must be exact across word
   boundaries and allocate nothing. Native only for the words. *)
let test_bitset_is_empty () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "fresh set is empty" true (Bitset.is_empty b);
  Bitset.set b 70;
  Alcotest.(check bool) "bit in the third word" false (Bitset.is_empty b);
  Bitset.clear b 70;
  Alcotest.(check bool) "cleared again" true (Bitset.is_empty b);
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Bitset.is_empty b then incr hits
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every call saw it empty" 10_000 !hits;
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "is_empty allocates nothing (got %.0f words / 10k)" words)
        true (words <= 2.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* The first outputs of each stream, captured while the state was a
   mutable [int64] field: a change to the SplitMix64 arithmetic, to the
   way the state is stored or to [split]/[copy] shows here. *)
let test_rng_stream_pinned () =
  let firsts r = List.init 8 (fun _ -> Rng.int64 r) in
  let check name expected r =
    Alcotest.(check (list int64)) name expected (firsts r)
  in
  check "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
      -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
      3207296026000306913L; -4214222208109204676L ]
    (Rng.create 0);
  check "seed 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L ]
    (Rng.create 42);
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  check "split child"
    [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L;
      1242533817266198696L; -5959852680200513735L; 1245346008178237623L;
      3603600226484403572L; -4893543810735773810L ]
    child;
  check "parent after split"
    [ 2949826092126892291L; 5139283748462763858L; 6349198060258255764L;
      701532786141963250L; -2430762948046562554L; 4028864712777624925L;
      -3677692746721775708L; 6270620877612482005L ]
    parent;
  let orig = Rng.create 42 in
  ignore (Rng.int64 orig);
  ignore (Rng.int64 orig);
  let dup = Rng.copy orig in
  let after_two =
    [ 5139283748462763858L; 6349198060258255764L; 701532786141963250L;
      -2430762948046562554L; 4028864712777624925L; -3677692746721775708L;
      6270620877612482005L; -7037763681458882642L ]
  in
  check "copy" after_two dup;
  check "copied stream unaffected" after_two orig;
  let r = Rng.create 7 in
  let i1 = Rng.int r 1000 in
  let i2 = Rng.int r 3 in
  let f = Rng.float r 1.0 in
  let b = Rng.bool r in
  Alcotest.(check (list int)) "int draws" [ 621; 0 ] [ i1; i2 ];
  Alcotest.(check (float 0.0)) "float draw" 0x1.cd30810175625p-1 f;
  Alcotest.(check bool) "bool draw" true b

(* A draw keeps the state in place and boxes nothing, so an [int] draw
   allocates no word at all. Native only. *)
let test_rng_int_alloc_free () =
  let r = Rng.create 3 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 100
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "draws stay in bound" true (!acc < 100 * 10_000);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check (float 0.0))
        "words allocated by 10k Rng.int draws" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ()

(* The flight recorder stays on for whole runs, so a record must cost
   array stores only: the time comes in a float cell and nothing is
   boxed or wrapped in an option, whichever fields the kind carries. *)
let test_flightrec_record_alloc_free () =
  let module F = Lab_obs.Flightrec in
  let bb = F.create ~cap:64 () in
  let at = [| 0.0 |] in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    at.(0) <- float_of_int i;
    F.record bb F.Park at 0 ~id:(-1) ~arg:0 ~tag:"";
    F.record bb F.Wake at 0 ~id:i ~arg:0 ~tag:"worker";
    F.record bb F.Sched at 0 ~id:i ~arg:(i land 7) ~tag:"merge"
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all recorded" 30_000 (F.recorded bb);
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check (float 0.0))
        "words allocated by 30k Flightrec.record calls" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ()

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        ok := !ok && v >= 0 && v < bound
      done;
      !ok)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays within bound" ~count:200
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.float r 10.0 in
        ok := !ok && v >= 0.0 && v < 10.0
      done;
      !ok)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let sum = ref 0.0 in
  for _ = 1 to 20000 do
    sum := !sum +. Rng.exponential r 100.0
  done;
  Alcotest.(check bool) "empirical mean near 100" true
    (Float.abs ((!sum /. 20000.0) -. 100.0) < 5.0)

let test_rng_zipf_skew () =
  let r = Rng.create 5 in
  let hits = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Rng.zipf r ~n:10 ~theta:1.0 in
    hits.(k) <- hits.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (hits.(0) > hits.(9))

(* ------------------------------------------------------------------ *)
(* Lru and Itbl                                                        *)
(* ------------------------------------------------------------------ *)

(* Random operation sequences against an association list, most recent
   first. Keys are [i * stride] for a small [i]; at stride 4096 they
   share low bits, so with the small index of a small LRU their probe
   runs collide and removals and evictions shift entries back. Values
   repeat, so a run puts both equal and different values. *)
type lru_op =
  | Put of int * int
  | Put_evict of int * int
  | Touch of int
  | Mem of int
  | Find of int
  | Remove of int
  | Lru_of

let show_lru_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Put_evict (k, v) -> Printf.sprintf "put_evict %d %d" k v
  | Touch k -> Printf.sprintf "touch %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Lru_of -> "lru"

type lru_case = { cap : int option; stride : int; ops : lru_op list }

let gen_lru_case =
  let open QCheck.Gen in
  let* cap = frequency [ (4, map Option.some (int_range 1 64)); (1, return None) ] in
  let* stride = oneofl [ 1; 4096 ] in
  let* nkeys = int_range 1 80 in
  let key = map (fun i -> i * stride) (int_range 0 (nkeys - 1)) in
  let value = int_range 0 3 in
  let op =
    frequency
      [
        (3, map2 (fun k v -> Put (k, v)) key value);
        (3, map2 (fun k v -> Put_evict (k, v)) key value);
        (2, map (fun k -> Touch k) key);
        (1, map (fun k -> Mem k) key);
        (2, map (fun k -> Find k) key);
        (2, map (fun k -> Remove k) key);
        (1, return Lru_of);
      ]
  in
  let+ ops = list_size (int_range 1 300) op in
  { cap; stride; ops }

let show_lru_case c =
  Printf.sprintf "cap %s, stride %d: %s"
    (match c.cap with Some n -> string_of_int n | None -> "unbounded")
    c.stride
    (String.concat "; " (List.map show_lru_op c.ops))

(* The same sequence on an LRU of [v] values, [v] built from the int. *)
let lru_agrees (type v) (of_int : int -> v) c =
  let l : v Lru.t = Lru.create ?capacity:c.cap () in
  let cap = Option.value c.cap ~default:max_int in
  let model : (int * v) list ref = ref [] in
  let promote k v = model := (k, v) :: List.remove_assoc k !model in
  let last () = match List.rev !model with [] -> None | kv :: _ -> Some kv in
  (* The model of a put: the entry it evicts, if any. *)
  let put k v =
    let fresh = not (List.mem_assoc k !model) in
    promote k v;
    if fresh && List.length !model > cap then begin
      let victim = last () in
      model := List.filteri (fun i _ -> i < cap) !model;
      victim
    end
    else None
  in
  List.for_all
    (fun op ->
      let agrees =
        match op with
        | Put (k, v) ->
            let v = of_int v in
            Lru.put l k v = put k v
        | Put_evict (k, v) ->
            let v = of_int v in
            Lru.put_evict l k v = (match put k v with Some (e, _) -> e | None -> -1)
        | Touch k ->
            let expect = List.assoc_opt k !model in
            Option.iter (promote k) expect;
            Lru.touch l k = (expect <> None)
        | Mem k -> Lru.mem l k = List.mem_assoc k !model
        | Find k ->
            let expect = List.assoc_opt k !model in
            Option.iter (promote k) expect;
            Lru.find l k = expect
        | Remove k ->
            let expect = List.assoc_opt k !model in
            model := List.remove_assoc k !model;
            Lru.remove l k = expect
        | Lru_of -> Lru.lru l = last ()
      in
      agrees
      && List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) l []) = !model
      && Lru.length l = List.length !model)
    c.ops

(* Int values, and float values (a flat float array once stored). *)
let prop_lru_matches_model =
  QCheck.Test.make ~name:"Lru matches an association-list model" ~count:500
    (QCheck.make ~print:show_lru_case gen_lru_case)
    (fun c -> lru_agrees Fun.id c && lru_agrees Stdlib.float_of_int c)

(* At capacity, a put of a new key reuses the evicted entry's slot and
   index bucket: no word allocated. Native only. *)
let test_lru_evicting_put_allocates_nothing () =
  let l = Lru.create ~capacity:64 () in
  for k = 0 to 63 do
    ignore (Lru.put_evict l (k * 4096) k)
  done;
  let evicted = ref 0 in
  let w0 = Gc.minor_words () in
  for k = 64 to 10_063 do
    if Lru.put_evict l (k * 4096) k = (k - 64) * 4096 then incr evicted
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "each put evicts the oldest key" 10_000 !evicted;
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check (float 0.0)) "words allocated by 10k evicting puts" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ()

type itbl_op = Replace of int * int | Remove_key of int | Find_key of int

let show_itbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove_key k -> Printf.sprintf "remove %d" k
  | Find_key k -> Printf.sprintf "find %d" k

(* Replace, remove and lookups against an association list, keys at
   stride 1 or 4096 (negative ones too); after each step every key
   agrees on [mem] and [find], and [fold] sees exactly the bindings. *)
let prop_itbl_matches_model =
  let gen =
    let open QCheck.Gen in
    let* stride = oneofl [ 1; 4096; -4096 ] in
    let key = map (fun i -> i * stride) (int_range 0 40) in
    let op =
      frequency
        [
          (3, map2 (fun k v -> Replace (k, v)) key small_nat);
          (2, map (fun k -> Remove_key k) key);
          (1, map (fun k -> Find_key k) key);
        ]
    in
    pair (return stride) (list_size (int_range 1 200) op)
  in
  QCheck.Test.make ~name:"Itbl matches an association-list model" ~count:300
    (QCheck.make
       ~print:(fun (_, ops) -> String.concat "; " (List.map show_itbl_op ops))
       gen)
    (fun (stride, ops) ->
      let t = Itbl.create 1 in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Itbl.replace t k v;
              model := (k, v) :: List.remove_assoc k !model
          | Remove_key k ->
              Itbl.remove t k;
              model := List.remove_assoc k !model
          | Find_key _ -> ());
          List.for_all
            (fun i ->
              let k = i * stride in
              let expect = List.assoc_opt k !model in
              Itbl.mem t k = (expect <> None)
              && (match Itbl.find t k with v -> Some v | exception Not_found -> None)
                 = expect)
            (List.init 41 Fun.id)
          && List.sort compare (Itbl.fold (fun k v acc -> (k, v) :: acc) t [])
             = List.sort compare !model)
        ops)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "lab_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "wait order" `Quick test_engine_wait_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested spawn" `Quick test_engine_nested_spawn;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "negative wait" `Quick test_engine_negative_wait;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "resumer one-shot" `Quick test_engine_resumer_one_shot;
          Alcotest.test_case "fork-join schedule pinned" `Quick
            test_fork_join_schedule_pinned;
          Alcotest.test_case "join zero" `Quick test_join_zero;
          Alcotest.test_case "join extra arrivals" `Quick
            test_join_extra_arrivals;
          Alcotest.test_case "join resume key" `Quick test_join_resume_key;
          Alcotest.test_case "park occupied cell" `Quick test_park_occupied_cell;
          Alcotest.test_case "until pushback order" `Quick
            test_engine_until_pushback_order;
          Alcotest.test_case "tick exact boundaries" `Quick
            test_engine_tick_exact_boundaries;
          Alcotest.test_case "timer" `Quick test_engine_timer;
          Alcotest.test_case "timer_cell matches wait_cell" `Quick
            test_engine_timer_cell_matches_wait_cell;
          Alcotest.test_case "timer_cell negative" `Quick
            test_engine_timer_cell_negative;
          Alcotest.test_case "timer_cell alloc-free" `Quick
            test_engine_timer_cell_alloc_free;
          Alcotest.test_case "timer alloc-free" `Quick
            test_engine_timer_alloc_free;
          Alcotest.test_case "resume_in_place matches wait" `Quick
            test_engine_resume_in_place_matches_wait;
          Alcotest.test_case "resume_in_place empty cell" `Quick
            test_engine_resume_in_place_empty;
          Alcotest.test_case "worker poll schedule pinned" `Quick
            test_worker_poll_schedule_pinned;
          Alcotest.test_case "worker shared qp pinned" `Quick
            test_worker_shared_qp_pinned;
          QCheck_alcotest.to_alcotest prop_poll_chain_matches_wait;
          QCheck_alcotest.to_alcotest prop_elision_matches_loop;
          Alcotest.test_case "arm refuses a zero period" `Quick test_arm_zero_period;
          Alcotest.test_case "stop_all releases" `Quick
            test_engine_stop_all_releases;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "evq",
        Alcotest.test_case "push after last pop" `Quick
          test_evq_push_after_last_pop
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_evq_matches_heap; prop_evq_matches_heap_default ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "releases entries" `Quick test_heap_releases_entries
        :: List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts; prop_heap_length ]
      );
      ( "semaphore",
        [
          Alcotest.test_case "mutex" `Quick test_semaphore_mutex;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "dedicated no switches" `Quick
            test_cpu_dedicated_core_no_switches;
          Alcotest.test_case "shared core switches" `Quick
            test_cpu_shared_core_switches;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "pinning" `Quick test_cpu_pinning;
          Alcotest.test_case "compute words" `Quick test_cpu_compute_words;
          Alcotest.test_case "compute_cell matches compute" `Quick
            test_cpu_compute_cell_matches;
        ] );
      ("bitset", [ Alcotest.test_case "is_empty" `Quick test_bitset_is_empty ]);
      ( "lru",
        [
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
          Alcotest.test_case "evicting put allocates nothing" `Quick
            test_lru_evicting_put_allocates_nothing;
        ] );
      ("itbl", [ QCheck_alcotest.to_alcotest prop_itbl_matches_model ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "Rng.int allocates nothing" `Quick
            test_rng_int_alloc_free;
          Alcotest.test_case "Flightrec.record allocates nothing" `Quick
            test_flightrec_record_alloc_free;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_rng_float_in_bounds;
        ] );
    ];
  ignore qsuite
