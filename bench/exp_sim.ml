(* Simulator-core benchmark: events/sec and minor words/event on the
   DES hot path.

   Two synthetic closed loops, one idle worker, a CPU burst loop, two
   full-stack scenarios and a queue-footprint replay:

   - timer:  [loops] concurrent self-rescheduling timers on the pooled
             [Engine.timer] path (closure-free dispatch, calendar
             queue). This is the engine's allocation-free hot path and
             is gated at <= 2 minor words/event in steady state.
   - wait:   the same closed loop expressed as effect-based processes
             ([Engine.spawn] + [Engine.wait]) — the path every runtime
             coroutine takes. Reported for context; continuations
             allocate, so no words/event gate.
   - idle-spin: one runtime worker with an empty queue spin-polling
             for its next submission. Every event is an empty poll,
             which the worker's poll chain elides: gated at <= 0.5
             minor words/poll and at >= 99% of polls elided.
   - burst:  one process running [Machine.compute_cell] bursts back to
             back on its own core. A burst allocates only its wait's
             effect continuation: gated at <= 2.01 minor words/burst.
   - device: one process issuing NVMe commands back to back through
             [Device.submit_waiter] + [Device.await] on a pooled waiter.
             Reports steady-state minor words and engine events per
             4 KiB command and per 1 MiB (four-chunk) command. The
             device serves on preallocated timers, so the 4 KiB words
             are the caller's own [await] continuation, gated at 2
             words/command ([device_budget]); the events are pinned at
             their counts under the process-based device it replaced
             ([device_events_4k], [device_events_1m]).
   - exec:   [Exec.run] over chains of 1 and 8 pass-through vertices
             on a bound stack. The slope is minor words per module hop,
             gated at <= 0.01; the 1-vertex chain is reported as the
             walk's own words per call.
   - request: one client reading a 4 KiB block back to back through
             [Platform] (client -> queue pair -> worker -> lru_cache ->
             noop_sched -> kernel_driver), every read a warm cache hit.
             Reports steady-state minor words per request; gated
             two words above its measured 43.59 ([request_budget]).
   - fd-read: the same path through the POSIX fd ops: one client
             reading 4 KiB of an open file back to back with
             [Client.pread] (labfs -> lru_cache -> noop_sched ->
             kernel_driver), every read a warm cache hit. Gated two
             words above its measured value ([fd_read_budget]); not
             printed, only claimed and written to the JSON.
   - batching: one point of the exp_batching sweep, as a whole-stack
             events fingerprint.
   - evq:    the timer scenario's pushes and pops replayed on a bare
             [Evq]; its reachable words afterwards are the queue's
             footprint, gated at <= 2x a fresh queue's.

   One in sixteen timers sleeps far beyond the calendar window so the
   overflow heap and window re-anchoring stay on the measured path.

   Default output is deterministic (event counts, words/event from
   Gc.minor_words deltas). Set LABSTOR_WALLCLOCK for events/sec (in
   full runs idle polls must run at least as fast as timer events);
   --smoke shrinks the workload for CI. Writes BENCH_sim.json. *)

open Lab_sim

let loops = 256

(* Spread delays across the calendar window; every 16th timer jumps
   past the 131 us window so the overflow heap and window re-anchoring
   stay on the measured path. *)
let delay_ns slot =
  if slot land 15 = 0 then 500_000 else 100 + (slot * 37 mod 1400)

(* Steady-state measurement around [f]: the caller runs a warmup phase
   first so pool and bucket growth are out of the way. *)
let measured e f =
  let e0 = Engine.events_executed e in
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  f ();
  let wall = Sys.time () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_executed e - e0 in
  (events, words /. Stdlib.float_of_int events, wall)

(* Pooled path: one shared [int -> unit] function, re-armed via
   [Engine.timer] — no per-event allocation anywhere in the loop. *)
let run_timer ~warmup ~total =
  let e = Engine.create () in
  let remaining = ref 0 in
  let rec fire slot =
    if !remaining > 0 then begin
      Stdlib.decr remaining;
      Engine.timer e ~ns:(delay_ns slot) fire slot
    end
  in
  let seed () =
    for i = 0 to loops - 1 do
      Engine.timer e ~ns:(100 + i) fire i
    done
  in
  remaining := warmup;
  seed ();
  Engine.run e;
  remaining := total;
  seed ();
  let events, wpe, wall = measured e (fun () -> Engine.run e) in
  (events, wpe, wall, Engine.now e)

(* Effect path: the same closed loop as cooperating processes. *)
let run_wait ~total =
  let e = Engine.create () in
  let remaining = ref total in
  for i = 0 to loops - 1 do
    let d = Stdlib.float_of_int (delay_ns i) in
    Engine.spawn e (fun () ->
        while !remaining > 0 do
          Stdlib.decr remaining;
          Engine.wait d
        done)
  done;
  measured e (fun () -> Engine.run e)

(* Idle spin: a real worker, one empty queue, a spin budget longer
   than the run. The first millisecond (worker start-up) is not
   measured. *)
let run_idle_spin ~polls =
  let m = Machine.create ~ncores:1 () in
  let e = m.Machine.engine in
  let poll_ns = m.Machine.costs.Costs.poll_spin_ns in
  let warm_ns = 1_000_000.0 in
  let limit = warm_ns +. (Stdlib.float_of_int polls *. poll_ns) in
  let w =
    Lab_runtime.Worker.create m ~hooks:Lab_core.Hooks.off ~id:0 ~thread:0
      ~exec:(fun ~thread:_ _ -> Lab_core.Request.Done)
      ~spin_ns:(limit +. poll_ns) ()
  in
  let qp =
    Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered
      ~id:0 ()
  in
  Lab_runtime.Worker.assign w [ qp ];
  Lab_runtime.Worker.start w;
  Engine.run ~until:warm_ns e;
  let x0 = Engine.polls_elided e in
  let events, wpe, wall =
    measured e (fun () -> Engine.run ~until:limit e)
  in
  (events, wpe, wall, Engine.polls_elided e - x0)

(* CPU bursts: one process charging a staged burst on its own core,
   back to back; steady-state minor words per burst after [warmup]. *)
let run_burst ~warmup ~total =
  let m = Machine.create ~ncores:1 () in
  let cells = [| 100.0 |] in
  let words = ref 0.0 in
  Machine.spawn m (fun () ->
      for _ = 1 to warmup do
        Machine.compute_cell m ~thread:0 cells 0
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to total do
        Machine.compute_cell m ~thread:0 cells 0
      done;
      words := Gc.minor_words () -. w0);
  Machine.run m;
  !words /. Stdlib.float_of_int total

(* Device command path: [total] commands after [warmup], one in flight,
   alternating writes and reads over the hctxs. Only the measured
   commands count; the warmup grows the device's pools. Returns minor
   words and engine events per command. *)
let run_device ~warmup ~total ~bytes =
  let open Lab_device in
  let e = Engine.create () in
  let dev = Device.create e Profile.nvme in
  let waiters = Device.waiter_pool () in
  let words = ref 0.0 and events = ref 0 in
  let cmd i =
    let w = Device.take_waiter waiters in
    Device.submit_waiter dev w ~hctx:i
      ~kind:(if i land 1 = 0 then Device.Write else Device.Read)
      ~lba:(i * 256) ~bytes;
    Device.await w;
    Device.give_waiter waiters w
  in
  Engine.spawn e (fun () ->
      for i = 1 to warmup do
        cmd i
      done;
      let e0 = Engine.events_executed e in
      let w0 = Gc.minor_words () in
      for i = 1 to total do
        cmd i
      done;
      words := Gc.minor_words () -. w0;
      events := Engine.events_executed e - e0);
  Engine.run e;
  let per x = x /. Stdlib.float_of_int total in
  (per !words, per (Stdlib.float_of_int !events))

(* Exec.run over a chain of [hops] pass-through vertices, each handing
   the request on to the next and the last returning [Done]: steady-state
   minor words per walk after [warmup] walks bind the stack. The slope
   between chain lengths is the words per hop, as labbench measures
   it; the one-vertex chain is the walk's own cost. *)
let passthrough : Lab_core.Registry.factory =
 fun ~uuid ~attrs:_ ->
  Lab_core.Labmod.make ~name:"passthrough" ~uuid ~mod_type:Lab_core.Labmod.Control
    {
      Lab_core.Labmod.operate = (fun _ ctx req -> ctx.Lab_core.Labmod.forward req);
      est_processing_time = Lab_core.Labmod.default_est;
      state_update = Fun.id;
      state_repair = ignore;
    }

let run_exec ~hops ~warmup ~total =
  let open Lab_core in
  let m = Machine.create ~ncores:1 () in
  let registry = Registry.create () in
  Registry.register_factory registry ~name:"passthrough" passthrough;
  let vertex i =
    {
      Stack_spec.uuid = Printf.sprintf "v%d" i;
      mod_name = "passthrough";
      attrs = [];
      outputs = (if i = hops - 1 then [] else [ Printf.sprintf "v%d" (i + 1) ]);
    }
  in
  let spec =
    {
      Stack_spec.mount = "ctl::/hops";
      rules = Stack_spec.default_rules;
      dag = List.init hops vertex;
    }
  in
  let stack =
    match Stack.instantiate registry spec ~id:0 with
    | Ok s -> s
    | Error e -> failwith ("sim exec chain: " ^ e)
  in
  let req =
    Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:0 ~now:0.0
      (Request.Control 0)
  in
  let walk () =
    match Lab_runtime.Exec.run m ~registry ~stack ~thread:0 req with
    | Request.Done -> ()
    | r -> failwith (Format.asprintf "sim exec chain: %a" Request.pp_result r)
  in
  let words = ref 0.0 in
  Machine.spawn m (fun () ->
      for _ = 1 to warmup do
        walk ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to total do
        walk ()
      done;
      words := Gc.minor_words () -. w0);
  Machine.run m;
  !words /. Stdlib.float_of_int total

let exec_hops = 8

(* Words per 4 KiB command on the device scenario: the caller's
   [await], its measured value. *)
let device_budget = 2.0

(* Engine events per 4 KiB and per 1 MiB command on the device
   scenario, as the process-based device scheduled them. *)
let device_events_4k = 7.0

let device_events_1m = 19.0

(* Words per request on [run_request], two above the measured 43.59. *)
let request_budget = 45.6

(* Full request path: one client, one worker, a cache that holds every
   block it reads. The warmup fills the cache and grows the request,
   command and executor pools, so each measured read is a cache hit that
   allocates only what one request costs in steady state. *)
let run_request ~warmup ~total =
  let open Labstor in
  let p = Platform.boot ~nworkers:1 () in
  let mount = "blk::/sim" in
  ignore
    (Platform.mount_exn p
       (Printf.sprintf
          "mount: %S\n\
           rules:\n  exec_mode: async\n\
           dag:\n\
          \  - uuid: rq-cache\n    mod: lru_cache\n\
          \    attrs:\n      capacity_mb: 4\n    outputs: [rq-sched]\n\
          \  - uuid: rq-sched\n    mod: noop_sched\n    outputs: [rq-drv]\n\
          \  - uuid: rq-drv\n    mod: kernel_driver\n"
          mount));
  Platform.go p (fun () ->
      let c = Platform.client p ~thread:0 () in
      let read i =
        match
          Lab_runtime.Client.read_block c ~mount ~lba:(8 * (i land 63))
            ~bytes:4096
        with
        | Ok _ -> ()
        | Error e -> failwith ("sim request: " ^ e)
      in
      for i = 1 to warmup do
        read i
      done;
      let w0 = Gc.minor_words () in
      for i = 1 to total do
        read i
      done;
      (Gc.minor_words () -. w0) /. Stdlib.float_of_int total)

(* Words per read on [run_fd_read], two above the measured 73.70. *)
let fd_read_budget = 75.7

(* POSIX fd path: one client, one worker, an open file whose only 4 KiB
   block the cache holds once the first write lands, so each measured
   pread is a cache hit. *)
let run_fd_read ~warmup ~total =
  let open Labstor in
  let p = Platform.boot ~nworkers:1 () in
  ignore
    (Platform.mount_exn p
       "mount: \"fs::/sim\"\n\
        rules:\n  exec_mode: async\n\
        dag:\n\
       \  - uuid: fd-fs\n    mod: labfs\n    outputs: [fd-cache]\n\
       \  - uuid: fd-cache\n    mod: lru_cache\n\
       \    attrs:\n      capacity_mb: 4\n    outputs: [fd-sched]\n\
       \  - uuid: fd-sched\n    mod: noop_sched\n    outputs: [fd-drv]\n\
       \  - uuid: fd-drv\n    mod: kernel_driver\n");
  Platform.go p (fun () ->
      let c = Platform.client p ~thread:0 () in
      let check = function Ok _ -> () | Error e -> failwith ("sim fd read: " ^ e) in
      let fd =
        match Lab_runtime.Client.open_file c ~create:true "fs::/sim/f" with
        | Ok fd -> fd
        | Error e -> failwith ("sim fd read: " ^ e)
      in
      check (Lab_runtime.Client.pwrite c ~fd ~off:0 ~bytes:4096);
      for _ = 1 to warmup do
        check (Lab_runtime.Client.pread c ~fd ~off:0 ~bytes:4096)
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to total do
        check (Lab_runtime.Client.pread c ~fd ~off:0 ~bytes:4096)
      done;
      (Gc.minor_words () -. w0) /. Stdlib.float_of_int total)

(* Queue footprint: replay [run_timer]'s exact push/pop sequence (same
   seqs, same times) on a bare queue and count the words it retains.
   [Engine] keeps its queue private, hence the replay. *)
let evq_words ~warmup ~total =
  let q = Evq.create () in
  let seq = ref 0 in
  let push time slot =
    Stdlib.incr seq;
    q.Evq.key_in.(0) <- time;
    Evq.push q ~seq:!seq ~slot
  in
  let phase remaining =
    let remaining = ref remaining in
    for i = 0 to loops - 1 do
      push (q.Evq.key_out.(0) +. Stdlib.float_of_int (100 + i)) i
    done;
    let slot = ref (Evq.pop q) in
    while !slot >= 0 do
      if !remaining > 0 then begin
        Stdlib.decr remaining;
        push (q.Evq.key_out.(0) +. Stdlib.float_of_int (delay_ns !slot)) !slot
      end;
      slot := Evq.pop q
    done
  in
  let fresh = Obj.reachable_words (Obj.repr q) in
  phase warmup;
  phase total;
  (fresh, Obj.reachable_words (Obj.repr q))

let rate events wall =
  if wall > 0.0 then Stdlib.float_of_int events /. wall else 0.0

let run () =
  let smoke = Bench_util.smoke () in
  (* Warmup must cover at least one full calendar-window cycle (~42000
     events for this workload: ~3.1 ns of simulated time per event
     against a 131 us window) so entry-pool and heap growth are out of the
     measured phase. *)
  let warmup = if smoke then 50_000 else 100_000 in
  let timer_total = if smoke then 20_000 else 2_000_000 in
  let wait_total = if smoke then 10_000 else 400_000 in
  let batch_ops = if smoke then 256 else 2048 in
  let idle_polls = if smoke then 20_000 else 200_000 in
  Bench_util.heading "sim"
    "Simulator core: events/sec and minor words/event on the hot path";
  Printf.printf
    "  %d concurrent closed-loop timers, %d measured events after %d warmup\n"
    loops timer_total warmup;
  let widths = [ 10; 9; 9 ] in
  Bench_util.print_row widths [ "scenario"; "events"; "words/ev" ];
  Bench_util.print_row widths (List.map (fun w -> String.make w '-') widths);
  let t_events, t_wpe, t_wall, t_now = run_timer ~warmup ~total:timer_total in
  Bench_util.print_row widths
    [ "timer"; string_of_int t_events; Printf.sprintf "%.4f" t_wpe ];
  let w_events, w_wpe, w_wall = run_wait ~total:wait_total in
  Bench_util.print_row widths
    [ "wait"; string_of_int w_events; Printf.sprintf "%.2f" w_wpe ];
  let i_events, i_wpe, i_wall, i_elided = run_idle_spin ~polls:idle_polls in
  Bench_util.print_row (widths @ [ 0 ])
    [
      "idle-spin";
      string_of_int i_events;
      Printf.sprintf "%.4f" i_wpe;
      Printf.sprintf "%d elided" i_elided;
    ];
  let c_words = run_burst ~warmup:1_000 ~total:10_000 in
  Bench_util.print_row (widths @ [ 0 ])
    [ "burst"; "-"; Printf.sprintf "%.2f" c_words; "words/burst (compute_cell)" ];
  let d_4k, de_4k = run_device ~warmup:1_000 ~total:10_000 ~bytes:4096 in
  let d_1m, de_1m = run_device ~warmup:200 ~total:2_000 ~bytes:(1024 * 1024) in
  Bench_util.print_row (widths @ [ 0 ])
    [
      "device";
      "-";
      Printf.sprintf "%.2f" d_4k;
      Printf.sprintf "words/cmd (4 KiB); %.2f per 1 MiB cmd" d_1m;
    ];
  let x_call = run_exec ~hops:1 ~warmup:100 ~total:20_000 in
  let x_long = run_exec ~hops:exec_hops ~warmup:100 ~total:20_000 in
  let x_hop = (x_long -. x_call) /. Stdlib.float_of_int (exec_hops - 1) in
  Bench_util.print_row (widths @ [ 0 ])
    [
      "exec"; "-"; Printf.sprintf "%.4f" x_hop;
      Printf.sprintf "words/hop (%d vs 1 vertices); %.4f per call" exec_hops
        x_call;
    ];
  let r_words = run_request ~warmup:2_000 ~total:10_000 in
  Bench_util.print_row (widths @ [ 0 ])
    [
      "request"; "-"; Printf.sprintf "%.2f" r_words;
      "words/request (4 KiB cache-hit read_block)";
    ];
  let f_words = run_fd_read ~warmup:2_000 ~total:10_000 in
  let b = Exp_batching.run_case ~seed:0xBA7C4 ~qd:64 ~batch:16
      ~total_ops:batch_ops in
  Bench_util.print_row widths
    [ "batching"; string_of_int b.Exp_batching.events; "-" ];
  let q_fresh, q_words = evq_words ~warmup ~total:timer_total in
  Bench_util.note "evq footprint after the timer scenario: %d words (fresh %d)"
    q_words q_fresh;
  (* The budgets of the header. Gc counters and event counts are
     deterministic, so these claims (and the JSON they feed) cannot
     flake. *)
  let alloc_ok = Bench_util.words_ok (t_wpe <= 2.0) in
  Bench_util.claim "sim.timer_words" alloc_ok
    "pooled timer path at %.4f minor words/event (budget 2.0)" t_wpe;
  Bench_util.claim "sim.idle_poll_words" (Bench_util.words_ok (i_wpe <= 0.5))
    "idle worker at %.4f minor words/poll (budget 0.5)" i_wpe;
  Bench_util.claim "sim.idle_polls_elided" (100 * i_elided >= 99 * i_events)
    "%d of %d idle polls elided (floor 99%%)" i_elided i_events;
  Bench_util.claim "sim.burst_words" (Bench_util.words_ok (c_words <= 2.01))
    "compute burst at %.2f minor words (budget 2.01)" c_words;
  Bench_util.claim "sim.device_words"
    (Bench_util.words_ok (d_4k <= device_budget))
    "device path at %.2f minor words per 4 KiB command (budget %g)" d_4k
    device_budget;
  Bench_util.claim "sim.device_events"
    (de_4k = device_events_4k && de_1m = device_events_1m)
    "device path at %.2f events per 4 KiB and %.2f per 1 MiB command \
     (pinned %g and %g)"
    de_4k de_1m device_events_4k device_events_1m;
  Bench_util.claim "sim.exec_hop_words" (Bench_util.words_ok (x_hop <= 0.01))
    "Exec.run at %.4f minor words per hop (budget 0.01)" x_hop;
  Bench_util.claim "sim.request_words"
    (Bench_util.words_ok (r_words <= request_budget))
    "request path at %.2f minor words per 4 KiB cache-hit read (budget %.2f)"
    r_words request_budget;
  Bench_util.claim "sim.fd_read_words"
    (Bench_util.words_ok (f_words <= fd_read_budget))
    "fd path at %.2f minor words per 4 KiB cache-hit pread (budget %.2f)"
    f_words fd_read_budget;
  Bench_util.claim "sim.evq_footprint" (q_words <= 2 * q_fresh)
    "evq holds %d words after the timer scenario (budget 2x fresh = %d)"
    q_words (2 * q_fresh);
  if Bench_util.wallclock_enabled () then begin
    Bench_util.note "timer:  %7.0fk events/sec" (rate t_events t_wall /. 1e3);
    Bench_util.note "wait:   %7.0fk events/sec" (rate w_events w_wall /. 1e3);
    Bench_util.note "idle:   %7.0fk polls/sec" (rate i_events i_wall /. 1e3);
    (* An elided poll is a few float and int updates, so it must be no
       slower than a timer event on a 256-entry queue. *)
    Bench_util.claim "sim.idle_spin_rate"
      (smoke || rate i_events i_wall >= rate t_events t_wall)
      "%.0fk polls/sec below %.0fk timer events/sec"
      (rate i_events i_wall /. 1e3)
      (rate t_events t_wall /. 1e3)
  end;
  (* Determinism: identical runs must execute the identical event
     sequence and allocate the identical number of words. *)
  let t_events', t_wpe', _, t_now' = run_timer ~warmup ~total:timer_total in
  let same = t_events = t_events' && t_now = t_now' && t_wpe = t_wpe' in
  Bench_util.claim "sim.deterministic" same
    "timer-loop runs differ (events %d/%d)" t_events t_events';
  if same then
    Bench_util.note "determinism: two timer-loop runs matched exactly";
  let oc = open_out "BENCH_sim.json" in
  Printf.fprintf oc
    "{\n\
    \  \"loops\": %d,\n\
    \  \"timer_events\": %d,\n\
    \  \"timer_words_per_event\": %.4f,\n\
    \  \"timer_alloc_ok\": %b,\n\
    \  \"wait_events\": %d,\n\
    \  \"wait_words_per_event\": %.2f,\n\
    \  \"idle_spin_polls\": %d,\n\
    \  \"idle_spin_words_per_poll\": %.4f,\n\
    \  \"idle_spin_polls_elided\": %d,\n\
    \  \"burst_words\": %.2f,\n\
    \  \"device_words_per_cmd\": %.2f,\n\
    \  \"device_words_per_mib_cmd\": %.2f,\n\
    \  \"device_events_per_cmd\": %.2f,\n\
    \  \"device_events_per_mib_cmd\": %.2f,\n\
    \  \"exec_words_per_hop\": %.4f,\n\
    \  \"exec_words_per_call\": %.4f,\n\
    \  \"request_words_per_op\": %.2f,\n\
    \  \"fd_read_words_per_op\": %.2f,\n\
    \  \"batching_events\": %d,\n\
    \  \"evq_words\": %d,\n\
    \  \"deterministic\": %b\n\
     }\n"
    loops t_events t_wpe alloc_ok w_events w_wpe i_events
    i_wpe i_elided c_words d_4k d_1m de_4k de_1m x_hop x_call r_words f_words b.Exp_batching.events q_words
    (t_events = t_events' && t_now = t_now');
  close_out oc;
  Bench_util.note "wrote BENCH_sim.json"
