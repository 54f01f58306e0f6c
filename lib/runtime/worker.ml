open Lab_sim
open Lab_ipc
open Lab_core

(* A long-lived process that runs one request at a time for its worker
   and parks on the worker's idle stack between requests. [x_fl.(0)] is
   the request's start time and [x_fl.(1)] stages its service time,
   then its completion charge: a mutable float field would box on every
   store. *)
type executor = {
  x_cell : Engine.park_cell;
  mutable x_req : Request.t;
  mutable x_qp : Request.t Qp.t;
  mutable x_gen : int;  (* [x_req]'s pool generation when taken *)
  x_fl : float array;
  mutable x_busy : bool;
}

type t = {
  w_id : int;
  w_thread : int;
  machine : Machine.t;
  bell : Waitq.t;
  mutable assigned : Request.t Qp.t list;
  (* Readiness bitmap over [qarr] (= [assigned] as an array, same
     order): bit i set means queue i may need attention — a doorbell
     rang or its mark changed since we last looked. The sweep iterates
     set bits via de Bruijn ctz instead of scanning every queue, so
     thousands of mostly-idle QPs cost the same as a handful; the
     per-queue listeners (one closure each, allocated at [assign] time
     only) keep the bitmap current. *)
  mutable qarr : Request.t Qp.t array;
  mutable listeners : (unit -> unit) array;
  ready : Bitset.t;
  mutable running : bool;
  mutable is_parked : bool;
  mutable awake_since : float;
  mutable active : float;
  mutable done_count : int;
  exec : thread:int -> Request.t -> Request.result;
  qstat : qp_id:int -> float array -> int -> unit;
  qprime : qp_id:int -> Request.t -> unit;
  spin_ns : float;
  busy_poll : bool;
  (* Idle polling on the closure-free path: while idle the worker
     process sits parked in [cell], and [tick] (preallocated) stands in
     for each poll's [wait]. [poll] holds the spin
     deadline (0) and the poll interval (1) unboxed; [chain] keeps the
     next poll out of the event queue while it would find nothing. See
     [idle_tick]. *)
  cell : Engine.park_cell;
  poll : float array;
  chain : Engine.chain;
  mutable tick : unit -> unit;
  (* The cross-core pull [sweep] stages for [process]. *)
  pull : float array;
  batch_size : int;
  mutable inflight : int;
  max_inflight : int;
  (* Batch-dequeue scratch, reused across sweeps so draining allocates
     no list per pass. Slots are reset to [scratch_dummy] after each
     batch so the scratch never pins dispatched requests. *)
  scratch : Request.t array;
  scratch_dummy : Request.t;
  (* Idle executors, a stack in [idle_x.(0 .. n_idle - 1)], and how
     many executors the worker has spawned. *)
  mutable idle_x : executor array;
  mutable n_idle : int;
  mutable spawned : int;
  hooks : Hooks.t;  (* request stages and park/wake report here *)
}

(* Whether a poll now would only poll again: the worker is running, has
   queues and no readiness bit is set. An empty-bitmap sweep has no side
   effects, so skipping it is exact. Everything that can turn this false
   while the worker spins fires [chain]: the readiness listeners,
   [assign] and [stop]. *)
let idle t = t.running && Array.length t.qarr > 0 && Bitset.is_empty t.ready

(* One idle poll that runs as an event, where the replaced [Engine.wait]
   would have resumed the worker: the chain was fired, or the spin
   deadline has come. It re-arms when the resume would have done nothing
   but poll again ([idle] and the deadline has not passed); otherwise
   the worker continues in place, inside this event, just as it would
   have continued from its wait. The re-arm takes the seq and instant
   the replaced wait's event would have, and the polls the chain elides
   after it do too, so ties at equal instants and [events_executed] are
   unchanged. No [Engine.now] here: under [-opaque] its float return
   would be boxed on every poll. *)
let idle_tick t () =
  if idle t && not (Engine.reached t.machine.Machine.engine t.poll 0) then
    Engine.arm t.chain t.tick
  else Engine.resume_in_place t.cell

let create machine ~hooks ~id ~thread ~exec ?(qstat = fun ~qp_id:_ _ _ -> ())
    ?(qprime = fun ~qp_id:_ _ -> ()) ?(spin_ns = 5000.0) ?(busy_poll = false)
    ?(batch_size = 1) ?(max_inflight = 16) () =
  let batch_size = Stdlib.max 1 batch_size in
  let scratch_dummy =
    Request.make ~id:(-1) ~pid:(-1) ~uid:(-1) ~thread:(-1) ~stack_id:(-1)
      ~now:0.0 (Request.Control 0)
  in
  let poll = [| 0.0; 0.0 |] in
  let t =
    {
      w_id = id;
      w_thread = thread;
      machine;
      bell = Waitq.create ();
      assigned = [];
      qarr = [||];
      listeners = [||];
      ready = Bitset.create 0;
      running = true;
      is_parked = false;
      awake_since = 0.0;
      active = 0.0;
      done_count = 0;
      exec;
      qstat;
      qprime;
      spin_ns;
      busy_poll;
      cell = Engine.make_park_cell ();
      poll;
      chain = Engine.chain machine.Machine.engine poll;
      tick = ignore;
      pull = [| 0.0 |];
      batch_size;
      inflight = 0;
      max_inflight = Stdlib.max 1 max_inflight;
      scratch = Array.make batch_size scratch_dummy;
      scratch_dummy;
      idle_x = [||];
      n_idle = 0;
      spawned = 0;
      hooks;
    }
  in
  t.tick <- idle_tick t;
  t

let id t = t.w_id

let thread t = t.w_thread

let queues t = t.assigned

let doorbell t = t.bell

let wake t = ignore (Waitq.wake_all t.bell)

let assign t qps =
  (* Detach our doorbell and readiness listener from queues we lose;
     attach to those we gain. Unordered queues can be shared by several
     workers, so only our own bell/listeners are touched. *)
  List.iter (fun qp -> Qp.remove_doorbell qp t.bell) t.assigned;
  Array.iteri
    (fun i qp -> Qp.remove_ready_listener qp t.listeners.(i))
    t.qarr;
  t.assigned <- qps;
  t.qarr <- Array.of_list qps;
  let n = Array.length t.qarr in
  t.listeners <-
    Array.init n (fun i ->
        let f () =
          Bitset.set t.ready i;
          Engine.fire t.chain
        in
        f);
  Bitset.resize t.ready n;
  Bitset.clear_all t.ready;
  Array.iteri
    (fun i qp ->
      Qp.add_ready_listener qp t.listeners.(i);
      (* Seed readiness: anything already queued or mid-upgrade must be
         visited without waiting for a fresh doorbell. *)
      if Qp.sq_depth qp > 0 || Qp.mark qp = Qp.Update_pending then
        Bitset.set t.ready i)
    t.qarr;
  List.iter (fun qp -> Qp.add_doorbell qp t.bell) qps;
  Engine.fire t.chain;
  wake t

let stop t =
  t.running <- false;
  Engine.fire t.chain;
  wake t

let resume t =
  t.running <- true;
  wake t

let parked t = t.is_parked

let processed t = t.done_count

let inflight t = t.inflight

let executors t = t.spawned

let active_ns t =
  if t.is_parked then t.active
  else t.active +. (Engine.now t.machine.Machine.engine -. t.awake_since)

let reset_stats t =
  t.active <- 0.0;
  t.done_count <- 0;
  if not t.is_parked then t.awake_since <- Engine.now t.machine.Machine.engine

let costs t = t.machine.Machine.costs

(* Runs the executor's request through its stack and posts the
   completion, reporting each stage boundary to the hooks. *)
let run_request t x =
  let req = x.x_req and qp = x.x_qp in
  let e = t.machine.Machine.engine and xf = x.x_fl in
  Engine.stamp e xf 0;
  Hooks.execute t.hooks req ~tid:t.w_thread;
  req.Request.result <- t.exec ~thread:t.w_thread req;
  (* A request released (and maybe re-acquired) while it ran belongs to
     someone else now: completing it would hand them our result. *)
  if req.Request.gen <> x.x_gen then
    invalid_arg "Worker: request released while in flight";
  Hooks.complete t.hooks req;
  Engine.stamp e xf 1;
  xf.(1) <- xf.(1) -. xf.(0);
  t.qstat ~qp_id:(Qp.id qp) xf 1;
  xf.(1) <- (costs t).Costs.shmem_enqueue_ns;
  Machine.compute_cell t.machine ~thread:t.w_thread xf 1;
  (* Before the completion push can wake the client. *)
  Hooks.reap t.hooks req ~tid:t.w_thread;
  Qp.complete qp req;
  t.done_count <- t.done_count + 1;
  t.inflight <- t.inflight - 1;
  (* The worker may have parked on a full window; nudge it. *)
  wake t

(* An executor's life: run a request, drop it, push itself on the idle
   stack and park until [dispatch] hands it the next one. *)
let executor_loop t x () =
  while true do
    run_request t x;
    x.x_req <- t.scratch_dummy;
    x.x_busy <- false;
    if t.n_idle = Array.length t.idle_x then begin
      let grown = Array.make (Stdlib.max 4 (2 * t.n_idle)) x in
      Array.blit t.idle_x 0 grown 0 t.n_idle;
      t.idle_x <- grown
    end;
    t.idle_x.(t.n_idle) <- x;
    t.n_idle <- t.n_idle + 1;
    Engine.park x.x_cell
  done

(* Hands an idle executor its next request. Resuming an executor that
   is not parked idle would run two requests in one process, so it
   fails loudly instead. *)
let resume_executor x req qp =
  if x.x_busy || not (Engine.parked x.x_cell) then
    invalid_arg "Worker: executor resumed while not parked idle";
  x.x_busy <- true;
  x.x_req <- req;
  x.x_qp <- qp;
  x.x_gen <- req.Request.gen;
  Engine.unpark x.x_cell

let take_idle t =
  if t.n_idle = 0 then raise Not_found;
  t.n_idle <- t.n_idle - 1;
  t.idle_x.(t.n_idle)

(* Starts [req] on an idle executor, or on a new one when none is idle.
   Unparking takes the same (now, next seq) key the spawn would, and
   the executor then runs the same code, so the schedule is that of a
   process spawned per request (DESIGN.md, "Request path"). *)
let dispatch t qp req =
  match take_idle t with
  | x -> resume_executor x req qp
  | exception Not_found ->
      let x =
        {
          x_cell = Engine.make_park_cell ();
          x_req = req;
          x_qp = qp;
          x_gen = req.Request.gen;
          x_fl = [| 0.0; 0.0 |];
          x_busy = true;
        }
      in
      t.spawned <- t.spawned + 1;
      Engine.spawn t.machine.Machine.engine (executor_loop t x)

(* Each request runs on an executor on the worker's thread: CPU bursts
   serialize on the worker's core, but waits (device I/O, downstream
   LabMods) overlap across requests — the paper's asynchronous message
   passing, which is what lets one worker drive a device well beyond
   1/latency. [max_inflight] bounds the window. [t.pull.(0)], staged
   by [sweep], is this request's share of the cross-core cache-line
   pull, paid serially in the polling loop — the worker cannot dequeue
   the next request meanwhile, which is what lets a second worker pick
   it up from a shared (unordered) queue. *)
let process t qp req =
  t.inflight <- t.inflight + 1;
  (* Tell the orchestrator what this request is expected to cost before
     we start on it (the EstProcessingTime API): a queue turns
     computational at dispatch, not at first completion. *)
  t.qprime ~qp_id:(Qp.id qp) req;
  Hooks.dispatch t.hooks req ~tid:t.w_thread;
  Machine.compute_cell t.machine ~thread:t.w_thread t.pull 0;
  dispatch t qp req

(* One pass over the *ready* queues: up to [batch_size] requests are
   drained per queue per pass, so one cross-core pull covers the whole
   run of adjacent ring slots (the head pays the full transfer, the
   rest the configured fraction). Fairness is round-robin between
   queues — a pass never drains one queue dry before visiting the
   next. The bitmap iteration reads live bits in ascending index
   order, exactly the order the old linear scan visited the queue
   list, and a queue whose bit is clear is one the scan would have
   polled emptily — so skipping it is behaviourally identical, just
   O(ready) instead of O(assigned). A visited queue's bit is cleared
   first and re-set when it still needs attention (budget exhausted,
   leftover ring entries, unacknowledgeable upgrade mark), which lands
   it in the next pass like the old per-pass revisit did. Returns
   whether any request was dispatched. Upgrade marks are acknowledged
   here (marked queues are not drained until the Module Manager
   unmarks them). *)
let sweep t =
  let progress = ref false in
  let i = ref (Bitset.next_set t.ready 0) in
  while !i >= 0 do
    let idx = !i in
    Bitset.clear t.ready idx;
    let qp = Array.unsafe_get t.qarr idx in
    (match Qp.mark qp with
    | Qp.Update_pending ->
        (* Only acknowledge once our in-flight requests retire. (The
           ack's own mark change re-sets our bit; the follow-up visit
           sees Update_acked and goes back to sleep.) *)
        if t.inflight = 0 then Qp.set_mark qp Qp.Update_acked
        else Bitset.set t.ready idx
    | Qp.Update_acked -> ()
    | Qp.Normal ->
        let budget = Stdlib.min t.batch_size (t.max_inflight - t.inflight) in
        if budget > 0 then begin
          let got = Qp.poll_sq_into qp t.scratch budget in
          if got > 0 then begin
            progress := true;
            let c = costs t in
            for i = 0 to got - 1 do
              let req = t.scratch.(i) in
              t.scratch.(i) <- t.scratch_dummy;
              t.pull.(0) <-
                (if i = 0 then c.Costs.shmem_cross_core_ns
                 else c.Costs.shmem_cross_core_ns *. c.Costs.shmem_batch_frac);
              process t qp req
            done
          end
        end;
        if Qp.sq_depth qp > 0 then Bitset.set t.ready idx);
    i := Bitset.next_set t.ready (idx + 1)
  done;
  !progress

let park t =
  t.active <- t.active +. (Engine.now t.machine.Machine.engine -. t.awake_since);
  t.is_parked <- true;
  let done_before = t.done_count in
  Hooks.park t.hooks ~id:t.w_id ~tag:"worker";
  Waitq.park t.bell;
  t.is_parked <- false;
  t.awake_since <- Engine.now t.machine.Machine.engine;
  Hooks.wake t.hooks ~id:t.w_id ~arg:(t.done_count - done_before) ~tag:"worker"

(* Wait one poll interval ([poll.(1)]) on the idle tick: the worker
   parks, and the tick resumes it in place once polling would find
   something or the deadline ([poll.(0)]) has passed. A sweep that left
   a bit set (or a worker that is stopped or has no queues) needs its
   next poll to run, so the chain is fired at once. *)
let poll_wait t =
  Engine.arm t.chain t.tick;
  if not (idle t) then Engine.fire t.chain;
  Engine.park t.cell

(* Spin-poll until a sweep dispatches work (true) or the deadline
   passes (false). *)
let rec spin t =
  if Engine.reached t.machine.Machine.engine t.poll 0 then false
  else begin
    poll_wait t;
    sweep t || spin t
  end

let start t =
  Engine.spawn t.machine.Machine.engine (fun () ->
      t.awake_since <- Engine.now t.machine.Machine.engine;
      let rec loop () =
        if not t.running then begin
          park t;
          loop ()
        end
        else if sweep t then loop ()
        else if t.busy_poll && t.assigned <> [] then begin
          (* Statically-configured workers never sleep: poll the queue
             set at a coarse interval (the sweep itself costs time). *)
          t.poll.(0) <- Float.infinity;
          t.poll.(1) <- 2000.0;
          poll_wait t;
          loop ()
        end
        else begin
          (* Idle: spin-poll for a bounded budget, then park. *)
          Engine.set_after t.poll 0 t.spin_ns;
          t.poll.(1) <- (costs t).Costs.poll_spin_ns;
          if not (spin t) then park t;
          loop ()
        end
      in
      loop ())
