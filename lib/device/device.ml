open Lab_sim

type io_kind = Read | Write

type error = E_io | E_offline | E_torn of int

(* Offline maps to ENODEV — "no such device" — so upper layers can
   tell a fail-over condition (the device is gone, requeue or switch
   mirror legs) from a retryable media error (EIO). *)
let error_to_string = function
  | E_io -> "EIO"
  | E_offline -> "ENODEV"
  | E_torn n -> Printf.sprintf "ETORN(%d persisted)" n

type health_event = Went_offline of { until_ns : float } | Came_online

(* A caller-owned, reusable completion record. One submission fans out
   into chunks; each finished chunk merges its outcome here in place,
   and the last one stamps the completion time and calls [w_notify]. *)
type waiter = {
  w_cell : Engine.park_cell;
  mutable w_pending : int;  (* chunks not finished yet; 0 = free to submit *)
  mutable w_persisted : int;
  mutable w_worst : int;  (* [error_rank] of the worst chunk error; -1 = none *)
  w_times : float array;  (* [0] submitted, [1] completed *)
  mutable w_notify : waiter -> unit;
  mutable w_bytes : int;
  mutable w_hctx : int;
}

(* One pooled device command (a chunk of a submission), linked through
   [next] into its hctx's FIFO or the device's free list. *)
type cmd = {
  mutable kind : io_kind;
  mutable lba : int;
  mutable bytes : int;
  mutable fault : Fault.decision;  (* drawn from the fault plan at submit time *)
  mutable owner : waiter;
  submitted : float array;  (* [0]; a mutable float field would box per store *)
  mutable next : cmd;
  mutable live : bool;  (* between submit and finish *)
}

(* A pooled service record. It serves one command at a time: its
   preallocated callback [s_fn] is queued as an engine timer at each
   point where a service process would have resumed, and [s_state]
   says which step the next call runs. Between commands it sits on the
   device's idle list, during its transfer on its hctx's transfer
   FIFO. *)
type server = {
  mutable s_cmd : cmd;
  mutable s_hctx : int;
  mutable s_tbytes : int;  (* payload waiting for the arbiter *)
  mutable s_next : server;  (* idle list / transfer FIFO link *)
  mutable s_state : int;
  s_delay : float array;
  mutable s_fn : int -> unit;
}

(* Server states. [starting], [latency] and [transferred] have the
   server's timer queued; the others wait for the dispatcher
   ([idle]), the arbiter ([transferring]) or nothing ([lost]: a lost
   command's server is never called again). *)
let starting = 0

let idle = 1

let transferring = 2

let lost = 3

let latency = 4

let transferred = 5

let nil_waiter =
  {
    w_cell = Engine.make_park_cell ();
    w_pending = 0;
    w_persisted = 0;
    w_worst = -1;
    w_times = [| 0.0; 0.0 |];
    w_notify = ignore;
    w_bytes = 0;
    w_hctx = 0;
  }

let nil_cmd =
  let submitted = [| 0.0 |] in
  let rec c =
    {
      kind = Read;
      lba = 0;
      bytes = 0;
      fault = Fault.Pass;
      owner = nil_waiter;
      submitted;
      next = c;
      live = false;
    }
  in
  c

let nil_server =
  let rec s =
    {
      s_cmd = nil_cmd;
      s_hctx = 0;
      s_tbytes = 0;
      s_next = s;
      s_state = starting;
      s_delay = [| 0.0 |];
      s_fn = ignore;
    }
  in
  s

type waiter_pool = { mutable ws : waiter array; mutable nws : int }

type t = {
  name : string;
  engine : Engine.t;
  profile : Profile.t;
  (* Dispatch: per-hctx command FIFOs and one dispatcher state per
     hctx ([d_state], see [dispatcher_event]). A command put while its
     dispatcher is parked is handed over directly in [handoff] instead
     of entering the FIFO; [handoff] also holds the command of a
     dispatcher waiting for a channel. *)
  q_head : cmd array;
  q_tail : cmd array;
  handoff : cmd array;
  d_state : int array;
  mutable dispatcher_fn : int -> unit;
  (* Channels: the free count and a FIFO of the hctxs whose dispatcher
     waits for one, linked through [chan_next] (-1 terminates). *)
  mutable chan_free : int;
  mutable chan_head : int;
  mutable chan_tail : int;
  chan_next : int array;
  mutable free_cmds : cmd;
  mutable idle_servers : server;
  (* Shared-bandwidth stage: one arbiter draining per-hctx transfer
     FIFOs round-robin, as NVMe controllers arbitrate across
     submission queues — a loaded queue cannot starve the others. *)
  t_head : server array;
  t_tail : server array;
  mutable t_count : int;  (* servers in the transfer FIFOs *)
  mutable arbiter_parked : bool;
  mutable arbiter_cur : server;  (* the transfer under way *)
  mutable arbiter_fn : int -> unit;
  arbiter_delay : float array;
  mutable cursor : int;
  (* Offline rejections due for delivery, oldest first. *)
  mutable rej_head : cmd;
  mutable rej_tail : cmd;
  mutable reject_fn : int -> unit;
  blocking : waiter_pool;  (* waiters of the blocking submissions *)
  mutable last_lba : int;  (* head position, for seek modelling *)
  mutable outstanding : int;
  mutable completed_reads : int;
  mutable completed_writes : int;
  mutable completed_errors : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  service : Lab_obs.Hist.t;
  service_ns : float array;  (* [0] stages a sample for [service] *)
  mutable faults : Fault.t option;
  mutable health_watchers : (health_event -> unit) list;
}

let name t = t.name

let profile t = t.profile

let engine t = t.engine

let n_hw_queues t = Array.length t.q_head

let outstanding t = t.outstanding

let completed_reads t = t.completed_reads

let completed_writes t = t.completed_writes

let completed_errors t = t.completed_errors

let fault_plan t = t.faults

let add_health_watcher t f = t.health_watchers <- f :: t.health_watchers

let notify_health t ev = List.iter (fun f -> f ev) (List.rev t.health_watchers)

let bytes_read t = t.bytes_read

let bytes_written t = t.bytes_written

let service_stats t = t.service

let reset_stats t =
  t.completed_reads <- 0;
  t.completed_writes <- 0;
  t.completed_errors <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  Lab_obs.Hist.clear t.service

let latency_of t kind =
  match kind with
  | Read -> t.profile.Profile.read_latency_ns
  | Write -> t.profile.Profile.write_latency_ns

(* A command is sequential if it starts where the previous one ended;
   a seek adds to the delay in [cells.(0)]. *)
let add_seek t cells lba bytes =
  if t.profile.Profile.avg_seek_ns > 0.0 then begin
    let block = t.profile.Profile.block_size in
    let here = t.last_lba in
    t.last_lba <- lba + ((bytes + block - 1) / block);
    if lba <> here then cells.(0) <- cells.(0) +. t.profile.Profile.avg_seek_ns
  end

(* ---------------- waiters ---------------- *)

(* Aggregating chunk errors: the whole operation reports the most
   severe outcome (offline > media error > torn), and a torn verdict
   carries the total bytes actually persisted across chunks — never
   more than were requested. *)
let error_rank = function E_offline -> 2 | E_io -> 1 | E_torn _ -> 0

let wake w = Engine.unpark w.w_cell

let make_waiter () =
  {
    w_cell = Engine.make_park_cell ();
    w_pending = 0;
    w_persisted = 0;
    w_worst = -1;
    w_times = [| 0.0; 0.0 |];
    w_notify = wake;
    w_bytes = 0;
    w_hctx = 0;
  }

let set_notify w f = w.w_notify <- f

let await w = if w.w_pending > 0 then Engine.park w.w_cell

let waiter_error w =
  match w.w_worst with
  | -1 -> None
  | 0 -> Some (E_torn w.w_persisted)
  | 1 -> Some E_io
  | _ -> Some E_offline

let waiter_hctx w = w.w_hctx

let waiter_bytes w = w.w_bytes

let waiter_submitted w = w.w_times.(0)

let waiter_completed w = w.w_times.(1)

let waiter_pool () = { ws = [||]; nws = 0 }

let take_waiter p =
  if p.nws = 0 then make_waiter ()
  else begin
    p.nws <- p.nws - 1;
    let w = p.ws.(p.nws) in
    p.ws.(p.nws) <- nil_waiter;
    w
  end

let give_waiter p w =
  if w.w_pending > 0 then
    invalid_arg "Device.give_waiter: the waiter's command is still pending";
  if p.nws = Array.length p.ws then begin
    let ws = Array.make (Stdlib.max 4 (2 * p.nws)) nil_waiter in
    Array.blit p.ws 0 ws 0 p.nws;
    p.ws <- ws
  end;
  p.ws.(p.nws) <- w;
  p.nws <- p.nws + 1

(* One chunk's outcome ([None] = success) merges into its waiter; the
   last chunk stamps the completion time and notifies. *)
let chunk_done t w len err =
  (match err with
  | None -> w.w_persisted <- w.w_persisted + len
  | Some e ->
      (match e with E_torn n -> w.w_persisted <- w.w_persisted + n | _ -> ());
      let r = error_rank e in
      if r > w.w_worst then w.w_worst <- r);
  w.w_pending <- w.w_pending - 1;
  if w.w_pending = 0 then begin
    Engine.stamp t.engine w.w_times 1;
    w.w_notify w
  end

(* ---------------- commands ---------------- *)

let alloc_cmd t =
  let c = t.free_cmds in
  if c == nil_cmd then
    {
      kind = Read;
      lba = 0;
      bytes = 0;
      fault = Fault.Pass;
      owner = nil_waiter;
      submitted = [| 0.0 |];
      next = nil_cmd;
      live = true;
    }
  else begin
    t.free_cmds <- c.next;
    c.next <- nil_cmd;
    c.live <- true;
    c
  end

(* Order matters for the schedule: service sample, counters,
   [outstanding], then the waiter's merge and notify. *)
let finish t c err =
  if not c.live then invalid_arg "Device.finish: command finished twice";
  c.live <- false;
  let svc = t.service_ns in
  Engine.stamp t.engine svc 0;
  svc.(0) <- svc.(0) -. c.submitted.(0);
  Lab_obs.Hist.observe_cell t.service svc 0;
  (match err with
  | None -> (
      match c.kind with
      | Read ->
          t.completed_reads <- t.completed_reads + 1;
          t.bytes_read <- t.bytes_read + c.bytes
      | Write ->
          t.completed_writes <- t.completed_writes + 1;
          t.bytes_written <- t.bytes_written + c.bytes)
  | Some (E_torn n) ->
      (* A torn write persisted a prefix: account only those bytes. *)
      t.completed_errors <- t.completed_errors + 1;
      if c.kind = Write then t.bytes_written <- t.bytes_written + n
  | Some _ -> t.completed_errors <- t.completed_errors + 1);
  t.outstanding <- t.outstanding - 1;
  let w = c.owner and len = c.bytes in
  c.owner <- nil_waiter;
  c.fault <- Fault.Pass;
  c.next <- t.free_cmds;
  t.free_cmds <- c;
  chunk_done t w len err

(* ---------------- dispatch ---------------- *)

(* Dispatcher states. [d_running]: its timer is queued (its start, or
   a handoff while it was parked) or running; [d_granted]: a channel
   was handed to it and its timer is queued; [d_parked]: waiting for a
   command; [d_waiting]: holding a command in [handoff], queued for a
   channel. *)
let d_running = 0

let d_parked = 1

let d_waiting = 2

let d_granted = 3

(* Put a command on its hctx: straight to the dispatcher when it is
   parked waiting for one, else at the FIFO's tail. *)
let enqueue t q c =
  if t.d_state.(q) = d_parked then begin
    t.handoff.(q) <- c;
    t.d_state.(q) <- d_running;
    Engine.timer t.engine ~ns:0 t.dispatcher_fn q
  end
  else begin
    if t.q_head.(q) == nil_cmd then t.q_head.(q) <- c
    else t.q_tail.(q).next <- c;
    t.q_tail.(q) <- c
  end

(* The FIFO's head, or [nil_cmd] when it is empty. *)
let dequeue t q =
  let c = t.q_head.(q) in
  if c != nil_cmd then begin
    t.q_head.(q) <- c.next;
    if c.next == nil_cmd then t.q_tail.(q) <- nil_cmd;
    c.next <- nil_cmd
  end;
  c

let offline_now t qidx =
  match t.faults with
  | None -> false
  | Some plan -> Fault.offline plan ~now:(Engine.now t.engine) ~queue:qidx

(* A freed channel goes straight to the first dispatcher waiting for
   one, as a FIFO semaphore hands its unit over; it counts as free only
   when none waits. *)
let release_channel t =
  let q = t.chan_head in
  if q < 0 then t.chan_free <- t.chan_free + 1
  else begin
    t.chan_head <- t.chan_next.(q);
    if t.chan_head < 0 then t.chan_tail <- -1;
    t.chan_next.(q) <- -1;
    t.d_state.(q) <- d_granted;
    Engine.timer t.engine ~ns:0 t.dispatcher_fn q
  end

(* ---------------- service ---------------- *)

(* Finish the server's command and put the server on the idle list. *)
let complete t s err =
  finish t s.s_cmd err;
  s.s_cmd <- nil_cmd;
  s.s_state <- idle;
  s.s_next <- t.idle_servers;
  t.idle_servers <- s

(* Transfer stage: join this hctx's transfer FIFO and wake the arbiter
   when it is parked. *)
let start_transfer t s nbytes =
  let q = s.s_hctx in
  s.s_tbytes <- nbytes;
  s.s_state <- transferring;
  if t.t_head.(q) == nil_server then t.t_head.(q) <- s
  else t.t_tail.(q).s_next <- s;
  t.t_tail.(q) <- s;
  t.t_count <- t.t_count + 1;
  if t.arbiter_parked then begin
    t.arbiter_parked <- false;
    Engine.timer t.engine ~ns:0 t.arbiter_fn 0
  end

(* Start of service: the command holds a channel for its latency, plus
   a seek and a finite injected delay where they apply. *)
let begin_latency t s =
  let c = s.s_cmd in
  let delay = s.s_delay in
  delay.(0) <- latency_of t c.kind;
  (match c.fault with
  | Fault.Fail_io -> ()
  | Fault.Delay d when not (Float.is_finite d) -> ()
  | Fault.Delay d ->
      add_seek t delay c.lba c.bytes;
      delay.(0) <- delay.(0) +. d
  | Fault.Torn _ | Fault.Pass | Fault.Reject_offline ->
      (* Reject_offline is handled at submit time and never reaches
         the queues. *)
      add_seek t delay c.lba c.bytes);
  s.s_state <- latency;
  Engine.timer_cell t.engine delay 0 s.s_fn 0

let end_latency t s =
  let c = s.s_cmd in
  release_channel t;
  match c.fault with
  | Fault.Fail_io ->
      (* Media error: the command occupied a channel for its nominal
         latency, transfers nothing, completes with an error. *)
      complete t s (Some E_io)
  | Fault.Delay d when not (Float.is_finite d) ->
      (* Lost command: it never completes. The channel is released so
         the rest of the device keeps serving; [outstanding] stays
         elevated on purpose — recovering is the client deadline's
         job. *)
      s.s_state <- lost
  | Fault.Torn n ->
      if n > 0 then start_transfer t s n else complete t s (Some (E_torn n))
  | Fault.Pass | Fault.Delay _ | Fault.Reject_offline ->
      if offline_now t s.s_hctx then begin
        (* The device went offline while this command was in service:
           it completes with an error instead of data (the in-flight
           half of device-loss semantics; queued commands are aborted
           by [abort_queued]). *)
        complete t s (Some E_offline)
      end
      else start_transfer t s c.bytes

let end_transfer t s =
  complete t s
    (match s.s_cmd.fault with Fault.Torn n -> Some (E_torn n) | _ -> None)

(* A server's timer runs the step its state names. *)
let server_event t s =
  let st = s.s_state in
  if st = starting then begin_latency t s
  else if st = latency then end_latency t s
  else if st = transferred then end_transfer t s
  else invalid_arg "Device: server event while it waits"

(* Hand the command to an idle server, or make a new one, and queue
   its start at the (now, next seq) key. *)
let start_service t q c =
  let s = t.idle_servers in
  let s =
    if s == nil_server then begin
      let s =
        {
          s_cmd = c;
          s_hctx = q;
          s_tbytes = 0;
          s_next = nil_server;
          s_state = starting;
          s_delay = [| 0.0 |];
          s_fn = ignore;
        }
      in
      s.s_fn <- (fun _ -> server_event t s);
      s
    end
    else begin
      if s.s_state <> idle then
        invalid_arg "Device: idle list holds a busy server";
      t.idle_servers <- s.s_next;
      s.s_next <- nil_server;
      s.s_cmd <- c;
      s.s_hctx <- q;
      s.s_state <- starting;
      s
    end
  in
  Engine.timer t.engine ~ns:0 s.s_fn 0

(* The bandwidth arbiter: round-robin over the per-hctx transfer
   FIFOs, except that small commands form an urgent class (NVMe
   weighted-round-robin arbitration) and are served ahead of bulk
   transfers; parks when everything is drained. *)
let urgent_bytes = 16384

let take_transfer t q =
  let s = t.t_head.(q) in
  t.t_head.(q) <- s.s_next;
  if s.s_next == nil_server then t.t_tail.(q) <- nil_server;
  s.s_next <- nil_server;
  t.t_count <- t.t_count - 1;
  s

(* The first urgent head at or after the cursor; the cursor moves past
   the queue served to keep the scan fair. *)
let rec take_urgent t i =
  let n = Array.length t.t_head in
  if i = n then nil_server
  else begin
    let q = (t.cursor + i) mod n in
    let s = t.t_head.(q) in
    if s != nil_server && s.s_tbytes <= urgent_bytes then begin
      t.cursor <- (q + 1) mod n;
      take_transfer t q
    end
    else take_urgent t (i + 1)
  end

let rec round_robin t tries =
  let n = Array.length t.t_head in
  if tries = n then nil_server
  else begin
    let q = t.cursor in
    t.cursor <- (q + 1) mod n;
    if t.t_head.(q) != nil_server then take_transfer t q
    else round_robin t (tries + 1)
  end

(* The arbiter's timer: the end of the transfer under way, whose
   server resumes at the next key, if there is one (none at its start
   or after a wake); then the next transfer, or park. *)
let arbiter_event t =
  let s = t.arbiter_cur in
  if s != nil_server then begin
    t.arbiter_cur <- nil_server;
    if s.s_state <> transferring then
      invalid_arg "Device: server resumed while not parked for it";
    s.s_state <- transferred;
    Engine.timer t.engine ~ns:0 s.s_fn 0
  end;
  (* With every FIFO empty both scans would find nothing and leave the
     cursor where it is; with one queued, round-robin finds it. *)
  if t.t_count = 0 then t.arbiter_parked <- true
  else begin
    let s = take_urgent t 0 in
    let s = if s != nil_server then s else round_robin t 0 in
    t.arbiter_cur <- s;
    t.arbiter_delay.(0) <-
      Stdlib.float_of_int s.s_tbytes /. t.profile.Profile.bandwidth_bytes_per_ns;
    Engine.timer_cell t.engine t.arbiter_delay 0 t.arbiter_fn 0
  end

(* One dispatcher per hardware queue: enforces FIFO service *start*
   within the queue while the channel count caps global parallelism.
   [drain] serves the FIFO while channels are free; a dispatcher with
   no channel queues for one holding its command. *)
let rec drain t q =
  let c = dequeue t q in
  if c == nil_cmd then t.d_state.(q) <- d_parked else acquire t q c

and acquire t q c =
  if t.chan_free > 0 then begin
    t.chan_free <- t.chan_free - 1;
    start_service t q c;
    drain t q
  end
  else begin
    t.handoff.(q) <- c;
    t.d_state.(q) <- d_waiting;
    if t.chan_tail < 0 then t.chan_head <- q else t.chan_next.(t.chan_tail) <- q;
    t.chan_tail <- q
  end

(* The dispatcher's timer: its start, a command handed over while it
   was parked, or a channel handed over for the command it holds. *)
let dispatcher_event t q =
  let c = t.handoff.(q) in
  t.handoff.(q) <- nil_cmd;
  let granted = t.d_state.(q) = d_granted in
  t.d_state.(q) <- d_running;
  if granted then begin
    start_service t q c;
    drain t q
  end
  else if c != nil_cmd then acquire t q c
  else drain t q

(* An offline rejection, delivered at the key its submit queued. *)
let reject_event t =
  let c = t.rej_head in
  t.rej_head <- c.next;
  if c.next == nil_cmd then t.rej_tail <- nil_cmd;
  let w = c.owner and len = c.bytes in
  c.owner <- nil_waiter;
  c.next <- t.free_cmds;
  t.free_cmds <- c;
  chunk_done t w len (Some E_offline)

(* Take [q], whose dispatcher waits for a channel, out of the channel
   FIFO. *)
let unlink_channel t q =
  let rec go prev cur =
    if cur <> q then go cur t.chan_next.(cur)
    else begin
      if prev < 0 then t.chan_head <- t.chan_next.(q)
      else t.chan_next.(prev) <- t.chan_next.(q);
      if t.chan_tail = q then t.chan_tail <- prev;
      t.chan_next.(q) <- -1
    end
  in
  go (-1) t.chan_head

(* Device loss must not leave queued commands waiting on a dead
   controller: at an offline window's start every not-yet-dispatched
   command on a covered queue completes with [E_offline], oldest
   first: the one its dispatcher holds while it waits for a channel,
   then the FIFO. That dispatcher leaves the channel FIFO and parks.
   Commands already in service error out when their latency elapses
   (see [end_latency]). *)
let abort_queued t ~queue =
  let rec drain q =
    let c = dequeue t q in
    if c != nil_cmd then begin
      finish t c (Some E_offline);
      drain q
    end
  in
  let abort q =
    if t.d_state.(q) = d_waiting then begin
      unlink_channel t q;
      let c = t.handoff.(q) in
      t.handoff.(q) <- nil_cmd;
      finish t c (Some E_offline);
      drain q;
      t.d_state.(q) <- d_parked
    end
    else drain q
  in
  match queue with
  | Some q -> abort (q mod n_hw_queues t)
  | None ->
      for q = 0 to n_hw_queues t - 1 do
        abort q
      done

let set_fault_plan t plan =
  t.faults <- Some plan;
  (* Schedule the plan's scripted offline windows as device events:
     queued-command abort at each window start, plus health-watcher
     notifications at whole-device loss and return — the hook layered
     services (the volume manager) use to degrade and rebuild. *)
  let now = Engine.now t.engine in
  List.iter
    (fun (from_ns, until_ns, queue) ->
      Engine.spawn_at t.engine (Float.max now from_ns) (fun () ->
          abort_queued t ~queue;
          if queue = None then notify_health t (Went_offline { until_ns }));
      if queue = None && Float.is_finite until_ns then
        Engine.spawn_at t.engine (Float.max now until_ns) (fun () ->
            notify_health t Came_online))
    (Fault.offline_windows plan)

let create ?(name = "dev") engine profile =
  let open Profile in
  let n = profile.n_hw_queues in
  let t =
    {
      name;
      engine;
      profile;
      q_head = Array.make n nil_cmd;
      q_tail = Array.make n nil_cmd;
      handoff = Array.make n nil_cmd;
      d_state = Array.make n d_running;
      dispatcher_fn = ignore;
      chan_free = profile.n_channels;
      chan_head = -1;
      chan_tail = -1;
      chan_next = Array.make n (-1);
      free_cmds = nil_cmd;
      idle_servers = nil_server;
      t_head = Array.make n nil_server;
      t_tail = Array.make n nil_server;
      t_count = 0;
      arbiter_parked = false;
      arbiter_cur = nil_server;
      arbiter_fn = ignore;
      arbiter_delay = [| 0.0 |];
      cursor = 0;
      rej_head = nil_cmd;
      rej_tail = nil_cmd;
      reject_fn = ignore;
      blocking = waiter_pool ();
      last_lba = 0;
      outstanding = 0;
      completed_reads = 0;
      completed_writes = 0;
      completed_errors = 0;
      bytes_read = 0;
      bytes_written = 0;
      service = Lab_obs.Hist.create ();
      service_ns = [| 0.0 |];
      faults = None;
      health_watchers = [];
    }
  in
  t.dispatcher_fn <- dispatcher_event t;
  t.arbiter_fn <- (fun _ -> arbiter_event t);
  t.reject_fn <- (fun _ -> reject_event t);
  (* The dispatchers' and the arbiter's starts, at the keys their
     process spawns took. *)
  for i = 0 to n - 1 do
    Engine.timer engine ~ns:0 t.dispatcher_fn i
  done;
  Engine.timer engine ~ns:0 t.arbiter_fn 0;
  t

(* ---------------- submission ---------------- *)

(* Maximum data per command (MDTS): larger operations are split into a
   train of commands so one huge transfer cannot monopolize the
   bandwidth arbiter — the mechanism that keeps latency-sensitive
   queues usable next to bulk streams. *)
let max_transfer_bytes = 256 * 1024

let submit_waiter t w ~hctx ~kind ~lba ~bytes =
  if bytes <= 0 then invalid_arg "Device.submit: bytes must be positive";
  if w.w_pending > 0 then
    invalid_arg "Device.submit_waiter: the waiter's command is still pending";
  let hctx = hctx mod n_hw_queues t in
  let block = t.profile.Profile.block_size in
  let nchunks = (bytes + max_transfer_bytes - 1) / max_transfer_bytes in
  w.w_pending <- nchunks;
  w.w_persisted <- 0;
  w.w_worst <- -1;
  w.w_bytes <- bytes;
  w.w_hctx <- hctx;
  Engine.stamp t.engine w.w_times 0;
  for i = 0 to nchunks - 1 do
    let off = i * max_transfer_bytes in
    let len = Stdlib.min max_transfer_bytes (bytes - off) in
    let fault =
      match t.faults with
      | None -> Fault.Pass
      | Some plan ->
          Fault.decide plan ~now:(Engine.now t.engine) ~queue:hctx
            ~is_write:(match kind with Write -> true | Read -> false)
            ~bytes:len
    in
    match fault with
    | Fault.Reject_offline ->
        (* The queue is offline: fail fast without entering the device —
           no channel, no outstanding slot. Deliver from a timer at the
           (now, next seq) key so the submit path stays non-blocking. *)
        let c = alloc_cmd t in
        c.live <- false;
        c.owner <- w;
        c.bytes <- len;
        if t.rej_head == nil_cmd then t.rej_head <- c else t.rej_tail.next <- c;
        t.rej_tail <- c;
        Engine.timer t.engine ~ns:0 t.reject_fn 0
    | _ ->
        t.outstanding <- t.outstanding + 1;
        let c = alloc_cmd t in
        c.kind <- kind;
        c.lba <- lba + (off / block);
        c.bytes <- len;
        c.fault <- fault;
        c.owner <- w;
        c.submitted.(0) <- w.w_times.(0);
        enqueue t hctx c
  done

let submit_wait t ~hctx ~kind ~lba ~bytes =
  let w = take_waiter t.blocking in
  submit_waiter t w ~hctx ~kind ~lba ~bytes;
  await w;
  give_waiter t.blocking w
