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

(* A long-lived service process. It serves one command at a time and
   parks between commands on the device's idle list, or during its
   transfer on its hctx's transfer FIFO. *)
type server = {
  s_cell : Engine.park_cell;
  mutable s_cmd : cmd;
  mutable s_hctx : int;
  mutable s_tbytes : int;  (* payload waiting for the arbiter *)
  mutable s_next : server;  (* idle list / transfer FIFO link *)
  mutable s_state : int;
  s_delay : float array;
}

(* Server states. A lost command's server stays parked for good. *)
let busy = 0

let idle = 1

let transferring = 2

let lost = 3

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
  let s_cell = Engine.make_park_cell () and s_delay = [| 0.0 |] in
  let rec s =
    {
      s_cell;
      s_cmd = nil_cmd;
      s_hctx = 0;
      s_tbytes = 0;
      s_next = s;
      s_state = busy;
      s_delay;
    }
  in
  s

type waiter_pool = { mutable ws : waiter array; mutable nws : int }

type t = {
  name : string;
  engine : Engine.t;
  profile : Profile.t;
  (* Dispatch: per-hctx command FIFOs, and a park cell per dispatcher.
     A command put while its dispatcher is parked is handed over
     directly in [handoff] instead of entering the FIFO. *)
  q_head : cmd array;
  q_tail : cmd array;
  handoff : cmd array;
  dispatchers : Engine.park_cell array;
  channels : Semaphore.t;
  mutable free_cmds : cmd;
  mutable idle_servers : server;
  (* Shared-bandwidth stage: one arbiter draining per-hctx transfer
     FIFOs round-robin, as NVMe controllers arbitrate across
     submission queues — a loaded queue cannot starve the others. *)
  t_head : server array;
  t_tail : server array;
  arbiter : Engine.park_cell;
  arbiter_delay : float array;
  mutable cursor : int;
  blocking : waiter_pool;  (* waiters of the blocking submissions *)
  mutable last_lba : int;  (* head position, for seek modelling *)
  mutable outstanding : int;
  flush_waiters : Waitq.t;
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
   [outstanding], flush waiters, then the waiter's merge and notify. *)
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
  if t.outstanding = 0 then ignore (Waitq.wake_all t.flush_waiters);
  let w = c.owner and len = c.bytes in
  c.owner <- nil_waiter;
  c.fault <- Fault.Pass;
  c.next <- t.free_cmds;
  t.free_cmds <- c;
  chunk_done t w len err

(* Put a command on its hctx: straight to the dispatcher when it is
   parked waiting for one, else at the FIFO's tail. *)
let enqueue t q c =
  let d = t.dispatchers.(q) in
  if Engine.parked d then begin
    t.handoff.(q) <- c;
    Engine.unpark d
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

(* ---------------- service ---------------- *)

let resume_server s ~from =
  if s.s_state <> from then
    invalid_arg "Device: server resumed while not parked for it";
  s.s_state <- busy;
  Engine.unpark s.s_cell

(* Transfer stage: join this hctx's transfer FIFO, wake the arbiter and
   park until it has moved the payload. *)
let transfer t s nbytes =
  if nbytes > 0 then begin
    let q = s.s_hctx in
    s.s_tbytes <- nbytes;
    s.s_state <- transferring;
    if t.t_head.(q) == nil_server then t.t_head.(q) <- s
    else t.t_tail.(q).s_next <- s;
    t.t_tail.(q) <- s;
    Engine.unpark t.arbiter;
    Engine.park s.s_cell
  end

let serve t s =
  let c = s.s_cmd in
  let delay = s.s_delay in
  delay.(0) <- latency_of t c.kind;
  match c.fault with
  | Fault.Fail_io ->
      (* Media error: the command occupies a channel for its nominal
         latency, transfers nothing, completes with an error. *)
      Engine.wait_cell delay 0;
      Semaphore.release t.channels;
      finish t c (Some E_io)
  | Fault.Delay d when not (Float.is_finite d) ->
      (* Lost command: it never completes. Release the channel so the
         rest of the device keeps serving; [outstanding] stays elevated
         on purpose — recovering is the client deadline's job. *)
      Engine.wait_cell delay 0;
      Semaphore.release t.channels;
      s.s_state <- lost;
      Engine.park s.s_cell
  | Fault.Torn n ->
      add_seek t delay c.lba c.bytes;
      Engine.wait_cell delay 0;
      Semaphore.release t.channels;
      transfer t s n;
      finish t c (Some (E_torn n))
  | Fault.Pass | Fault.Delay _ | Fault.Reject_offline ->
      (* Reject_offline is handled at submit time and never reaches the
         queues; a finite Delay serves normally after the extra wait. *)
      add_seek t delay c.lba c.bytes;
      (match c.fault with
      | Fault.Delay d -> delay.(0) <- delay.(0) +. d
      | _ -> ());
      Engine.wait_cell delay 0;
      Semaphore.release t.channels;
      if offline_now t s.s_hctx then
        (* The device went offline while this command was in service:
           it completes with an error instead of data (the in-flight
           half of device-loss semantics; queued commands are aborted
           by [abort_queued]). *)
        finish t c (Some E_offline)
      else begin
        transfer t s c.bytes;
        finish t c None
      end

let server_loop t s () =
  while true do
    serve t s;
    s.s_cmd <- nil_cmd;
    s.s_state <- idle;
    s.s_next <- t.idle_servers;
    t.idle_servers <- s;
    Engine.park s.s_cell
  done

(* Hand the command to an idle server, or spawn a new one. Unparking
   takes the same (now, next seq) key the spawn would. *)
let start_service t q c =
  let s = t.idle_servers in
  if s == nil_server then begin
    let s =
      {
        s_cell = Engine.make_park_cell ();
        s_cmd = c;
        s_hctx = q;
        s_tbytes = 0;
        s_next = nil_server;
        s_state = busy;
        s_delay = [| 0.0 |];
      }
    in
    Engine.spawn t.engine (server_loop t s)
  end
  else begin
    t.idle_servers <- s.s_next;
    s.s_next <- nil_server;
    s.s_cmd <- c;
    s.s_hctx <- q;
    resume_server s ~from:idle
  end

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

let transfer_arbiter t () =
  while true do
    let s = take_urgent t 0 in
    let s = if s != nil_server then s else round_robin t 0 in
    if s == nil_server then Engine.park t.arbiter
    else begin
      t.arbiter_delay.(0) <-
        Stdlib.float_of_int s.s_tbytes
        /. t.profile.Profile.bandwidth_bytes_per_ns;
      Engine.wait_cell t.arbiter_delay 0;
      resume_server s ~from:transferring
    end
  done

(* One dispatcher per hardware queue: enforces FIFO service *start*
   within the queue while the channel semaphore caps global
   parallelism. *)
let dispatcher t q () =
  while true do
    let c = dequeue t q in
    let c =
      if c != nil_cmd then c
      else begin
        Engine.park t.dispatchers.(q);
        let c = t.handoff.(q) in
        t.handoff.(q) <- nil_cmd;
        c
      end
    in
    Semaphore.acquire t.channels;
    start_service t q c
  done

(* Device loss must not leave queued commands waiting on a dead
   controller: at an offline window's start every not-yet-dispatched
   command on a covered queue completes with [E_offline] (commands
   already in service error out when their latency elapses, see
   [serve]). *)
let abort_queued t ~queue =
  let rec drain q =
    let c = dequeue t q in
    if c != nil_cmd then begin
      finish t c (Some E_offline);
      drain q
    end
  in
  match queue with
  | Some q -> drain (q mod n_hw_queues t)
  | None ->
      for q = 0 to n_hw_queues t - 1 do
        drain q
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
      dispatchers = Array.init n (fun _ -> Engine.make_park_cell ());
      channels = Semaphore.create profile.n_channels;
      free_cmds = nil_cmd;
      idle_servers = nil_server;
      t_head = Array.make n nil_server;
      t_tail = Array.make n nil_server;
      arbiter = Engine.make_park_cell ();
      arbiter_delay = [| 0.0 |];
      cursor = 0;
      blocking = waiter_pool ();
      last_lba = 0;
      outstanding = 0;
      flush_waiters = Waitq.create ();
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
  for i = 0 to n - 1 do
    Engine.spawn engine (dispatcher t i)
  done;
  Engine.spawn engine (transfer_arbiter t);
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
           no channel, no outstanding slot. Deliver asynchronously so
           the submit path stays non-blocking. *)
        Engine.spawn t.engine (fun () -> chunk_done t w len (Some E_offline))
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

let flush t =
  if t.outstanding > 0 then Waitq.park t.flush_waiters
