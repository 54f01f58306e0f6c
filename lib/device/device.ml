open Lab_sim

type io_kind = Read | Write

type completion = {
  c_kind : io_kind;
  c_lba : int;
  c_bytes : int;
  c_submitted : float;
  c_completed : float;
}

type error = E_io | E_offline | E_timeout | E_torn of int

(* Offline maps to ENODEV — "no such device" — so upper layers can
   tell a fail-over condition (the device is gone, requeue or switch
   mirror legs) from a retryable media error (EIO). *)
let error_to_string = function
  | E_io -> "EIO"
  | E_offline -> "ENODEV"
  | E_timeout -> "ETIMEDOUT"
  | E_torn n -> Printf.sprintf "ETORN(%d persisted)" n

type health_event = Went_offline of { until_ns : float } | Came_online

type request = {
  kind : io_kind;
  lba : int;
  bytes : int;
  submitted : float;
  fault : Fault.decision;  (* drawn from the fault plan at submit time *)
  on_complete : (completion, error) result -> unit;
}

type transfer_item = { treq : request; tbytes : int; resume : unit -> unit }

type t = {
  name : string;
  engine : Engine.t;
  profile : Profile.t;
  queues : request Mailbox.t array;
  channels : Semaphore.t;
  (* Shared-bandwidth stage: one server draining per-hctx transfer
     queues round-robin, as NVMe controllers arbitrate across
     submission queues — a loaded queue cannot starve the others. *)
  transfer_queues : transfer_item Queue.t array;
  transfer_bell : unit Waitq.t;
  mutable last_lba : int;  (* head position, for seek modelling *)
  mutable outstanding : int;
  flush_waiters : unit Waitq.t;
  mutable completed_reads : int;
  mutable completed_writes : int;
  mutable completed_errors : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  service : Stats.t;
  mutable faults : Fault.t option;
  mutable health_watchers : (health_event -> unit) list;
}

let name t = t.name

let profile t = t.profile

let engine t = t.engine

let n_hw_queues t = Array.length t.queues

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
  Stats.clear t.service

let latency_of t kind =
  match kind with
  | Read -> t.profile.Profile.read_latency_ns
  | Write -> t.profile.Profile.write_latency_ns

(* A command is sequential if it starts where the previous one ended. *)
let seek_cost t lba bytes =
  if t.profile.Profile.avg_seek_ns <= 0.0 then 0.0
  else begin
    let block = t.profile.Profile.block_size in
    let here = t.last_lba in
    let next = lba + ((bytes + block - 1) / block) in
    t.last_lba <- next;
    if lba = here then 0.0 else t.profile.Profile.avg_seek_ns
  end

let finish t req result =
  Stats.add t.service (Engine.now t.engine -. req.submitted);
  (match result with
  | Ok _ -> (
      match req.kind with
      | Read ->
          t.completed_reads <- t.completed_reads + 1;
          t.bytes_read <- t.bytes_read + req.bytes
      | Write ->
          t.completed_writes <- t.completed_writes + 1;
          t.bytes_written <- t.bytes_written + req.bytes)
  | Error (E_torn n) ->
      (* A torn write persisted a prefix: account only those bytes. *)
      t.completed_errors <- t.completed_errors + 1;
      if req.kind = Write then t.bytes_written <- t.bytes_written + n
  | Error _ -> t.completed_errors <- t.completed_errors + 1);
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then ignore (Waitq.wake_all t.flush_waiters ());
  req.on_complete result

let completion_of t req =
  {
    c_kind = req.kind;
    c_lba = req.lba;
    c_bytes = req.bytes;
    c_submitted = req.submitted;
    c_completed = Engine.now t.engine;
  }

let offline_now t qidx =
  match t.faults with
  | None -> false
  | Some plan -> Fault.offline plan ~now:(Engine.now t.engine) ~queue:qidx

let service t qidx req () =
  let transfer nbytes =
    (* Transfer stage: enqueue on this hctx's transfer queue and wait
       for the round-robin arbiter to move the payload. *)
    if nbytes > 0 then
      Engine.suspend (fun resume ->
          Queue.add { treq = req; tbytes = nbytes; resume } t.transfer_queues.(qidx);
          ignore (Waitq.wake t.transfer_bell ()))
  in
  match req.fault with
  | Fault.Fail_io ->
      (* Media error: the command occupies a channel for its nominal
         latency, transfers nothing, completes with an error. *)
      Engine.wait (latency_of t req.kind);
      Semaphore.release t.channels;
      finish t req (Error E_io)
  | Fault.Delay d when not (Float.is_finite d) ->
      (* Lost command: it never completes. Release the channel so the
         rest of the device keeps serving; [outstanding] stays elevated
         on purpose — recovering is the client deadline's job. *)
      Engine.wait (latency_of t req.kind);
      Semaphore.release t.channels;
      Engine.suspend (fun _ -> ())
  | Fault.Torn n ->
      Engine.wait (latency_of t req.kind +. seek_cost t req.lba req.bytes);
      Semaphore.release t.channels;
      transfer n;
      finish t req (Error (E_torn n))
  | Fault.Pass | Fault.Delay _ | Fault.Reject_offline ->
      (* Reject_offline is handled at submit time and never reaches the
         queues; a finite Delay serves normally after the extra wait. *)
      let extra = match req.fault with Fault.Delay d -> d | _ -> 0.0 in
      Engine.wait (latency_of t req.kind +. seek_cost t req.lba req.bytes +. extra);
      Semaphore.release t.channels;
      if offline_now t qidx then
        (* The device went offline while this command was in service:
           it completes with an error instead of data (the in-flight
           half of device-loss semantics; queued commands are aborted
           by [abort_queued]). *)
        finish t req (Error E_offline)
      else begin
        transfer req.bytes;
        finish t req (Ok (completion_of t req))
      end

(* The bandwidth arbiter: round-robin over the per-hctx transfer
   queues, except that small commands form an urgent class (NVMe
   weighted-round-robin arbitration) and are served ahead of bulk
   transfers; parks when everything is drained. *)
let urgent_bytes = 16384

let transfer_arbiter t () =
  let n = Array.length t.transfer_queues in
  let cursor = ref 0 in
  let take_urgent () =
    let found = ref None in
    for i = 0 to n - 1 do
      if !found = None then begin
        let idx = (!cursor + i) mod n in
        let q = t.transfer_queues.(idx) in
        match Queue.peek_opt q with
        | Some item when item.tbytes <= urgent_bytes ->
            found := Queue.take_opt q;
            (* Keep the scan fair: continue after the queue served. *)
            cursor := (idx + 1) mod n
        | _ -> ()
      end
    done;
    !found
  in
  let rec round_robin tries =
    if tries = n then None
    else begin
      let q = t.transfer_queues.(!cursor) in
      cursor := (!cursor + 1) mod n;
      match Queue.take_opt q with
      | Some item -> Some item
      | None -> round_robin (tries + 1)
    end
  in
  let next_item _ =
    match take_urgent () with Some i -> Some i | None -> round_robin 0
  in
  while true do
    match next_item 0 with
    | Some item ->
        Engine.wait
          (Stdlib.float_of_int item.tbytes /. t.profile.Profile.bandwidth_bytes_per_ns);
        item.resume ()
    | None ->
        let slot = ref None in
        Waitq.park t.transfer_bell slot
  done

(* One dispatcher per hardware queue: enforces FIFO service *start*
   within the queue while the channel semaphore caps global
   parallelism. *)
let dispatcher t qidx () =
  let q = t.queues.(qidx) in
  while true do
    let req = Mailbox.get q in
    Semaphore.acquire t.channels;
    Engine.spawn t.engine (service t qidx req)
  done

(* Device loss must not leave queued commands waiting on a dead
   controller: at an offline window's start every not-yet-dispatched
   command on a covered queue completes with [E_offline] (commands
   already in service error out when their latency elapses, see
   [service]). *)
let abort_queued t ~queue =
  let drain qidx =
    let rec go () =
      match Mailbox.try_get t.queues.(qidx) with
      | None -> ()
      | Some req ->
          finish t req (Error E_offline);
          go ()
    in
    go ()
  in
  match queue with
  | Some q -> drain (q mod Array.length t.queues)
  | None -> Array.iteri (fun i _ -> drain i) t.queues

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
  let t =
    {
      name;
      engine;
      profile;
      queues = Array.init profile.n_hw_queues (fun _ -> Mailbox.create ());
      channels = Semaphore.create profile.n_channels;
      transfer_queues = Array.init profile.n_hw_queues (fun _ -> Queue.create ());
      transfer_bell = Waitq.create ();
      last_lba = 0;
      outstanding = 0;
      flush_waiters = Waitq.create ();
      completed_reads = 0;
      completed_writes = 0;
      completed_errors = 0;
      bytes_read = 0;
      bytes_written = 0;
      service = Stats.create ();
      faults = None;
      health_watchers = [];
    }
  in
  for i = 0 to profile.n_hw_queues - 1 do
    Engine.spawn engine (dispatcher t i)
  done;
  Engine.spawn engine (transfer_arbiter t);
  t

(* Maximum data per command (MDTS): larger operations are split into a
   train of commands so one huge transfer cannot monopolize the
   bandwidth arbiter — the mechanism that keeps latency-sensitive
   queues usable next to bulk streams. *)
let max_transfer_bytes = 256 * 1024

(* Aggregating chunk errors: the whole operation reports the most
   severe outcome (offline > media error > timeout > torn), and a torn
   verdict carries the total bytes actually persisted across chunks —
   never more than were requested. *)
let error_rank = function
  | E_offline -> 3
  | E_io -> 2
  | E_timeout -> 1
  | E_torn _ -> 0

let submit_result t ~hctx ~kind ~lba ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Device.submit: bytes must be positive";
  let hctx = hctx mod Array.length t.queues in
  let block = t.profile.Profile.block_size in
  let nchunks = (bytes + max_transfer_bytes - 1) / max_transfer_bytes in
  let remaining = ref nchunks in
  let worst = ref None in
  let persisted = ref 0 in
  let last_completion = ref None in
  let note e =
    match !worst with
    | Some w when error_rank w >= error_rank e -> ()
    | _ -> worst := Some e
  in
  let chunk_done len result =
    (match result with
    | Ok c ->
        last_completion := Some c;
        persisted := !persisted + len
    | Error (E_torn n) ->
        persisted := !persisted + n;
        note (E_torn n)
    | Error e -> note e);
    decr remaining;
    if !remaining = 0 then
      match !worst with
      | None ->
          let c =
            match !last_completion with Some c -> c | None -> assert false
          in
          on_complete (Ok { c with c_bytes = bytes; c_lba = lba })
      | Some (E_torn _) -> on_complete (Error (E_torn !persisted))
      | Some e -> on_complete (Error e)
  in
  for i = 0 to nchunks - 1 do
    let off = i * max_transfer_bytes in
    let len = Stdlib.min max_transfer_bytes (bytes - off) in
    let now = Engine.now t.engine in
    let fault =
      match t.faults with
      | None -> Fault.Pass
      | Some plan ->
          Fault.decide plan ~now ~queue:hctx
            ~is_write:(match kind with Write -> true | Read -> false)
            ~bytes:len
    in
    match fault with
    | Fault.Reject_offline ->
        (* The queue is offline: fail fast without entering the device —
           no channel, no outstanding slot. Deliver asynchronously so
           the submit path stays non-blocking. *)
        Engine.spawn t.engine (fun () -> chunk_done len (Error E_offline))
    | _ ->
        t.outstanding <- t.outstanding + 1;
        let req =
          {
            kind;
            lba = lba + (off / block);
            bytes = len;
            submitted = now;
            fault;
            on_complete = chunk_done len;
          }
        in
        Mailbox.put t.queues.(hctx) req
  done

let submit_wait_result t ~hctx ~kind ~lba ~bytes =
  let result = ref None in
  Engine.suspend (fun resume ->
      submit_result t ~hctx ~kind ~lba ~bytes ~on_complete:(fun r ->
          result := Some r;
          resume ()));
  match !result with Some r -> r | None -> assert false

(* Fault-masking path for callers without an error path (the kernel
   baselines): a fabricated completion on error lets them make
   progress; the error remains visible in [completed_errors]. *)
let submit t ~hctx ~kind ~lba ~bytes ~on_complete =
  let submitted = Engine.now t.engine in
  submit_result t ~hctx ~kind ~lba ~bytes ~on_complete:(function
    | Ok c -> on_complete c
    | Error _ ->
        on_complete
          {
            c_kind = kind;
            c_lba = lba;
            c_bytes = bytes;
            c_submitted = submitted;
            c_completed = Engine.now t.engine;
          })

let submit_wait t ~hctx ~kind ~lba ~bytes =
  let result = ref None in
  Engine.suspend (fun resume ->
      submit t ~hctx ~kind ~lba ~bytes ~on_complete:(fun c ->
          result := Some c;
          resume ()));
  match !result with Some c -> c | None -> assert false

let flush t =
  if t.outstanding > 0 then begin
    let slot = ref None in
    Waitq.park t.flush_waiters slot
  end
