open Lab_sim
open Lab_ipc
open Lab_core
module Metrics = Lab_obs.Metrics

exception Runtime_gone

(* Client-side fault policy: how hard to try before surfacing a
   transient device failure to the application. *)
type retry_policy = {
  max_retries : int;
  base_backoff_ns : float;
  backoff_multiplier : float;
  max_backoff_ns : float;
  jitter : float;
  deadline_ns : float;
}

let default_retry_policy =
  {
    max_retries = 3;
    base_backoff_ns = 50_000.0;
    backoff_multiplier = 2.0;
    max_backoff_ns = 5e6;
    jitter = 0.25;
    deadline_ns = infinity;
  }

type fault_counters = {
  fc_retries : Metrics.counter;
  fc_requeues : Metrics.counter;
  fc_deadline_misses : Metrics.counter;
  fc_exhausted : Metrics.counter;
}

type t = {
  runtime : Runtime.t;
  mutable conn : Ipc_manager.connection;
  c_pid : int;
  uid : int;
  c_thread : int;
  qp_of_stack : Request.t Qp.t Itbl.t;  (* stack id -> its queue pair *)
  fd_table : (string * int) Itbl.t;  (* fd -> (path, stack id) *)
  mutable next_fd : int;
  mutable epoch : int;
  recovery_timeout_ns : float;
  policy : retry_policy;
  rng : Rng.t;  (* backoff jitter; independent of every other stream *)
  counters : fault_counters;
  latency_hist : Metrics.histogram;  (* shared "client.latency_ns" *)
  (* Recycled request records: a closed-loop client reuses one record
     per outstanding slot instead of allocating a fresh one per op.
     Requests are released back only where their completion was
     definitely consumed by this client; abandoned attempts (deadline
     miss, crash, stale completion) are never released — the Runtime
     may still hold them, so they are left to the GC. *)
  pool : Request.Pool.t;
  (* QoS tenant this client's uid maps to, resolved once at connect
     time ([None] = unmetered). Every attempt passes token-bucket +
     queue-cap admission (refusals surface as EAGAIN, which the retry
     policy backs off on) and every request is stamped with the
     tenant's dense index for the scheduler's DRR stage. *)
  tenant : Tenant.tenant option;
  hooks : Hooks.t;  (* the runtime's: submit, post, finish, latency *)
  (* The pending set of the one submission in flight (a request or a
     batch; a client is one thread's connection). Slot i holds the id
     of entry i's outstanding attempt, or [closed] and then its result.
     [outbox] holds the requests built since the last post. The client
     owns these arrays, so a single request allocates none of them. *)
  mutable slot_id : int array;
  mutable slot_res : Request.result array;
  mutable slots : int;
  mutable left : int;  (* slots still open *)
  mutable outbox : Request.t array;  (* as long as [slot_id] *)
  mutable outbox_n : int;
  (* Float cells, so per-request times and charges cross no call boxed:
     0 the burst staged for [charge] · 1 the deadline of the reap
     in flight · 2 the request's latency origin · 3 its end · 4 its
     latency. *)
  fl : float array;
  (* Reap rounds ended so far: a deadline watchdog wakes the completion
     waiters only while the round that spawned it is still running. *)
  mutable rounds : int;
}

(* A slot's id once its attempt is over; request ids start at 1, so 0
   marks a slot whose first attempt is not built yet. *)
let closed = -1

let open_fd_count t = Itbl.length t.fd_table

let machine t = Runtime.machine t.runtime

let costs t = (machine t).Machine.costs

(* Charge the burst staged in [t.fl.(0)]; stage it right before the
   call, with nothing in between that waits. *)
let charge t = Machine.compute_cell (machine t) ~thread:t.c_thread t.fl 0

(* The GenericFS fd-table operation every fd call pays. *)
let charge_hash t =
  t.fl.(0) <- (costs t).Costs.hash_op_ns;
  charge t

(* A request that is never submitted, built once at module
   initialisation: what [Qp.completion_or] returns for an empty
   completion ring, and the filler of an empty outbox. *)
let no_completion =
  Request.make ~id:0 ~pid:0 ~uid:0 ~thread:0 ~stack_id:0 ~now:0.0
    (Request.Control 0)

let connect runtime ~pid ~uid ~thread ?(recovery_timeout_ns = 1e10)
    ?(retry_policy = default_retry_policy) () =
  let conn = Ipc_manager.connect (Runtime.ipc runtime) ~pid ~uid in
  (* Fault counters are per-client (the accessors below promise that),
     so they register under the pid rather than a shared name. *)
  let reg = Runtime.metrics runtime in
  let counter k = Metrics.counter ~reg (Printf.sprintf "client.pid%d.%s" pid k) in
  {
    runtime;
    conn;
    c_pid = pid;
    uid;
    c_thread = thread;
    qp_of_stack = Itbl.create 1;
    fd_table = Itbl.create 32;
    next_fd = 3;
    epoch = Module_manager.epoch (Runtime.module_manager runtime);
    recovery_timeout_ns;
    policy = retry_policy;
    rng = Rng.create (0x9E3779 lxor (pid * 65599) lxor (thread * 31));
    counters =
      {
        fc_retries = counter "retries";
        fc_requeues = counter "requeues";
        fc_deadline_misses = counter "deadline_misses";
        fc_exhausted = counter "exhausted_retries";
      };
    latency_hist = Metrics.histogram ~reg "client.latency_ns";
    pool = Request.Pool.create ();
    tenant = Runtime.tenant_for runtime ~uid;
    hooks = Runtime.hooks runtime;
    slot_id = [| closed |];
    slot_res = [| Request.Done |];
    slots = 0;
    left = 0;
    outbox = [| no_completion |];
    outbox_n = 0;
    fl = Array.make 5 0.0;
    rounds = 0;
  }

let retries t = Metrics.value t.counters.fc_retries

let requeues t = Metrics.value t.counters.fc_requeues

let deadline_misses t = Metrics.value t.counters.fc_deadline_misses

let exhausted_retries t = Metrics.value t.counters.fc_exhausted

(* Looked up on every request: an int-keyed table and an exception on
   a miss, so a hit allocates nothing. *)
let qp_for_stack t (stack : Stack.t) =
  match Itbl.find t.qp_of_stack stack.Stack.id with
  | qp -> qp
  | exception Not_found ->
      let qp =
        Ipc_manager.create_qp (Runtime.ipc t.runtime) t.conn ~role:Qp.Primary
          ~ordering:Qp.Ordered
      in
      Itbl.replace t.qp_of_stack stack.Stack.id qp;
      (* New primary queue: the Work Orchestrator runs a rebalance, as
         it does whenever a new client connects. *)
      Runtime.rebalance_now t.runtime;
      qp

(* Decentralized upgrades: applied at the next request boundary, paying
   the code-load cost in this client. *)
let apply_decentralized_upgrades t =
  let mm = Runtime.module_manager t.runtime in
  let current = Module_manager.epoch mm in
  if current > t.epoch then begin
    let pending = Module_manager.client_pending_upgrades mm ~since_epoch:t.epoch in
    t.epoch <- current;
    List.iter
      (fun (u : Module_manager.upgrade) ->
        List.iter
          (fun (old_mod : Labmod.t) ->
            let fresh =
              Module_manager.apply_client_upgrade mm ~thread:t.c_thread
                ~local:old_mod u
            in
            Registry.replace (Runtime.registry t.runtime) fresh)
          (Registry.instances_of_name (Runtime.registry t.runtime) u.Module_manager.target))
      pending
  end

let run_state_repair t =
  List.iter
    (fun stack ->
      List.iter
        (fun (m : Labmod.t) -> m.Labmod.ops.Labmod.state_repair m)
        (Stack.mods stack (Runtime.registry t.runtime)))
    (Namespace.stacks (Runtime.namespace t.runtime))

(* A deadline miss is counted, reported to the hooks and surfaced as a
   final ETIMEDOUT failure. *)
let deadline_miss t ~id detail =
  Metrics.incr t.counters.fc_deadline_misses;
  Hooks.deadline_miss t.hooks ~id;
  Request.failed_errno "ETIMEDOUT" detail

(* Request construction + LabStack/Module-Registry lookups the Runtime
   would otherwise perform. *)
let sync_dispatch_ns = 800.0

let recover t =
  if
    not
      (Ipc_manager.wait_online (Runtime.ipc t.runtime)
         ~timeout_ns:t.recovery_timeout_ns)
  then raise Runtime_gone;
  run_state_repair t

(* ---- the submission path -------------------------------------------
   One mechanism for one request and for a batch: [build] each request,
   [post] what was built with one doorbell, [reap] the completions into
   the pending set. [dispatch_once] and [run_batch] are its two
   policies. *)

type reaped = Done | Deadline | Crashed

(* Starts a submission of [n] entries, all pending and none built. *)
let open_slots t n =
  if n > Array.length t.slot_id then begin
    t.slot_id <- Array.make n closed;
    t.slot_res <- Array.make n Request.Done;
    t.outbox <- Array.make n t.outbox.(0)
  end;
  Array.fill t.slot_id 0 n 0;
  t.slots <- n;
  t.left <- n;
  t.outbox_n <- 0

(* Build: a pooled request stamped with the tenant and the open-loop
   origin, then submitted to the hooks (its trace context, with the
   "submit" stage open). It becomes slot [slot]'s outstanding attempt
   and waits in the outbox for the next post. *)
let build t (stack : Stack.t) ~slot payload ~hint ~stream ~scheduled =
  let req =
    Request.Pool.acquire t.pool
      ~id:(Runtime.next_request_id t.runtime)
      ~pid:t.c_pid ~uid:t.uid ~thread:t.c_thread ~stack_id:stack.Stack.id
      payload
  in
  (* Submitted and scheduled at now, stamped in place: no boxed time. *)
  let times = req.Request.times in
  Engine.stamp (machine t).Machine.engine times 0;
  times.(1) <- times.(0);
  req.Request.hint_hctx <- hint;
  req.Request.hint_stream <- stream;
  (* The tenant stamp lets the scheduler's DRR stage meter every
     request, batched ones too: a batch skips admission (it is one
     doorbell, not a pacing point). *)
  (match t.tenant with
  | Some tn -> req.Request.tenant <- Tenant.idx tn
  | None -> ());
  (* Open-loop origin: the arrival process intended this request at
     [scheduled], which may precede the submission when the injector
     fell behind. Closed-loop callers pass [None] and keep the two
     equal, so nothing below deviates for them. *)
  (match scheduled with
  | Some s0 -> times.(1) <- Float.min s0 times.(0)
  | None -> ());
  Hooks.submit t.hooks req ~tid:t.c_thread;
  t.slot_id.(slot) <- req.Request.id;
  t.outbox.(t.outbox_n) <- req;
  t.outbox_n <- t.outbox_n + 1;
  req

(* Post: push the outbox into the submission ring with one doorbell.
   Per-entry enqueue work is still charged per request; only the wakeup
   is amortized. "submit" ends, and the queue wait begins, once the
   requests are in the ring. *)
let post t qp =
  let n = t.outbox_n in
  t.fl.(0) <- (costs t).Costs.shmem_enqueue_ns *. Stdlib.float_of_int n;
  charge t;
  Qp.submit_n qp t.outbox n;
  t.outbox_n <- 0;
  (* Nothing below waits, so each traced entry reads the same instant;
     an untraced post reads no clock. *)
  for k = 0 to n - 1 do
    Hooks.post t.hooks t.outbox.(k) ~tid:t.c_thread
  done

(* The slot awaiting request [id] (from slot [i] on), or -1 for a stale
   completion: the leftover of an attempt this client abandoned. *)
let rec slot_of t id i =
  if i = t.slots then -1 else if t.slot_id.(i) = id then i else slot_of t id (i + 1)

(* Ends [req] with [result] in slot [i]: the hooks see it finish and the
   record goes back to the pool. *)
let finish t i (req : Request.t) result =
  Hooks.finish t.hooks req ~tid:t.c_thread result;
  t.slot_res.(i) <- result;
  Request.Pool.release t.pool req

(* The deadline is in [t.fl.(1)]. *)
let rec reap_loop t qp =
  if t.left = 0 then Done
  else
    let req = Qp.completion_or qp no_completion in
    if req != no_completion then begin
      let i = slot_of t req.Request.id 0 in
      if i >= 0 then begin
        t.slot_id.(i) <- closed;
        t.left <- t.left - 1;
        (* Pull the completion cache line back to our core. *)
        t.fl.(0) <- (costs t).Costs.shmem_cross_core_ns;
        charge t;
        (* Completion consumed: the Runtime is done with the record. *)
        finish t i req req.Request.result
      end;
      reap_loop t qp
    end
    else if Engine.reached (machine t).Machine.engine t.fl 1 then Deadline
    else if Ipc_manager.online (Runtime.ipc t.runtime) then begin
      Qp.wait_completion_event qp;
      reap_loop t qp
    end
    else Crashed

(* Reap: close every pending slot from the completion ring. A finite
   deadline gets one watchdog, which wakes the completion waiters at
   the deadline so a lost command cannot park the client forever. *)
let reap t qp ~deadline_abs =
  if Float.is_finite deadline_abs then begin
    let m = machine t and round = t.rounds in
    Engine.spawn m.Machine.engine (fun () ->
        let delay = deadline_abs -. Machine.now m in
        if delay > 0.0 then Engine.wait delay;
        if t.rounds = round then Qp.wake_all_waiters qp)
  end;
  t.fl.(1) <- deadline_abs;
  let outcome = reap_loop t qp in
  t.rounds <- t.rounds + 1;
  outcome

(* One dispatch of one attempt, transparently handling Runtime crashes
   (resubmitting after repair) and exec-mode differences. A metered
   client charges its tenant's token bucket and outstanding-op cap up
   front — a refusal is an EAGAIN the retry policy backs off on — and
   settles the admission on every exit, including before the
   crash-recovery resubmission, which is a fresh attempt and must
   re-admit. *)
let rec dispatch_once t (stack : Stack.t) payload ~hint ~stream ~scheduled
    ~deadline_abs =
  apply_decentralized_upgrades t;
  let bytes = Request.payload_bytes payload in
  (* Only a metered tenant reads the admission clock. *)
  let since = match t.tenant with Some _ -> Machine.now (machine t) | None -> 0.0 in
  match t.tenant with
  | Some tn
    when not (Tenant.admit (Runtime.qos t.runtime) tn ~bytes ~now:since) ->
      Request.failed_errno "EAGAIN"
        (Printf.sprintf "tenant %d admission refused" (Tenant.ext_id tn))
  | tenant -> (
      open_slots t 1;
      let req = build t stack ~slot:0 payload ~hint ~stream ~scheduled in
      let outcome =
        match stack.Stack.exec_mode with
        | Stack_spec.Sync ->
            (* The whole DAG runs in the client thread: no IPC, no
               central authority — the Lab-D / fully-decentralized
               configuration. The connector still builds the request and
               walks the namespace and Module Registry itself. *)
            t.fl.(0) <- sync_dispatch_ns;
            charge t;
            Hooks.execute t.hooks req ~tid:t.c_thread;
            (* The DAG runs to completion in this thread, so nothing can
               still reference the request: [finish] recycles it. *)
            finish t 0 req (Runtime.exec_request t.runtime ~thread:t.c_thread req);
            Done
        | Stack_spec.Async when Ipc_manager.online (Runtime.ipc t.runtime) ->
            let qp = qp_for_stack t stack in
            post t qp;
            reap t qp ~deadline_abs
        | Stack_spec.Async -> Crashed
      in
      (* Settle the admission: the cap slot goes back and the attempt's
         latency is recorded. *)
      (match tenant with
      | Some tn ->
          Tenant.complete (Runtime.qos t.runtime) tn ~bytes
            ~latency_ns:(Machine.now (machine t) -. since)
            ~ok:(match outcome with Done -> Request.is_ok t.slot_res.(0) | _ -> false)
      | None -> ());
      match outcome with
      | Done -> t.slot_res.(0)
      | Deadline ->
          deadline_miss t ~id:req.Request.id
            (Printf.sprintf "request %d missed its %.0fns deadline"
               req.Request.id t.policy.deadline_ns)
      | Crashed ->
          recover t;
          dispatch_once t stack payload ~hint ~stream ~scheduled ~deadline_abs)

let deadline_of_policy t =
  let p = t.policy in
  if Float.is_finite p.deadline_ns then Machine.now (machine t) +. p.deadline_ns
  else infinity

let backoff_ns t attempt =
  let p = t.policy in
  let b =
    p.base_backoff_ns *. (p.backoff_multiplier ** Stdlib.float_of_int attempt)
  in
  let b = Float.min b p.max_backoff_ns in
  let j = p.jitter *. b in
  if j > 0.0 then b -. j +. Rng.float t.rng (2.0 *. j) else b

(* Client-side fault policy, shared by the single-request and batched
   paths: given attempt [n]'s result, run bounded retries with
   exponential backoff + jitter on transient failures, degraded-mode
   requeueing to another hardware queue on ENODEV, all under one
   per-request deadline. A top-level function, so a final first result
   returns without building a closure. *)
let rec retry_transient t (stack : Stack.t) payload ~stream ~scheduled
    ~deadline_abs ~n ~hint result =
  let p = t.policy in
  if not (Request.is_transient_failure result) then result
  else if n >= p.max_retries then begin
    Metrics.incr t.counters.fc_exhausted;
    result
  end
  else begin
    Metrics.incr t.counters.fc_retries;
    (* Degraded mode: ENODEV means the queue/device is gone (not a
       retryable media error), so steer the retry to a different
       hardware queue instead of hammering the dead one. *)
    let hint =
      if Request.errno_of_result result = Some "ENODEV" then begin
        Metrics.incr t.counters.fc_requeues;
        Some (t.c_thread + n + 1)
      end
      else hint
    in
    Engine.wait (backoff_ns t n);
    if Machine.now (machine t) >= deadline_abs then
      deadline_miss t ~id:(-1) "deadline exhausted during retry backoff"
    else
      retry_transient t stack payload ~stream ~scheduled ~deadline_abs
        ~n:(n + 1) ~hint
        (dispatch_once t stack payload ~hint ~stream ~scheduled ~deadline_abs)
  end

(* Submit a request and apply the fault policy to its outcome.

   [scheduled_at] is the open-loop arrival process's intended injection
   time: when given, the latency observed here (and fed to the runtime
   SLO, if one is configured) is measured from it rather than from the
   send — the coordinated-omission-safe origin. Closed-loop callers
   omit it and measure from the send as before. *)
let do_request t (stack : Stack.t) ?stream ?scheduled_at payload =
  let e = (machine t).Machine.engine and fl = t.fl in
  Engine.stamp e fl 2;
  let deadline_abs = deadline_of_policy t in
  let result =
    retry_transient t stack payload ~stream ~scheduled:scheduled_at
      ~deadline_abs ~n:0 ~hint:None
      (dispatch_once t stack payload ~hint:None ~stream
         ~scheduled:scheduled_at ~deadline_abs)
  in
  Engine.stamp e fl 3;
  (match scheduled_at with Some s -> fl.(2) <- Float.min s fl.(2) | None -> ());
  fl.(4) <- fl.(3) -. fl.(2);
  Lab_obs.Hist.observe_cell t.latency_hist fl 4;
  Hooks.latency t.hooks fl ~latency:4 ~at:3;
  result

(* --- Batched submission (io_uring-style multi-submit) --- *)

(* Builds every open slot's request from [payloads], posts them
   with one doorbell and reaps them into the pending set, recovering a
   Runtime found offline first. What is still outstanding at the
   deadline fails with ETIMEDOUT; after a Runtime crash the survivors
   are resubmitted as a fresh single-doorbell batch. Without
   [deadline_abs] the reaping budget starts once the batch is in the
   ring. *)
let rec run_batch t (stack : Stack.t) payloads ?deadline_abs () =
  if not (Ipc_manager.online (Runtime.ipc t.runtime)) then recover t;
  apply_decentralized_upgrades t;
  let qp = qp_for_stack t stack in
  Array.iteri
    (fun i payload ->
      if t.slot_id.(i) <> closed then
        ignore
          (build t stack ~slot:i payload ~hint:None ~stream:None ~scheduled:None))
    payloads;
  post t qp;
  let deadline_abs = Option.value deadline_abs ~default:(deadline_of_policy t) in
  match reap t qp ~deadline_abs with
  | Done -> ()
  | Deadline ->
      for i = 0 to t.slots - 1 do
        if t.slot_id.(i) <> closed then begin
          t.slot_res.(i) <-
            deadline_miss t ~id:t.slot_id.(i)
              (Printf.sprintf "batch entry %d missed its %.0fns deadline" i
                 t.policy.deadline_ns);
          t.slot_id.(i) <- closed
        end
      done
  | Crashed ->
      recover t;
      run_batch t stack payloads ~deadline_abs ()

let resolve t target =
  match Namespace.resolve (Runtime.namespace t.runtime) target with
  | Some stack -> Ok stack
  | None -> Error (Printf.sprintf "no LabStack mounted for %S" target)

let ( let* ) r f = Result.bind r f

let as_unit = function
  | Request.Done | Request.Fd _ | Request.Size _ -> Ok ()
  | Request.Denied m | Request.Failed m -> Error m

(* [Ok n] for every whole number of 512-byte sectors up to 128 KiB,
   built at module initialisation (never lazily, so every platform in a
   process allocates alike), so a sized result allocates nothing. *)
let ok_sizes = Array.init 257 (fun i -> Ok (i * 512))

let as_size = function
  | Request.Size n when n >= 0 && n <= 131072 && n land 511 = 0 ->
      ok_sizes.(n lsr 9)
  | Request.Size n -> Ok n
  | Request.Done | Request.Fd _ -> Ok 0
  | Request.Denied m | Request.Failed m -> Error m

(* GenericFS keeps fd state common to all filesystem stacks. *)
let open_file t ?(create = false) path =
  charge_hash t;
  let* stack = resolve t path in
  let* () = as_unit (do_request t stack (Request.Posix (Request.Open { path; create }))) in
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Itbl.replace t.fd_table fd (path, stack.Stack.id);
  Ok fd

(* GenericFS owns file-descriptor state, so close is a client-local
   table update — no Runtime round trip. *)
let close t fd =
  charge_hash t;
  match Itbl.find t.fd_table fd with
  | exception Not_found -> Error (Printf.sprintf "bad file descriptor %d" fd)
  | _ ->
      Itbl.remove t.fd_table fd;
      Ok ()

(* An fd op's request: the fd table and the namespace are matched in
   place, so a hit builds no [Ok] and no continuation closure, and the
   payload and the result are all the op allocates here ([payload] is
   closed, so passing it allocates nothing). A miss is the [Failed]
   result naming what is missing. *)
let fd_request t ~fd ~off ~bytes payload =
  charge_hash t;
  match Itbl.find t.fd_table fd with
  | exception Not_found -> Request.Failed (Printf.sprintf "bad file descriptor %d" fd)
  | path, sid -> (
      match Namespace.stack_by_id (Runtime.namespace t.runtime) sid with
      | exception Not_found -> Request.Failed (Printf.sprintf "stack %d unmounted" sid)
      | stack -> do_request t stack (Request.Posix (payload fd path off bytes)))

let pwrite t ~fd ~off ~bytes =
  as_size
    (fd_request t ~fd ~off ~bytes (fun fd path off bytes ->
         Request.Pwrite { fd; path; off; bytes }))

let pread t ~fd ~off ~bytes =
  as_size
    (fd_request t ~fd ~off ~bytes (fun fd path off bytes ->
         Request.Pread { fd; path; off; bytes }))

let fsync t ~fd =
  as_unit
    (fd_request t ~fd ~off:0 ~bytes:0 (fun fd path _ _ -> Request.Fsync { fd; path }))

let create t path =
  let* stack = resolve t path in
  as_unit (do_request t stack (Request.Posix (Request.Create { path })))

let stat t path =
  let* stack = resolve t path in
  as_unit (do_request t stack (Request.Posix (Request.Open { path; create = false })))

let unlink t path =
  let* stack = resolve t path in
  as_unit (do_request t stack (Request.Posix (Request.Unlink { path })))

let rename t ~src ~dst =
  let* stack = resolve t src in
  as_unit (do_request t stack (Request.Posix (Request.Rename { src; dst })))

let put t ~key ~bytes =
  let* stack = resolve t key in
  as_unit (do_request t stack (Request.Kv (Request.Put { key; bytes })))

let get t ~key =
  let* stack = resolve t key in
  as_size (do_request t stack (Request.Kv (Request.Get { key })))

let delete t ~key =
  let* stack = resolve t key in
  as_unit (do_request t stack (Request.Kv (Request.Delete { key })))

let block_payload kind ~lba ~bytes =
  Request.Block { Request.b_kind = kind; b_lba = lba; b_bytes = bytes; b_sync = false }

let block_op t ?stream ?scheduled_at ~mount kind ~lba ~bytes =
  match Namespace.lookup (Runtime.namespace t.runtime) mount with
  | stack ->
      as_size
        (do_request t stack ?stream ?scheduled_at (block_payload kind ~lba ~bytes))
  | exception Not_found -> Error (Printf.sprintf "nothing mounted at %S" mount)

let write_block ?stream ?scheduled_at t ~mount ~lba ~bytes =
  block_op t ?stream ?scheduled_at ~mount Request.Write ~lba ~bytes

let read_block ?stream ?scheduled_at t ~mount ~lba ~bytes =
  block_op t ?stream ?scheduled_at ~mount Request.Read ~lba ~bytes

type batch_op = { op_kind : Request.io_kind; op_lba : int; op_bytes : int }

(* Batched block I/O: submit every op with one doorbell, reap them all,
   then apply the per-request fault policy to whatever failed
   transiently (retries go through the single-request path — by then
   the batch is broken up anyway). Sync stacks have no submission ring
   to coalesce, and a 1-element batch is exactly a single request. *)
let block_batch t ~mount ops =
  match Namespace.lookup (Runtime.namespace t.runtime) mount with
  | exception Not_found -> Error (Printf.sprintf "nothing mounted at %S" mount)
  | stack -> (
      let payload_of op =
        block_payload op.op_kind ~lba:op.op_lba ~bytes:op.op_bytes
      in
      match (stack.Stack.exec_mode, ops) with
      | _, [] -> Ok []
      | Stack_spec.Sync, ops | Stack_spec.Async, ([ _ ] as ops) ->
          Ok (List.map (fun op -> as_size (do_request t stack (payload_of op))) ops)
      | Stack_spec.Async, ops ->
          let deadline_abs = deadline_of_policy t in
          let payloads = List.map payload_of ops in
          let n = List.length payloads in
          open_slots t n;
          run_batch t stack (Array.of_list payloads) ();
          (* Copied out first: a retry below reuses the pending set. *)
          let firsts = Array.to_list (Array.sub t.slot_res 0 n) in
          Ok
            (List.map2
               (fun payload first ->
                 as_size
                   (retry_transient t stack payload ~stream:None
                      ~scheduled:None ~deadline_abs ~n:0 ~hint:None first))
               payloads firsts))

let control t ~mount payload =
  match Namespace.lookup (Runtime.namespace t.runtime) mount with
  | stack -> as_unit (do_request t stack (Request.Control payload))
  | exception Not_found -> Error (Printf.sprintf "nothing mounted at %S" mount)

(* clone/execve: the child re-connects (new shared-memory queue pairs)
   and asks the Runtime to copy the parent's open fds across. *)
let fork t ~new_pid ~new_thread =
  let child =
    connect t.runtime ~pid:new_pid ~uid:t.uid ~thread:new_thread
      ~recovery_timeout_ns:t.recovery_timeout_ns ~retry_policy:t.policy ()
  in
  (* One IPC round trip per fd table copy. *)
  t.fl.(0) <-
    (costs t).Costs.shmem_enqueue_ns +. (costs t).Costs.shmem_cross_core_ns;
  charge t;
  Itbl.fold (fun fd entry () -> Itbl.replace child.fd_table fd entry) t.fd_table ();
  child.next_fd <- t.next_fd;
  child
