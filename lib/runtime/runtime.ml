open Lab_sim
open Lab_ipc
open Lab_core
open Lab_device

type config = {
  nworkers : int;
  policy : Orchestrator.policy;
  worker_core_base : int;
  workers_busy_poll : bool;
  worker_batch_size : int;
  worker_max_inflight : int;
  trace_sample : int;
  trace_path : string option;
  metrics_path : string option;
  exemplar_k : int;
      (* tail-exemplar store slots: 0 (the default) disables retroactive
         stage capture entirely; > 0 captures every request's stages
         into pooled buffers and keeps the K slowest with full anatomy *)
  exemplar_tail_us : float;
      (* fixed promotion threshold (µs); <= 0 (the default) adapts to
         the live client-latency p99 instead *)
  exemplar_path : string option;
      (* where Platform.export writes the exemplar JSON *)
  blackbox_cap : int;
      (* flight-recorder ring capacity (events); 0 (the default)
         disables the recorder — no ring, no triggers, no dumps *)
  blackbox_path : string option;
      (* where Platform.export writes the black-box dump JSON *)
  profile_period_ns : float;  (* sampler period; <= 0 disables profiling *)
  profile_path : string option;
  lvm_rebuild_rate_mbps : float;
      (* volume-manager resilver rate cap (MB/s); bounds how hard a
         background rebuild competes with foreground traffic *)
  slo_p99_target_us : float;
      (* client-latency objective (µs); observations over it burn error
         budget. <= 0 (with no floor) means no SLO object exists at all
         and the request path stays byte-identical to a build without
         SLO support *)
  slo_floor_kops : float;
      (* throughput floor (kops/s): windows serving less than this burn
         budget for the unserved demand; 0 = no floor *)
}

let default_config =
  {
    nworkers = 4;
    policy = Orchestrator.Round_robin 4;
    worker_core_base = 0;
    workers_busy_poll = false;
    worker_batch_size = 1;
    worker_max_inflight = 16;
    trace_sample = 0;
    trace_path = None;
    metrics_path = None;
    exemplar_k = 0;
    exemplar_tail_us = 0.0;
    exemplar_path = None;
    blackbox_cap = 0;
    blackbox_path = None;
    profile_period_ns = 0.0;
    profile_path = None;
    lvm_rebuild_rate_mbps = 400.0;
    slo_p99_target_us = 0.0;
    slo_floor_kops = 0.0;
  }

(* Per-queue service statistics. [qs] holds the service-time EWMA at
   [ewma] and the smoothed submissions per epoch at [arrivals]: a
   mutable float field in a mixed record would box on every store. *)
type qstat = { qs : float array; mutable last_total : int }

(* A stack's instances in DAG order, vertices with no instance left
   out, as of registry generation [e_gen]. *)
type est_mods = { e_stack : Stack.t; e_gen : int; e_mods : Labmod.t array }

let ewma = 0

let arrivals = 1

type t = {
  machine : Machine.t;
  reg : Registry.t;
  ns : Namespace.t;
  ipc_mgr : Request.t Ipc_manager.t;
  mm : Module_manager.t;
  pool : Worker.t array;
  cfg : config;
  qstats : qstat Itbl.t;
  est_mods : est_mods Itbl.t;  (* stack id -> its instances *)
  est : float array;  (* [0]: the sum [estimate_into] leaves *)
  mutable req_counter : int;
  admin_thread : int;
  mutable live : bool;
  repo_mgr : Repo.t;
  hooks : Hooks.t;  (* the tracer, the flight recorder and the SLO *)
  metrics : Lab_obs.Metrics.t;
  service_hist : Lab_obs.Metrics.histogram;
  timeseries : Lab_obs.Timeseries.t option;
  qos : Tenant.t;
}

let machine t = t.machine

let registry t = t.reg

let namespace t = t.ns

let ipc t = t.ipc_mgr

let module_manager t = t.mm

let workers t = t.pool

let config t = t.cfg

let hooks t = t.hooks

let metrics t = t.metrics

let timeseries t = t.timeseries

let qos t = t.qos

let exemplars t = Lab_obs.Trace.exemplars (Hooks.tracer t.hooks)

let blackbox t = Hooks.blackbox t.hooks

let next_request_id t =
  t.req_counter <- t.req_counter + 1;
  t.req_counter

(* Worker threads get ids far above client thread ids so CPU affinity
   never collides by accident. *)
let worker_thread_base = 10_000

let admin_thread_id = 9_999

(* The admin process polls for upgrades and rebalances queues once per
   simulated millisecond; the rebalancer's epoch is the same period. *)
let admin_period_ns = 1e6

(* Loading new LabMod code: the binary is page-faulted in from the
   default backend (4 KiB reads — the dominant cost Table I observes),
   then linked. *)
let make_load_code machine (backend : Lab_mods.Mods_env.backend) =
  let link_cpu_ns = 2.5e6 in
  fun ~thread ~bytes ->
    let pages = Stdlib.max 1 (bytes / 4096) in
    let dev = backend.Lab_mods.Mods_env.device in
    for page = 0 to pages - 1 do
      Device.submit_wait dev ~hctx:thread ~kind:Device.Read
        ~lba:(1_000_000 + (page * 8)) ~bytes:4096
    done;
    Machine.compute machine ~thread link_cpu_ns

let exec_request t ~thread req =
  match Namespace.stack_by_id t.ns req.Request.stack_id with
  | stack -> Exec.run t.machine ~registry:t.reg ~stack ~thread req
  | exception Not_found ->
      Request.Failed (Printf.sprintf "unknown stack id %d" req.Request.stack_id)

let qstat_of t qp_id =
  match Itbl.find t.qstats qp_id with
  | s -> s
  | exception Not_found ->
      let s = { qs = [| 2000.0; 0.0 |]; last_total = 0 } in
      Itbl.replace t.qstats qp_id s;
      s

(* The service time is [cells.(i)]: a float argument would be boxed. *)
let note_service t ~qp_id cells i =
  let s = qstat_of t qp_id in
  s.qs.(ewma) <- (0.8 *. s.qs.(ewma)) +. (0.2 *. cells.(i));
  Lab_obs.Hist.observe_cell t.service_hist cells i

let read_est_mods t (stack : Stack.t) =
  let mods =
    List.filter_map
      (fun (v : Stack_spec.vertex) -> Registry.find t.reg v.Stack_spec.uuid)
      stack.Stack.spec.Stack_spec.dag
  in
  let e =
    { e_stack = stack; e_gen = Registry.generation t.reg; e_mods = Array.of_list mods }
  in
  Itbl.replace t.est_mods stack.Stack.id e;
  e.e_mods

(* Cached per stack, and read again when the stack record or the
   registry generation has changed. *)
let est_mods_of t (stack : Stack.t) =
  match Itbl.find t.est_mods stack.Stack.id with
  | e when e.e_stack == stack && e.e_gen = Registry.generation t.reg -> e.e_mods
  | _ -> read_est_mods t stack
  | exception Not_found -> read_est_mods t stack

(* EstProcessingTime over a stack: every LabMod on it asked in DAG
   order and summed left to right, so the sum is bit-identical to a
   fold over [Stack.mods]; a vertex with no instance is skipped, as
   there. The sum stays in a float cell: no closure, no boxed
   accumulator. Leaves the estimate for [req]'s stack in [t.est.(0)];
   0 when the stack is gone. *)
let estimate_into t req =
  t.est.(0) <- 0.0;
  match Namespace.stack_by_id t.ns req.Request.stack_id with
  | stack ->
      let mods = est_mods_of t stack in
      for i = 0 to Array.length mods - 1 do
        let m = mods.(i) in
        t.est.(0) <- t.est.(0) +. m.Labmod.ops.Labmod.est_processing_time m req
      done
  | exception Not_found -> ()

(* Dispatch-time estimate: raises the queue's expected service time
   immediately; later completions pull it back if the estimate was
   pessimistic. *)
let prime_estimate t ~qp_id req =
  let s = qstat_of t qp_id in
  estimate_into t req;
  s.qs.(ewma) <- Float.max s.qs.(ewma) t.est.(0)

let create machine ?(config = default_config) ~backends ~default_backend () =
  let reg = Registry.create () in
  let metrics = Lab_obs.Metrics.create () in
  (* Tail-exemplar store: built only when slots are configured. Its
     promotion threshold is either the fixed [exemplar_tail_us] floor
     or (at the 0.0 default) the store's own self-adaptive corrected
     p99 over every offered latency — re-read on each completion, so
     the store adapts as the run's tail moves. *)
  let exemplars =
    if config.exemplar_k > 0 then
      if config.exemplar_tail_us > 0.0 then begin
        let fixed = config.exemplar_tail_us *. 1e3 in
        Some
          (Lab_obs.Exemplar.create
             ~threshold:(fun () -> fixed)
             ~k:config.exemplar_k ())
      end
      else Some (Lab_obs.Exemplar.create ~k:config.exemplar_k ())
    else None
  in
  let tracer =
    Lab_obs.Trace.create ~sample:config.trace_sample ?exemplars ()
  in
  (* Flight recorder: a preallocated ring, always on once configured;
     with [blackbox_cap] 0 there is none and its hooks are one option
     check each. *)
  let blackbox =
    if config.blackbox_cap > 0 then
      Some (Lab_obs.Flightrec.create ~cap:config.blackbox_cap ())
    else None
  in
  (* The continuous-profiling sampler. Created only when a period is
     configured: with profiling off, no Timeseries exists, no probes are
     registered and no Engine tick hook is installed — the run is
     byte-identical to one built before this feature existed. *)
  let timeseries =
    if config.profile_period_ns > 0.0 then
      Some (Lab_obs.Timeseries.create ~period:config.profile_period_ns ())
    else None
  in
  (* Multi-tenant QoS table: always built (it is inert until a tenant
     registers — requests without a tenant stamp skip the dispatch
     gate entirely), shared by the scheduler instances and the
     client-side admission path. *)
  let qos = Tenant.create () in
  (* The runtime-wide SLO: built only when an objective is configured,
     so the default request path never even allocates the object. *)
  let slo =
    if config.slo_p99_target_us > 0.0 || config.slo_floor_kops > 0.0 then
      Some
        (Lab_obs.Latrec.Slo.create ~reg:metrics ~name:"client"
           ~p99_target_ns:(config.slo_p99_target_us *. 1e3)
           ~floor_ops_s:(config.slo_floor_kops *. 1e3)
           ~window_ns:1e6 ())
    else None
  in
  let hooks = Hooks.create ~tracer ?blackbox ?slo machine.Machine.engine in
  let env =
    { Lab_mods.Mod_util.metrics = Some metrics; timeseries; qos = Some qos; hooks }
  in
  Lab_mods.Mods_env.install ~env reg ~machine ~backends ~default_backend
    ~nworkers:config.nworkers
    ~lvm_rebuild_rate_mbps:config.lvm_rebuild_rate_mbps;
  let default =
    match List.assoc_opt default_backend backends with
    | Some b -> b
    | None -> invalid_arg "Runtime.create: unknown default backend"
  in
  let rec t =
    lazy
      (let exec ~thread req = exec_request (Lazy.force t) ~thread req in
       let qstat ~qp_id cells i = note_service (Lazy.force t) ~qp_id cells i
       in
       let qprime ~qp_id req = prime_estimate (Lazy.force t) ~qp_id req in
       let pool =
         Array.init config.nworkers (fun i ->
             let thread = worker_thread_base + i in
             let core =
               (config.worker_core_base + i) mod Cpu.ncores machine.Machine.cpu
             in
             Cpu.pin machine.Machine.cpu ~thread ~core;
             Worker.create machine ~hooks ~id:i ~thread ~exec ~qstat ~qprime
               ~busy_poll:config.workers_busy_poll
               ~batch_size:config.worker_batch_size
               ~max_inflight:config.worker_max_inflight ())
       in
       {
         machine;
         reg;
         ns = Namespace.create ();
         ipc_mgr = Ipc_manager.create ~metrics ?timeseries machine.Machine.engine;
         mm =
           Module_manager.create machine reg
             ~load_code:(make_load_code machine default);
         pool;
         cfg = config;
         qstats = Itbl.create 16;
         est_mods = Itbl.create 1;
         est = [| 0.0 |];
         req_counter = 0;
         admin_thread = admin_thread_id;
         live = true;
         repo_mgr = Repo.create ~runtime_uid:0 ();
         hooks;
         metrics;
         service_hist = Lab_obs.Metrics.histogram ~reg:metrics "runtime.service_ns";
         timeseries;
         qos;
       })
  in
  let t = Lazy.force t in
  (* Worker activity is maintained by the Worker structs themselves;
     expose it as read-through gauges rather than duplicating state. *)
  Array.iter
    (fun w ->
      let name k = Printf.sprintf "runtime.worker%d.%s" (Worker.id w) k in
      Lab_obs.Metrics.gauge_fn metrics (name "processed") (fun () ->
          Stdlib.float_of_int (Worker.processed w));
      Lab_obs.Metrics.gauge_fn metrics (name "active_ns") (fun () ->
          Worker.active_ns w))
    t.pool;
  (* Profiling probes + the sampler's clock hook. Each utilization probe
     differences a cumulative counter against its previous sample, so
     the series reads as a per-interval fraction rather than a
     cumulative ramp; the closures' refs are advanced only by the
     deterministic tick, so the series is deterministic too. *)
  (match timeseries with
  | Some ts ->
      let period = config.profile_period_ns in
      let frac d = Float.min 1.0 (Float.max 0.0 (d /. period)) in
      let cores_done = Hashtbl.create 8 in
      Array.iteri
        (fun i w ->
          let core =
            (config.worker_core_base + i) mod Cpu.ncores machine.Machine.cpu
          in
          if not (Hashtbl.mem cores_done core) then begin
            Hashtbl.replace cores_done core ();
            let prev_busy = ref 0.0 in
            Lab_obs.Timeseries.add_series ts
              (Printf.sprintf "cpu.core%d.busy_frac" core)
              (fun now ->
                let b = Cpu.busy_ns_upto machine.Machine.cpu core ~now in
                let d = b -. !prev_busy in
                prev_busy := b;
                frac d)
          end;
          let prev_active = ref 0.0 in
          Lab_obs.Timeseries.add_series ts
            (Printf.sprintf "runtime.worker%d.util" (Worker.id w))
            (fun _now ->
              let a = Worker.active_ns w in
              let d = a -. !prev_active in
              prev_active := a;
              frac d);
          Lab_obs.Timeseries.add_series ts
            (Printf.sprintf "runtime.worker%d.inflight" (Worker.id w))
            (fun _now -> Stdlib.float_of_int (Worker.inflight w)))
        t.pool;
      Engine.set_tick machine.Machine.engine ~period (fun now ->
          Lab_obs.Timeseries.tick ts ~now)
  | None -> ());
  t

(* The paper's EstProcessingTime path: ask every LabMod on the queued
   request's stack for its expected processing time, so a queue turns
   computational the moment a heavy request is waiting — before any
   service-time history exists. *)
let estimate_queued t qp =
  match Qp.peek_sq qp with
  | None -> 0.0
  | Some req ->
      estimate_into t req;
      t.est.(0)

let queue_loads t =
  List.map
    (fun qp ->
      let s = qstat_of t (Qp.id qp) in
      let total = Qp.total_submitted qp in
      let fresh = Stdlib.float_of_int (total - s.last_total) in
      s.last_total <- total;
      (* Smooth the arrival rate: long-running requests submit less than
         once per epoch, and a zero sample must not erase their load. *)
      s.qs.(arrivals) <- (0.7 *. s.qs.(arrivals)) +. (0.3 *. fresh);
      {
        Orchestrator.qp;
        est_service_ns = Float.max s.qs.(ewma) (estimate_queued t qp);
        expected_requests = Float.max s.qs.(arrivals) 1.0;
      })
    (Ipc_manager.primary_qps t.ipc_mgr)

let rebalance_now t =
  Orchestrator.rebalance t.cfg.policy ~epoch_ns:admin_period_ns
    ~queues:(queue_loads t) ~workers:t.pool

let all_primary_acked t =
  (* Nudge parked workers so they observe the marks. *)
  Array.iter Worker.wake t.pool;
  List.for_all
    (fun qp -> Qp.mark qp <> Qp.Update_pending)
    (Ipc_manager.primary_qps t.ipc_mgr)

let process_upgrades t =
  Module_manager.process_centralized t.mm ~thread:t.admin_thread
    ~primary_qps:(Ipc_manager.primary_qps t.ipc_mgr)
    ~all_acked:(fun () -> all_primary_acked t)
    ~intermediate_idle:(fun () -> true)
(* Intermediate traffic is synchronous within a worker's request, so a
   worker that acknowledged a mark has no intermediate work in flight. *)

let start t =
  Array.iter Worker.start t.pool;
  Engine.spawn t.machine.Machine.engine (fun () ->
      let rec admin () =
        Engine.wait admin_period_ns;
        if t.live then begin
          process_upgrades t;
          rebalance_now t
        end;
        admin ()
      in
      admin ())

let mount_repo t ~name ~owner_uid ~mods =
  Repo.mount_repo t.repo_mgr t.reg ~name ~owner_uid ~mods

let unmount_repo t ~name = Repo.unmount_repo t.repo_mgr t.reg ~name

let mount t spec =
  match Repo.validate_stack_trust t.repo_mgr spec with
  | Error _ as e -> e
  | Ok () ->
      let r = Namespace.mount t.ns t.reg spec in
      rebalance_now t;
      r

let mount_text t text =
  match Stack_spec.parse text with Error _ as e -> e | Ok spec -> mount t spec

let modify_stack_text t text =
  match Stack_spec.parse text with
  | Error _ as e -> e
  | Ok spec -> Namespace.modify_stack t.ns t.reg spec

let modify_mods t upgrade = Module_manager.submit_upgrade t.mm upgrade

let utilization t ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0
  else
    Array.fold_left (fun acc w -> acc +. Worker.active_ns w) 0.0 t.pool
    /. (elapsed_ns *. Stdlib.float_of_int (Array.length t.pool))

let reset_worker_stats t = Array.iter Worker.reset_stats t.pool

let requests_processed t =
  Array.fold_left (fun acc w -> acc + Worker.processed w) 0 t.pool

let crash t =
  t.live <- false;
  Array.iter Worker.stop t.pool;
  Ipc_manager.set_online t.ipc_mgr false;
  (* In-flight requests in the Runtime's address space are lost. *)
  List.iter
    (fun qp ->
      let rec drain_sq () =
        match Qp.poll_sq qp with Some _ -> drain_sq () | None -> ()
      in
      let rec drain_cq () =
        match Qp.try_completion qp with Some _ -> drain_cq () | None -> ()
      in
      drain_sq ();
      drain_cq ();
      Qp.wake_all_waiters qp)
    (Ipc_manager.qps t.ipc_mgr)

let restart t =
  t.live <- true;
  Array.iter Worker.resume t.pool;
  Ipc_manager.set_online t.ipc_mgr true;
  rebalance_now t

(* Each tenant gets read-through observability gauges (no state
   duplicated) and, when the profiling sampler exists, timeline probes. *)
let register_tenant t ~ext_id ?(weight = 1) ?(rate_mbps = 0.0)
    ?(burst_kb = 256) ?(qcap = 64) () =
  let tn =
    Tenant.register t.qos ~ext_id ~weight ~rate_mbps
      ~burst_bytes:(1024 * burst_kb) ~qcap
  in
  let name k = Printf.sprintf "tenant.%d.%s" ext_id k in
  Lab_obs.Metrics.gauge_fn t.metrics (name "p99") (fun () ->
      Lab_obs.Hist.quantile (Tenant.latency tn) 0.99);
  Lab_obs.Metrics.gauge_fn t.metrics (name "throughput_bytes") (fun () ->
      Stdlib.float_of_int (Tenant.bytes_done tn));
  Lab_obs.Metrics.gauge_fn t.metrics (name "deficit") (fun () ->
      Tenant.deficit tn);
  Lab_obs.Metrics.gauge_fn t.metrics (name "throttled") (fun () ->
      Stdlib.float_of_int (Tenant.throttled tn));
  (match t.timeseries with
  | Some ts ->
      Lab_obs.Timeseries.add_series ts (name "deficit") (fun _now ->
          Tenant.deficit tn);
      Lab_obs.Timeseries.add_series ts (name "throttled") (fun _now ->
          Stdlib.float_of_int (Tenant.throttled tn));
      Lab_obs.Timeseries.add_series ts (name "queued") (fun _now ->
          Stdlib.float_of_int (Tenant.queued tn))
  | None -> ());
  tn

let tenant_for t ~uid = Tenant.find t.qos ~ext_id:uid
