open Lab_sim
open Lab_ipc
open Lab_core
open Lab_device

type config = {
  nworkers : int;
  policy : Orchestrator.policy;
  admin_period_ns : float;
  worker_spin_ns : float;
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
  qos_quantum_kb : int;
      (* DRR replenishment per visit per unit weight (KiB) *)
  qos_window_kb : int;
      (* outstanding throughput-class byte cap across all tenants (KiB) *)
  qos_bypass_kb : int;
      (* ops at or under this size are latency-class and skip the DRR
         window (KiB; matches the device's urgent-transfer threshold) *)
  tenant_weight : int;  (* default registration weight *)
  tenant_rate_mbps : float;  (* default token-bucket rate; 0 = uncapped *)
  tenant_burst_kb : int;  (* default token-bucket burst (KiB) *)
  tenant_qcap : int;  (* default outstanding-op cap per tenant *)
  slo_name : string;  (* SLO gauge prefix: slo.<name>.* *)
  slo_p99_target_us : float;
      (* client-latency objective (µs); observations over it burn error
         budget. <= 0 (with no floor) means no SLO object exists at all
         and the request path stays byte-identical to a build without
         SLO support *)
  slo_floor_kops : float;
      (* throughput floor (kops/s): windows serving less than this burn
         budget for the unserved demand; 0 = no floor *)
  slo_error_budget : float;  (* allowed bad fraction (default 1%) *)
  slo_window_ms : float;  (* burn-rate window (simulated ms) *)
}

let default_config =
  {
    nworkers = 4;
    policy = Orchestrator.Round_robin 4;
    admin_period_ns = 1e6;
    worker_spin_ns = 5000.0;
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
    qos_quantum_kb = 64;
    qos_window_kb = 128;
    qos_bypass_kb = 16;
    tenant_weight = 1;
    tenant_rate_mbps = 0.0;
    tenant_burst_kb = 256;
    tenant_qcap = 64;
    slo_name = "client";
    slo_p99_target_us = 0.0;
    slo_floor_kops = 0.0;
    slo_error_budget = 0.01;
    slo_window_ms = 1.0;
  }

type qstat = {
  mutable ewma : float;
  mutable last_total : int;
  mutable arrivals_ewma : float;  (* smoothed submissions per epoch *)
}

type t = {
  machine : Machine.t;
  reg : Registry.t;
  ns : Namespace.t;
  ipc_mgr : Request.t Ipc_manager.t;
  mm : Module_manager.t;
  pool : Worker.t array;
  cfg : config;
  qstats : (int, qstat) Hashtbl.t;
  mutable req_counter : int;
  admin_thread : int;
  mutable live : bool;
  repo_mgr : Repo.t;
  tracer : Lab_obs.Trace.t;
  metrics : Lab_obs.Metrics.t;
  service_hist : Lab_obs.Metrics.histogram;
  timeseries : Lab_obs.Timeseries.t option;
  qos : Tenant.t;
  slo : Lab_obs.Latrec.Slo.t option;
      (* runtime-wide SLO over client latency; [None] (the default)
         means the request path makes exactly one option check *)
  exemplars : Lab_obs.Exemplar.t option;
      (* tail-exemplar store the tracer offers every finished flow to;
         [None] = no retroactive capture *)
  blackbox : Lab_obs.Flightrec.t option;
      (* always-on flight recorder; [None] = every hook is one option
         check *)
}

let machine t = t.machine

let registry t = t.reg

let namespace t = t.ns

let ipc t = t.ipc_mgr

let module_manager t = t.mm

let workers t = t.pool

let config t = t.cfg

let tracer t = t.tracer

let metrics t = t.metrics

let timeseries t = t.timeseries

let qos t = t.qos

let slo t = t.slo

let exemplars t = t.exemplars

let blackbox t = t.blackbox

let next_request_id t =
  t.req_counter <- t.req_counter + 1;
  t.req_counter

(* Worker threads get ids far above client thread ids so CPU affinity
   never collides by accident. *)
let worker_thread_base = 10_000

let admin_thread_id = 9_999

(* Loading new LabMod code: the binary is page-faulted in from the
   default backend (4 KiB reads — the dominant cost Table I observes),
   then linked. *)
let make_load_code machine (backend : Lab_mods.Mods_env.backend) =
  let link_cpu_ns = 2.5e6 in
  fun ~thread ~bytes ->
    let pages = Stdlib.max 1 (bytes / 4096) in
    let dev = backend.Lab_mods.Mods_env.device in
    let nq = Device.n_hw_queues dev in
    for page = 0 to pages - 1 do
      ignore
        (Device.submit_wait dev ~hctx:(thread mod nq) ~kind:Device.Read
           ~lba:(1_000_000 + (page * 8)) ~bytes:4096)
    done;
    Machine.compute machine ~thread link_cpu_ns

let exec_request t ~thread req =
  match Namespace.stack_by_id t.ns req.Request.stack_id with
  | None ->
      Request.Failed (Printf.sprintf "unknown stack id %d" req.Request.stack_id)
  | Some stack -> Exec.run t.machine ~registry:t.reg ~stack ~thread req

let qstat_of t qp_id =
  match Hashtbl.find_opt t.qstats qp_id with
  | Some s -> s
  | None ->
      let s = { ewma = 2000.0; last_total = 0; arrivals_ewma = 0.0 } in
      Hashtbl.replace t.qstats qp_id s;
      s

let note_service t ~qp_id ~service_ns =
  let s = qstat_of t qp_id in
  s.ewma <- (0.8 *. s.ewma) +. (0.2 *. service_ns);
  Lab_obs.Hist.observe t.service_hist service_ns

(* Dispatch-time estimate (EstProcessingTime over the request's stack):
   raises the queue's expected service time immediately; later
   completions pull it back if the estimate was pessimistic. *)
let estimate_request t req =
  match Namespace.stack_by_id t.ns req.Request.stack_id with
  | None -> 0.0
  | Some stack ->
      List.fold_left
        (fun acc (m : Labmod.t) ->
          acc +. m.Labmod.ops.Labmod.est_processing_time m req)
        0.0
        (Stack.mods stack t.reg)

let prime_estimate t ~qp_id req =
  let s = qstat_of t qp_id in
  s.ewma <- Float.max s.ewma (estimate_request t req)

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
     record/trigger hooks all over the runtime reduce to one option
     check when [blackbox_cap] is 0. *)
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
  let qos =
    Tenant.create
      ~quantum_bytes:(1024 * config.qos_quantum_kb)
      ~window_bytes:(1024 * config.qos_window_kb)
      ~bypass_bytes:(1024 * config.qos_bypass_kb)
      ()
  in
  (* The runtime-wide SLO: built only when an objective is configured,
     so the default request path never even allocates the object. *)
  let slo =
    if config.slo_p99_target_us > 0.0 || config.slo_floor_kops > 0.0 then
      Some
        (Lab_obs.Latrec.Slo.create ~reg:metrics ~name:config.slo_name
           ~p99_target_ns:(config.slo_p99_target_us *. 1e3)
           ~floor_ops_s:(config.slo_floor_kops *. 1e3)
           ~error_budget:config.slo_error_budget
           ~window_ns:(config.slo_window_ms *. 1e6)
           ())
    else None
  in
  (* The flight recorder rides SLO window rolls: every closed window is
     logged, and a window burning past its budget (burn > 1) triggers a
     black-box dump. *)
  (match (slo, blackbox) with
  | Some s, Some bb ->
      Lab_obs.Latrec.Slo.set_on_roll s (fun ~now ~burn ->
          Lab_obs.Flightrec.record bb Lab_obs.Flightrec.Slo_roll ~now
            ~arg:(Stdlib.int_of_float (burn *. 1000.0))
            ();
          if burn > 1.0 then
            Lab_obs.Flightrec.trigger bb ~reason:"slo_burn" ~now)
  | _ -> ());
  Lab_mods.Mods_env.install reg ~machine ~backends ~default_backend
    ~nworkers:config.nworkers
    ~lvm_rebuild_rate_mbps:config.lvm_rebuild_rate_mbps ~metrics ?timeseries
    ~qos ?blackbox;
  let default =
    match List.assoc_opt default_backend backends with
    | Some b -> b
    | None -> invalid_arg "Runtime.create: unknown default backend"
  in
  let rec t =
    lazy
      (let exec ~thread req = exec_request (Lazy.force t) ~thread req in
       let qstat ~qp_id ~service_ns =
         note_service (Lazy.force t) ~qp_id ~service_ns
       in
       let qprime ~qp_id req = prime_estimate (Lazy.force t) ~qp_id req in
       let pool =
         Array.init config.nworkers (fun i ->
             let thread = worker_thread_base + i in
             let core =
               (config.worker_core_base + i) mod Cpu.ncores machine.Machine.cpu
             in
             Cpu.pin machine.Machine.cpu ~thread ~core;
             Worker.create machine ~id:i ~thread ~exec ~qstat ~qprime
               ~spin_ns:config.worker_spin_ns ~busy_poll:config.workers_busy_poll
               ~batch_size:config.worker_batch_size
               ~max_inflight:config.worker_max_inflight ?blackbox ())
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
         qstats = Hashtbl.create 64;
         req_counter = 0;
         admin_thread = admin_thread_id;
         live = true;
         repo_mgr = Repo.create ~runtime_uid:0 ();
         tracer;
         metrics;
         service_hist = Lab_obs.Metrics.histogram ~reg:metrics "runtime.service_ns";
         timeseries;
         qos;
         slo;
         exemplars;
         blackbox;
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
  | Some req -> (
      match Namespace.stack_by_id t.ns req.Request.stack_id with
      | None -> 0.0
      | Some stack ->
          List.fold_left
            (fun acc (m : Labmod.t) ->
              acc +. m.Labmod.ops.Labmod.est_processing_time m req)
            0.0
            (Stack.mods stack t.reg))

let queue_loads t =
  List.map
    (fun qp ->
      let s = qstat_of t (Qp.id qp) in
      let total = Qp.total_submitted qp in
      let fresh = Stdlib.float_of_int (total - s.last_total) in
      s.last_total <- total;
      (* Smooth the arrival rate: long-running requests submit less than
         once per epoch, and a zero sample must not erase their load. *)
      s.arrivals_ewma <- (0.7 *. s.arrivals_ewma) +. (0.3 *. fresh);
      {
        Orchestrator.qp;
        est_service_ns = Float.max s.ewma (estimate_queued t qp);
        expected_requests = Float.max s.arrivals_ewma 1.0;
      })
    (Ipc_manager.primary_qps t.ipc_mgr)

let rebalance_now t =
  Orchestrator.rebalance t.cfg.policy ~epoch_ns:t.cfg.admin_period_ns
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
        Engine.wait t.cfg.admin_period_ns;
        if t.live then begin
          process_upgrades t;
          rebalance_now t
        end;
        admin ()
      in
      admin ())

let repo_manager t = t.repo_mgr

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

(* Tenant registration: config defaults apply unless overridden. Each
   tenant gets read-through observability gauges (no state duplicated)
   and, when the profiling sampler exists, timeline probes. *)
let register_tenant t ~ext_id ?weight ?rate_mbps ?burst_kb ?qcap () =
  let c = t.cfg in
  let tn =
    Tenant.register t.qos ~ext_id
      ~weight:(Option.value weight ~default:c.tenant_weight)
      ~rate_mbps:(Option.value rate_mbps ~default:c.tenant_rate_mbps)
      ~burst_bytes:(1024 * Option.value burst_kb ~default:c.tenant_burst_kb)
      ~qcap:(Option.value qcap ~default:c.tenant_qcap)
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
