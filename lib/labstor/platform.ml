open Lab_sim
open Lab_device

type t = {
  m : Machine.t;
  rt : Lab_runtime.Runtime.t;
  devs : (Profile.kind * Device.t) list;
  backends : (Profile.kind * Lab_mods.Mods_env.backend) list;
  mutable next_pid : int;
}

let backend_name kind = String.lowercase_ascii (Profile.kind_to_string kind)

(* Duplicate kinds in [devices] become distinct instances — mirror
   legs — named "nvme", "nvme2", "nvme3", … so each leg keeps its own
   identity in metrics, fault plans and volume topology. A
   single-instance boot keeps the historical name ("nvme"), so existing
   metric exports are byte-identical. *)
let instance_names devices =
  let seen = Hashtbl.create 8 in
  List.map
    (fun k ->
      let n = try Hashtbl.find seen k with Not_found -> 0 in
      Hashtbl.replace seen k (n + 1);
      let base = backend_name k in
      if n = 0 then base else Printf.sprintf "%s%d" base (n + 1))
    devices

let boot ?(config = Lab_runtime.Runtime.default_config) ?(ncores = 24)
    ?nworkers ?policy ?costs ?(devices = [ Profile.Nvme ])
    ?(seed = 0xC0FFEE) ?fault_rates ?fault_script ?worker_max_inflight
    ?trace_sample () =
  let m = Machine.create ?costs ~seed ~ncores () in
  let devices = if devices = [] then [ Profile.Nvme ] else devices in
  let devs =
    List.map2
      (fun k name ->
        (k, Device.create ~name m.Machine.engine (Profile.of_kind k)))
      devices (instance_names devices)
  in
  (* One fault plan per device, each with its own seed-derived stream so
     adding a device never perturbs another device's fault sequence. *)
  if fault_rates <> None || fault_script <> None then
    List.iteri
      (fun i (_, d) ->
        Device.set_fault_plan d
          (Fault.create ?rates:fault_rates ?script:fault_script
             ~seed:(seed + (i * 7919))
             ()))
      devs;
  let backends =
    List.map (fun (k, d) -> (k, Lab_mods.Mods_env.backend_of_device m d)) devs
  in
  (* An explicit pool size re-deals queues round-robin over it; the
     config's policy was sized for the config's pool. *)
  let policy =
    match (policy, nworkers) with
    | Some p, _ -> p
    | None, Some n -> Lab_runtime.Orchestrator.Round_robin n
    | None, None -> config.Lab_runtime.Runtime.policy
  in
  let nworkers =
    Option.value nworkers ~default:config.Lab_runtime.Runtime.nworkers
  in
  let config =
    {
      config with
      Lab_runtime.Runtime.nworkers;
      policy;
      (* Workers occupy the top cores; client threads take the bottom. *)
      worker_core_base = Stdlib.max 0 (ncores - nworkers);
      worker_max_inflight =
        Option.value worker_max_inflight ~default:config.worker_max_inflight;
      trace_sample = Option.value trace_sample ~default:config.trace_sample;
    }
  in
  let rt =
    Lab_runtime.Runtime.create m ~config
      ~backends:
        (List.map
           (fun (_, b) -> (Device.name b.Lab_mods.Mods_env.device, b))
           backends)
      ~default_backend:(backend_name (List.hd devices)) ()
  in
  (* Injected faults feed the flight recorder: each device's fault plan
     reports (now, queue, label) as a fault fires, recording a Fault
     event and firing a per-category "fault:<label>" dump trigger. *)
  (match Lab_runtime.Runtime.blackbox rt with
  | Some bb ->
      List.iter
        (fun (_, d) ->
          match Device.fault_plan d with
          | None -> ()
          | Some f ->
              Fault.set_observer f (fun ~now ~queue ~label ->
                  Lab_obs.Flightrec.record bb Lab_obs.Flightrec.Fault ~now
                    ~id:queue ~tag:label ();
                  Lab_obs.Flightrec.trigger bb ~reason:("fault:" ^ label) ~now))
        devs
  | None -> ());
  (* Device health is exposed as read-through gauges: the registry holds
     a closure, so exports always see the device's current counters
     without per-I/O bookkeeping on the data path. *)
  let metrics = Lab_runtime.Runtime.metrics rt in
  List.iter
    (fun (_, d) ->
      let pre s = Printf.sprintf "device.%s.%s" (Device.name d) s in
      let gi name f =
        Lab_obs.Metrics.gauge_fn metrics (pre name) (fun () ->
            Stdlib.float_of_int (f d))
      in
      gi "completed_reads" Device.completed_reads;
      gi "completed_writes" Device.completed_writes;
      gi "errors" Device.completed_errors;
      gi "bytes_read" Device.bytes_read;
      gi "bytes_written" Device.bytes_written;
      let gq name q =
        Lab_obs.Metrics.gauge_fn metrics (pre name) (fun () ->
            Lab_obs.Hist.quantile (Device.service_stats d) q)
      in
      gq "service_p50_ns" 0.50;
      gq "service_p99_ns" 0.99;
      match Device.fault_plan d with
      | None -> ()
      | Some f ->
          Lab_obs.Metrics.gauge_fn metrics
            (Printf.sprintf "fault.%s.injected_total" (Device.name d))
            (fun () -> Stdlib.float_of_int (Lab_sim.Fault.injected_total f)))
    devs;
  (* Device queue occupancy joins the profiling sampler: the runtime
     registered the CPU/worker/QP/cache probes, the devices are ours. *)
  (match Lab_runtime.Runtime.timeseries rt with
  | Some ts ->
      List.iter
        (fun (_, d) ->
          Lab_obs.Timeseries.add_series ts
            (Printf.sprintf "device.%s.outstanding" (Device.name d))
            (fun _now -> Stdlib.float_of_int (Device.outstanding d)))
        devs
  | None -> ());
  Lab_runtime.Runtime.start rt;
  { m; rt; devs; backends; next_pid = 1000 }

let tracer t = Lab_runtime.Runtime.tracer t.rt

let metrics t = Lab_runtime.Runtime.metrics t.rt

(* Per-category fault injections only materialize as faults fire, so
   they cannot be pre-registered as gauges; sync them into counters at
   snapshot time instead. *)
let sync_fault_counters t =
  let reg = metrics t in
  List.iter
    (fun (_, d) ->
      match Device.fault_plan d with
      | None -> ()
      | Some f ->
          List.iter
            (fun (nm, n) ->
              let c =
                Lab_obs.Metrics.counter ~reg
                  (Printf.sprintf "fault.%s.%s" (Device.name d) nm)
              in
              Lab_obs.Metrics.set_value c n)
            (Lab_sim.Fault.injected f))
    t.devs

(* Artifacts default under an output directory ("out/…"), which may not
   exist yet; create missing parents so export never fails on a fresh
   checkout. *)
let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* The profile artifact: the sampler's timeline next to the span-based
   flamegraph + tail attribution. Both halves are byte-stable, so two
   same-seed runs export identical bytes. *)
let profile_json t =
  let timeline =
    match Lab_runtime.Runtime.timeseries t.rt with
    | Some ts -> Lab_obs.Timeseries.to_json ts
    | None -> Lab_obs.Timeseries.empty_json
  in
  let spans =
    Lab_obs.Profile.to_json
      (Lab_obs.Profile.of_events (Lab_obs.Trace.events (tracer t)))
  in
  Printf.sprintf "{\"timeline\":%s,\n\"spans\":%s}\n" timeline spans

let export t =
  let cfg = Lab_runtime.Runtime.config t.rt in
  Option.iter
    (fun p -> write_file p (Lab_obs.Trace.to_chrome_json (tracer t)))
    cfg.trace_path;
  Option.iter (fun p -> write_file p (profile_json t)) cfg.profile_path;
  (match (Lab_runtime.Runtime.exemplars t.rt, cfg.exemplar_path) with
  | Some store, Some p -> write_file p (Lab_obs.Exemplar.to_json store)
  | _ -> ());
  (match (Lab_runtime.Runtime.blackbox t.rt, cfg.blackbox_path) with
  | Some bb, Some p -> write_file p (Lab_obs.Flightrec.to_json bb)
  | _ -> ());
  Option.iter
    (fun p ->
      sync_fault_counters t;
      write_file p (Lab_obs.Metrics.to_jsonl (metrics t)))
    cfg.metrics_path

let machine t = t.m

let runtime t = t.rt

let device t kind = List.assoc kind t.devs

let devices t = List.map (fun (_, d) -> (Device.name d, d)) t.devs

let device_by_name t name =
  match
    List.find_opt (fun (_, d) -> Device.name d = name) t.devs
  with
  | Some (_, d) -> d
  | None -> invalid_arg ("Platform.device_by_name: no device " ^ name)

let fault_plan t kind = Device.fault_plan (device t kind)

let backend t kind = List.assoc kind t.backends

let mount t text = Lab_runtime.Runtime.mount_text t.rt text

let mount_exn t text =
  match mount t text with
  | Ok s -> s
  | Error e -> invalid_arg ("Platform.mount_exn: " ^ e)

let register_tenant t ~uid ?weight ?rate_mbps ?burst_kb ?qcap () =
  Lab_runtime.Runtime.register_tenant t.rt ~ext_id:uid ?weight ?rate_mbps
    ?burst_kb ?qcap ()

let tenant_for t ~uid = Lab_runtime.Runtime.tenant_for t.rt ~uid

let client t ?pid ?(uid = 1000) ?retry_policy ~thread () =
  let pid =
    match pid with
    | Some p -> p
    | None ->
        t.next_pid <- t.next_pid + 1;
        t.next_pid
  in
  Lab_runtime.Client.connect t.rt ~pid ~uid ~thread ?retry_policy ()

(* One engine loop for the whole call: [Engine.run] stops right after
   the event in which [f] returns, leaving everything else queued. *)
let go t f =
  let result = ref None in
  let stop = ref false in
  Machine.spawn t.m (fun () ->
      result := Some (f ());
      stop := true);
  Engine.run ~stop t.m.Machine.engine;
  match !result with
  | Some r -> r
  | None -> failwith "Platform.go: process did not complete (deadlock?)"

let now t = Machine.now t.m
