(* labstor_cli — the utility-command surface of the deployment model:
   validate LabStack specs, mount one on a simulated platform under a
   Runtime configuration and drive a workload against it, and inspect
   the stock LabMod inventory.

   Examples:
     labstor_cli validate examples/obs_stack.yaml
     labstor_cli run --stack my-stack.yaml --ops 5000 --bytes 4096
     labstor_cli run --stack examples/obs_stack.yaml --config examples/runtime.yaml --threads 4
     labstor_cli mods *)

open Labstor
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every obs table is a name-aligned value table. *)
let print_value_table rows =
  let w = List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 rows in
  List.iter (fun (k, v) -> Printf.printf "  %-*s  %s\n" w k v) rows

(* Runs [body th client] on [threads] client threads inside the
   platform, each on its own client, and returns after the last. *)
let on_client_threads platform ~threads body =
  Platform.go platform (fun () ->
      let all_done = Sim.Engine.join threads in
      for th = 0 to threads - 1 do
        Sim.Engine.spawn (Platform.machine platform).Sim.Machine.engine (fun () ->
            body th (Platform.client platform ~thread:th ());
            Sim.Engine.arrive all_done)
      done;
      Sim.Engine.await all_done)

(* ---------------- validate ---------------- *)

let validate_cmd =
  let spec_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"LabStack YAML file")
  in
  let run spec_file =
    match Core.Stack_spec.parse (read_file spec_file) with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
    | Ok spec -> (
        (* Validate against the stock implementations, attributes
           included, as a mount does. *)
        let platform = Platform.boot () in
        let reg = Runtime.Runtime.registry (Platform.runtime platform) in
        match Core.Stack_spec.validate spec ~probe:(Core.Registry.probe reg) with
        | Error e ->
            Printf.eprintf "invalid stack: %s\n" e;
            exit 1
        | Ok () ->
            Printf.printf "%s: valid LabStack (%s execution)\n"
              spec.Core.Stack_spec.mount
              (match spec.Core.Stack_spec.rules.Core.Stack_spec.exec_mode with
              | Core.Stack_spec.Sync -> "sync"
              | Core.Stack_spec.Async -> "async");
            List.iter
              (fun (v : Core.Stack_spec.vertex) ->
                Printf.printf "  %-16s %-16s -> %s\n" v.Core.Stack_spec.uuid
                  v.Core.Stack_spec.mod_name
                  (match v.Core.Stack_spec.outputs with
                  | [] -> "(sink)"
                  | outs -> String.concat ", " outs))
              spec.Core.Stack_spec.dag)
  in
  Cmd.v (Cmd.info "validate" ~doc:"Parse and validate a LabStack specification")
    Term.(const run $ spec_file)

(* ---------------- run: workloads ---------------- *)

(* Counts a failed op into [failed]: under a scripted outage ops fail,
   and the run goes on. *)
let ok failed = function Ok _ -> true | Error _ -> incr failed; false

(* A filesystem stack: each thread creates, writes and closes [ops]
   files of its own under the mount. *)
let fs_workload ~mount ~ops ~bytes ~failed th c =
  for i = 1 to ops do
    let path = Printf.sprintf "%s/t%d-f%d" mount th i in
    match Result.bind (Runtime.Client.create c path) (fun () -> Runtime.Client.open_file c path) with
    | Ok fd ->
        ignore (ok failed (Runtime.Client.pwrite c ~fd ~off:0 ~bytes));
        ignore (ok failed (Runtime.Client.close c fd))
    | Error _ -> incr failed
  done

(* Any other stack: a block mix of 1 write in 4 over per-thread
   sequential streams, enough to exercise cache hits and misses,
   merges and the device path. *)
let block_workload ~mount ~ops ~bytes ~failed th c =
  let page = ref (th * 1_000_000) in
  for i = 1 to ops do
    let lba = !page in
    incr page;
    ignore
      (ok failed
         (if i mod 4 = 0 then Runtime.Client.write_block c ~stream:th ~mount ~lba ~bytes
          else Runtime.Client.read_block c ~stream:th ~mount ~lba ~bytes))
  done

(* ---------------- run: obs tables ---------------- *)

let print_metrics platform ~ops ~threads =
  let fmt_value = function
    | Obs.Metrics.V_counter n -> string_of_int n
    | Obs.Metrics.V_gauge g -> Printf.sprintf "%.1f" g
    | Obs.Metrics.V_histogram h ->
        Printf.sprintf "count=%d p50=%.0f ns p99=%.0f ns p999=%.0f ns"
          h.Obs.Metrics.hs_count h.Obs.Metrics.hs_p50 h.Obs.Metrics.hs_p99
          h.Obs.Metrics.hs_p999
  in
  let rows =
    List.map
      (fun (k, v) -> (k, fmt_value v))
      (Obs.Metrics.to_list (Platform.metrics platform))
  in
  Printf.printf "%d instruments after %d ops x %d threads:\n" (List.length rows)
    ops threads;
  print_value_table rows

let print_trace platform ~sample =
  let evs = Obs.Trace.events (Platform.tracer platform) in
  let requests =
    List.length (List.filter (fun e -> e.Obs.Trace.ev_cat = "request") evs)
  in
  Printf.printf "traced %d events from %d requests (1-in-%d sampling):\n"
    (List.length evs) requests sample;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = e.Obs.Trace.ev_cat ^ ":" ^ e.Obs.Trace.ev_name in
      let c, d = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.0) in
      Hashtbl.replace tbl key (c + 1, d +. e.Obs.Trace.ev_dur))
    evs;
  print_value_table
    (List.sort compare
       (Hashtbl.fold
          (fun key (c, d) acc ->
            let mean = if c = 0 then 0.0 else d /. float_of_int c in
            (key, Printf.sprintf "%5d  mean %.0f ns" c mean) :: acc)
          tbl []))

let print_exemplars store =
  Printf.printf
    "exemplars: %d stored of %d offered (%d promoted, %d recycled, %d evicted), threshold %.0f ns\n"
    (Obs.Exemplar.stored store)
    (Obs.Exemplar.offered store)
    (Obs.Exemplar.promoted store)
    (Obs.Exemplar.recycled store)
    (Obs.Exemplar.evicted store)
    (Obs.Exemplar.threshold_ns store);
  print_value_table
    (List.map
       (fun v ->
         let stages =
           List.filter (fun s -> s.Obs.Exemplar.s_cat = "stage") v.Obs.Exemplar.v_stages
         in
         let worst, worst_ns =
           List.fold_left
             (fun (wn, wd) s ->
               let d = s.Obs.Exemplar.s_t1 -. s.Obs.Exemplar.s_t0 in
               if d > wd then (s.Obs.Exemplar.s_name, d) else (wn, wd))
             ("-", 0.0) stages
         in
         ( Printf.sprintf "req %d" v.Obs.Exemplar.v_id,
           Printf.sprintf "%8.0f ns across %d stages, worst %s (%.0f ns)"
             v.Obs.Exemplar.v_latency (List.length stages) worst worst_ns ))
       (Obs.Exemplar.dump store))

let print_blackbox bb =
  Printf.printf
    "flight recorder: %d events through a %d-slot ring, %d triggers, %d dumps retained\n"
    (Obs.Flightrec.recorded bb) (Obs.Flightrec.cap bb) (Obs.Flightrec.triggers bb)
    (List.length (Obs.Flightrec.dumps bb));
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = e.Obs.Flightrec.e_kind in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    (Obs.Flightrec.events bb);
  print_value_table
    (List.sort compare
       (Hashtbl.fold (fun k c acc -> (k, Printf.sprintf "%5d in ring" c) :: acc) tbl []))

let print_profile platform ~period_ns =
  let prof = Obs.Profile.of_events (Obs.Trace.events (Platform.tracer platform)) in
  Printf.printf
    "profiled %d requests (p50 %.1f us, p99 %.1f us), sampler period %.1f us\n"
    prof.Obs.Profile.requests
    (prof.Obs.Profile.p50_ns /. 1e3)
    (prof.Obs.Profile.p99_ns /. 1e3)
    (period_ns /. 1e3);
  Printf.printf "hottest stacks (self time):\n";
  let by_self =
    List.sort
      (fun a b -> Float.compare b.Obs.Profile.pf_self_ns a.Obs.Profile.pf_self_ns)
      prof.Obs.Profile.nodes
  in
  print_value_table
    (List.filteri (fun i _ -> i < 20)
       (List.map
          (fun (n : Obs.Profile.node) ->
            ( n.Obs.Profile.pf_key,
              Printf.sprintf "n=%-6d self %8.0f ns  total %8.0f ns"
                n.Obs.Profile.pf_count n.Obs.Profile.pf_self_ns
                n.Obs.Profile.pf_total_ns ))
          by_self));
  Printf.printf "tail attribution (p50 cohort of %d vs >=p99 cohort of %d):\n"
    prof.Obs.Profile.p50_cohort prof.Obs.Profile.tail_cohort;
  print_value_table
    (List.map
       (fun (r : Obs.Profile.tail_row) ->
         ( r.Obs.Profile.tr_stage,
           Printf.sprintf "p50 mean %8.0f ns   tail mean %8.0f ns   x%.2f"
             r.Obs.Profile.tr_p50_mean_ns r.Obs.Profile.tr_tail_mean_ns
             (if r.Obs.Profile.tr_p50_mean_ns > 0.0 then
                r.Obs.Profile.tr_tail_mean_ns /. r.Obs.Profile.tr_p50_mean_ns
              else 0.0) ))
       prof.Obs.Profile.tail)

let print_timeseries ts ~period_ns =
  Printf.printf "%d series, %d ticks at %.1f us:\n"
    (List.length (Obs.Timeseries.series_names ts))
    (Obs.Timeseries.ticks ts) (period_ns /. 1e3);
  print_value_table
    (List.map
       (fun (s : Obs.Timeseries.stat) ->
         ( s.Obs.Timeseries.st_name,
           Printf.sprintf "mean %10.2f   max %10.2f   last %10.2f"
             s.Obs.Timeseries.st_mean s.Obs.Timeseries.st_max s.Obs.Timeseries.st_last ))
       (Obs.Timeseries.stats ts))

(* The table of each obs feature the configuration turns on, then its
   artifacts. *)
let report_obs platform (cfg : Runtime.Runtime.config) ~ops ~threads =
  let rt = Platform.runtime platform in
  let exemplars = Runtime.Runtime.exemplars rt and blackbox = Runtime.Runtime.blackbox rt in
  let period_ns = cfg.profile_period_ns in
  if cfg.metrics_path <> None then print_metrics platform ~ops ~threads;
  if cfg.trace_sample > 0 then print_trace platform ~sample:cfg.trace_sample;
  Option.iter print_exemplars exemplars;
  Option.iter print_blackbox blackbox;
  if cfg.profile_path <> None then print_profile platform ~period_ns;
  Option.iter (print_timeseries ~period_ns) (Runtime.Runtime.timeseries rt);
  Platform.export platform;
  let only_if feature path = if feature = None then None else path in
  List.iter
    (fun p -> Printf.printf "wrote %s\n" p)
    (List.filter_map Fun.id
       [
         cfg.trace_path;
         cfg.profile_path;
         only_if exemplars cfg.exemplar_path;
         only_if blackbox cfg.blackbox_path;
         cfg.metrics_path;
       ])

(* ---------------- run ---------------- *)

let parse_run_config = function
  | None -> Runtime.Runtime.default_config
  | Some f -> (
      match Runtime.Run_config.parse (read_file f) with
      | Ok c -> c
      | Error e ->
          Printf.eprintf "config error: %s\n" e;
          exit 1)

let run_cmd =
  let stack_file =
    Arg.(required & opt (some file) None & info [ "stack" ] ~docv:"SPEC" ~doc:"LabStack YAML file")
  in
  let config_file =
    Arg.(value & opt (some file) None
         & info [ "config" ] ~docv:"CONF"
             ~doc:"Runtime configuration YAML (see Run_config); it also names the obs artifacts to write")
  in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"operations per thread") in
  let bytes = Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"bytes per file write or block op") in
  let threads = Arg.(value & opt int 1 & info [ "threads" ] ~doc:"client threads") in
  let offline_ms =
    Arg.(value & opt float 0.0
         & info [ "offline-ms" ]
             ~doc:"script the device offline for this long from 1 ms of virtual time (0 = no outage)")
  in
  let run stack_file config_file ops bytes threads offline_ms =
    (* Rejected at once, so a run never joins zero threads. *)
    if threads < 1 then begin
      Printf.eprintf "labstor_cli: --threads must be >= 1, got %d\n" threads;
      exit 1
    end;
    let cfg = parse_run_config config_file in
    let fault_script =
      if offline_ms <= 0.0 then None
      else
        Some
          [
            Sim.Fault.Offline
              { from_ns = 1e6; until_ns = 1e6 +. (offline_ms *. 1e6); queue = None };
          ]
    in
    let platform = Platform.boot ~config:cfg ?fault_script () in
    let stack =
      match Platform.mount platform (read_file stack_file) with
      | Ok stack -> stack
      | Error e ->
          Printf.eprintf "mount error: %s\n" e;
          exit 1
    in
    let mount = stack.Core.Stack.mount in
    (* The entry module's type picks the workload. *)
    let entry =
      Core.Registry.find_exn
        (Runtime.Runtime.registry (Platform.runtime platform))
        (Core.Stack.entry_uuid stack)
    in
    let is_fs = entry.Core.Labmod.mod_type = Core.Labmod.Filesystem in
    let failed = ref 0 in
    let t0 = Platform.now platform in
    on_client_threads platform ~threads
      ((if is_fs then fs_workload else block_workload) ~mount ~ops ~bytes ~failed);
    let elapsed = Platform.now platform -. t0 in
    (* A file op is a create, a write and a close; a block op is one
       read or write, 1 in 4 a write. *)
    let total_ops = (if is_fs then 3 * ops else ops) * threads in
    let writes = (if is_fs then ops else ops / 4) * threads in
    Printf.printf "%s: %d ops in %.2f ms (simulated) -> %.1f kops/s, %.1f MiB written\n"
      mount total_ops (elapsed /. 1e6)
      (float_of_int total_ops /. (elapsed /. 1e9) /. 1000.0)
      (float_of_int (writes * bytes) /. 1048576.0);
    if !failed > 0 then Printf.printf "%d of %d ops failed\n" !failed total_ops;
    report_obs platform cfg ~ops ~threads
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Mount a LabStack on a simulated NVMe machine, drive a workload picked by its \
          entry module (create/write/close for a filesystem, a block mix otherwise) and \
          print and write what the Runtime configuration's obs features record")
    Term.(const run $ stack_file $ config_file $ ops $ bytes $ threads $ offline_ms)

(* ---------------- mods ---------------- *)

let mods_cmd =
  let run () =
    let platform = Platform.boot ~devices:[ Device.Profile.Nvme; Device.Profile.Pmem ] () in
    let reg = Runtime.Runtime.registry (Platform.runtime platform) in
    let names = List.sort compare (Core.Registry.factory_names reg) in
    Printf.printf "%d installed LabMod implementations:\n" (List.length names);
    List.iter
      (fun name ->
        match Core.Registry.probe reg ~mod_name:name ~attrs:[] with
        | Ok ty -> Printf.printf "  %-24s %s\n" name (Core.Labmod.mod_type_name ty)
        | Error _ -> ())
      names
  in
  Cmd.v (Cmd.info "mods" ~doc:"List the stock LabMod implementations") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "labstor_cli" ~version:"1.0.0"
      ~doc:"LabStor platform utilities (simulated deployment)"
  in
  exit (Cmd.eval (Cmd.group info [ validate_cmd; run_cmd; mods_cmd ]))
