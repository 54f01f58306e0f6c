(* labstor_cli — the utility-command surface of the deployment model:
   validate LabStack specs, mount them on a simulated platform and drive
   workloads against them, and inspect the stock LabMod inventory.

   Examples:
     labstor_cli validate my-stack.yaml
     labstor_cli run --stack my-stack.yaml --ops 5000 --bytes 4096
     labstor_cli run --stack my-stack.yaml --config runtime.yaml --threads 4
     labstor_cli mods *)

open Labstor
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- shared report tables ---------------- *)

(* Every inspection subcommand prints the same two shapes: a
   "  label       k=v, k=v" counter row and a name-aligned value table. *)

let counter_cells pairs =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) pairs)

let print_counter_row ?(suffix = "") label pairs =
  Printf.printf "  %-13s %s%s\n" label (counter_cells pairs) suffix

let print_value_table rows =
  let w = List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 rows in
  List.iter (fun (k, v) -> Printf.printf "  %-*s  %s\n" w k v) rows

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
        (* Validate against the stock implementations. *)
        let platform = Platform.boot () in
        let reg = Runtime.Runtime.registry (Platform.runtime platform) in
        let mod_type_of name =
          Option.map
            (fun f ->
              let probe = f ~uuid:"__probe__" ~attrs:[] in
              probe.Core.Labmod.mod_type)
            (Core.Registry.find_factory reg name)
        in
        match Core.Stack_spec.validate spec ~mod_type_of with
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
    Arg.(value & opt (some file) None & info [ "config" ] ~docv:"CONF" ~doc:"Runtime configuration YAML")
  in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"operations per thread") in
  let bytes = Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"bytes per write") in
  let threads = Arg.(value & opt int 1 & info [ "threads" ] ~doc:"client threads") in
  let run stack_file config_file ops bytes threads =
    let config = parse_run_config config_file in
    let machine = Sim.Machine.create ~ncores:24 () in
    let nvme = Device.Device.create machine.Sim.Machine.engine Device.Profile.nvme in
    let backend = Mods.Mods_env.backend_of_device machine nvme in
    let config =
      { config with Runtime.Runtime.worker_core_base = 24 - config.Runtime.Runtime.nworkers }
    in
    let rt =
      Runtime.Runtime.create machine ~config ~backends:[ ("nvme", backend) ]
        ~default_backend:"nvme" ()
    in
    Runtime.Runtime.start rt;
    let spec_text = read_file stack_file in
    let mount =
      match Runtime.Runtime.mount_text rt spec_text with
      | Ok stack -> stack.Core.Stack.mount
      | Error e ->
          Printf.eprintf "mount error: %s\n" e;
          exit 1
    in
    let result = ref None in
    Sim.Machine.spawn machine (fun () ->
        let t0 = Sim.Machine.now machine in
        let finished = ref 0 in
        Sim.Engine.suspend (fun resume ->
            for th = 0 to threads - 1 do
              Sim.Engine.spawn machine.Sim.Machine.engine (fun () ->
                  let c =
                    Runtime.Client.connect rt ~pid:(100 + th) ~uid:1000 ~thread:th ()
                  in
                  for i = 1 to ops do
                    let path = Printf.sprintf "%s/t%d-f%d" mount th i in
                    (match Runtime.Client.create c path with
                    | Ok () -> ()
                    | Error e -> failwith e);
                    match Runtime.Client.open_file c path with
                    | Ok fd ->
                        ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes);
                        ignore (Runtime.Client.close c fd)
                    | Error e -> failwith e
                  done;
                  incr finished;
                  if !finished = threads then resume ())
            done);
        result := Some (Sim.Machine.now machine -. t0);
        Sim.Engine.stop_all machine.Sim.Machine.engine);
    Sim.Machine.run machine;
    match !result with
    | Some elapsed ->
        let total_ops = 3 * ops * threads in
        Printf.printf "%s: %d ops in %.2f ms (simulated) -> %.1f kops/s, %.1f MiB written\n"
          mount total_ops (elapsed /. 1e6)
          (float_of_int total_ops /. (elapsed /. 1e9) /. 1000.0)
          (float_of_int (ops * threads * bytes) /. 1048576.0)
    | None ->
        Printf.eprintf "workload did not complete\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Mount a LabStack on a simulated NVMe machine and drive a create/write/close workload")
    Term.(const run $ stack_file $ config_file $ ops $ bytes $ threads)

(* ---------------- faults ---------------- *)

let faults_stack_spec =
  {|
mount: "blk::/dev/sim"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: noop_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let faults_cmd =
  let rate =
    Arg.(value & opt float 0.01 & info [ "rate" ] ~doc:"per-command I/O-error probability")
  in
  let timeout_rate =
    Arg.(value & opt float 0.0 & info [ "timeout-rate" ] ~doc:"per-command transient-timeout probability")
  in
  let torn_rate =
    Arg.(value & opt float 0.0 & info [ "torn-rate" ] ~doc:"per-write torn-write probability")
  in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"fault-plan and workload seed") in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"block writes per thread") in
  let bytes = Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"bytes per write") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"print the full fault trace") in
  let run rate timeout_rate torn_rate seed ops bytes threads trace =
    let rates =
      {
        Sim.Fault.io_error = rate;
        timeout = timeout_rate;
        timeout_delay_ns = 200_000.0;
        torn_write = torn_rate;
      }
    in
    let platform = Platform.boot ~nworkers:4 ~seed ~fault_rates:rates () in
    (match Platform.mount platform faults_stack_spec with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "mount error: %s\n" e;
        exit 1);
    let machine = Platform.machine platform in
    let lat = Sim.Stats.create () in
    let failed = ref 0 in
    let clients = ref [] in
    Platform.go platform (fun () ->
        let finished = ref 0 in
        Sim.Engine.suspend (fun resume ->
            for th = 0 to threads - 1 do
              Sim.Engine.spawn machine.Sim.Machine.engine (fun () ->
                  let c = Platform.client platform ~thread:th () in
                  clients := c :: !clients;
                  let rng = Sim.Rng.create (seed lxor (th * 7919)) in
                  for _ = 1 to ops do
                    let lba = Sim.Rng.int rng 262144 in
                    let t0 = Sim.Machine.now machine in
                    match
                      Runtime.Client.write_block c ~mount:"blk::/dev/sim" ~lba ~bytes
                    with
                    | Ok _ -> Sim.Stats.add lat (Sim.Machine.now machine -. t0)
                    | Error _ -> incr failed
                  done;
                  incr finished;
                  if !finished = threads then resume ())
            done));
    let elapsed = Platform.now platform in
    let total = ops * threads in
    Printf.printf "fault sweep: %d writes x %d B, io_error=%.4f timeout=%.4f torn=%.4f seed=%#x\n"
      total bytes rate timeout_rate torn_rate seed;
    Printf.printf "  throughput    %.1f kIOPS (%.2f ms simulated)\n"
      (float_of_int total /. (elapsed /. 1e9) /. 1000.0)
      (elapsed /. 1e6);
    Printf.printf "  latency       p50 %.1f us  p99 %.1f us\n"
      (Sim.Stats.percentile lat 50.0 /. 1e3)
      (Sim.Stats.percentile lat 99.0 /. 1e3);
    Printf.printf "  failed        %d of %d surfaced to the application\n" !failed total;
    Printf.printf
      "  errno         EIO/ETORN = transient media error (client retries in \
       place); ENODEV = device offline (fail-over: client requeues, mirrors \
       degrade)\n";
    (match Platform.fault_plan platform Device.Profile.Nvme with
    | Some plan ->
        print_counter_row "injected"
          ~suffix:(Printf.sprintf " (total %d)" (Sim.Fault.injected_total plan))
          (Sim.Fault.injected plan);
        if trace then List.iter (fun l -> Printf.printf "    %s\n" l) (Sim.Fault.trace plan)
    | None -> ());
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 !clients in
    print_counter_row "client policy"
      [
        ("retries", sum Runtime.Client.retries);
        ("requeues", sum Runtime.Client.requeues);
        ("deadline_misses", sum Runtime.Client.deadline_misses);
        ("exhausted", sum Runtime.Client.exhausted_retries);
      ]
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Drive a block workload against a device with a deterministic fault plan and report fault/retry counters")
    Term.(const run $ rate $ timeout_rate $ torn_rate $ seed $ ops $ bytes $ threads $ trace)

(* ---------------- lvm ---------------- *)

let lvm_stack_spec =
  {|
mount: "blk::/vol"
dag:
  - uuid: lvm0
    mod: lab_lvm
    attrs:
      raid: 1
      legs: [nvme, nvme2]
|}

let lvm_cmd =
  let extents =
    Arg.(value & opt int 32 & info [ "extents" ] ~doc:"1 MiB extents to populate")
  in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"reads per thread per phase") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0x1074 & info [ "seed" ] ~doc:"workload seed") in
  let rate =
    Arg.(value & opt float 400.0
         & info [ "rebuild-rate" ] ~docv:"MBPS" ~doc:"resilver copy-rate cap in MB/s")
  in
  let journal = Arg.(value & flag & info [ "journal" ] ~doc:"print the redo journal") in
  let run extents ops threads seed rate journal =
    let extent_blocks = 2048 in
    let platform =
      Platform.boot ~nworkers:4 ~seed ~lvm_rebuild_rate_mbps:rate
        ~devices:[ Device.Profile.Nvme; Device.Profile.Nvme ]
        ()
    in
    (match Platform.mount platform lvm_stack_spec with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "mount error: %s\n" e;
        exit 1);
    let machine = Platform.machine platform in
    let mount = "blk::/vol" in
    let span = extents * extent_blocks in
    let failures = ref 0 in
    let run_phase f =
      Platform.go platform (fun () ->
          let finished = ref 0 in
          Sim.Engine.suspend (fun resume ->
              for th = 0 to threads - 1 do
                Sim.Engine.spawn machine.Sim.Machine.engine (fun () ->
                    let c = Platform.client platform ~thread:th () in
                    f th c;
                    incr finished;
                    if !finished = threads then resume ())
              done))
    in
    let read_loop th c n key =
      let rng = Sim.Rng.create (seed lxor (th * key)) in
      for _ = 1 to n do
        let lba = Sim.Rng.int rng span in
        match Runtime.Client.read_block c ~mount ~lba ~bytes:4096 with
        | Ok _ -> ()
        | Error _ -> incr failures
      done
    in
    (* Populate the mirror, then read while healthy. *)
    run_phase (fun th c ->
        let per = extents / threads in
        for i = 0 to per - 1 do
          let lba = ((th * per) + i) * extent_blocks in
          match Runtime.Client.write_block c ~mount ~lba ~bytes:4096 with
          | Ok _ -> ()
          | Error _ -> incr failures
        done;
        read_loop th c ops 7919);
    (* Script leg nvme2 offline for 5 ms, read through the loss. *)
    let from_ns = Platform.now platform +. 100_000.0 in
    let until_ns = from_ns +. 5_000_000.0 in
    Device.Device.set_fault_plan
      (Platform.device_by_name platform "nvme2")
      (Sim.Fault.create
         ~script:[ Sim.Fault.Offline { from_ns; until_ns; queue = None } ]
         ~seed ());
    run_phase (fun th c ->
        Sim.Engine.wait (from_ns +. 10_000.0 -. Sim.Machine.now machine);
        read_loop th c ops 104729);
    (* The leg returns; read until the resilver finishes. *)
    let m =
      match
        Core.Registry.find (Runtime.Runtime.registry (Platform.runtime platform)) "lvm0"
      with
      | Some m -> m
      | None -> assert false
    in
    run_phase (fun th c ->
        let now () = Sim.Machine.now machine in
        if until_ns +. 10_000.0 > now () then
          Sim.Engine.wait (until_ns +. 10_000.0 -. now ());
        let guard = ref 0 in
        while Mods.Lab_lvm.rebuild_frac m < 1.0 && !guard < 200_000 do
          incr guard;
          read_loop th c 1 15485863;
          Sim.Engine.wait 20_000.0
        done);
    let counters = Mods.Lab_lvm.counters m in
    let ops_list = Mods.Lab_lvm.journal_ops m in
    let vg = Mods.Lab_lvm.vg m in
    let replayed =
      Mods.Lab_lvm.Meta.replay ~nlegs:vg.Mods.Lab_lvm.Meta.nlegs
        ~extents_per_leg:vg.Mods.Lab_lvm.Meta.extents_per_leg ops_list
    in
    Printf.printf
      "lvm: RAID1 over [nvme, nvme2], %d x 1 MiB extents, %d reads/thread x %d threads, seed %#x\n"
      extents ops threads seed;
    Printf.printf "  legs          %s\n"
      (String.concat ", "
         (List.map (fun (n, s) -> n ^ "=" ^ s) (Mods.Lab_lvm.leg_states m)));
    print_counter_row "mirror" (List.filter (fun (k, _) -> k <> "rebuild_copied_bytes") counters);
    Printf.printf "  rebuild       frac %.2f, %d bytes resilvered at <= %.0f MB/s\n"
      (Mods.Lab_lvm.rebuild_frac m)
      (try List.assoc "rebuild_copied_bytes" counters with Not_found -> 0)
      rate;
    Printf.printf "  journal       %d redo records; replay is %s and %s the live volume group\n"
      (List.length ops_list)
      (if Mods.Lab_lvm.Meta.consistent replayed then "consistent" else "INCONSISTENT")
      (if Mods.Lab_lvm.Meta.equal replayed vg then "matches" else "DOES NOT match");
    Printf.printf "  failures      %d reads/writes surfaced to the application\n" !failures;
    if journal then
      List.iter
        (fun op -> Printf.printf "    %s\n" (Mods.Lab_lvm.Meta.op_to_string op))
        ops_list
  in
  Cmd.v
    (Cmd.info "lvm"
       ~doc:"Mount a mirrored volume, script one leg offline mid-run, and report degraded-mode and rebuild counters")
    Term.(const run $ extents $ ops $ threads $ seed $ rate $ journal)

(* ---------------- cache ---------------- *)

let cache_stack_spec ~policy ~capacity_mb ~shards ~readahead =
  Printf.sprintf
    {|
mount: "blk::/cache"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: %s
    attrs:
      capacity_mb: %d
      shards: %d
      readahead: %b
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
    policy capacity_mb shards readahead

let cache_cmd =
  let policy =
    Arg.(value & opt (enum [ ("lru", "lru_cache"); ("arc", "arc_cache") ]) "lru_cache"
         & info [ "policy" ] ~docv:"POLICY" ~doc:"replacement policy: $(b,lru) or $(b,arc)")
  in
  let capacity_mb =
    Arg.(value & opt int 4 & info [ "capacity-mb" ] ~doc:"cache capacity in MiB")
  in
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"independent cache shards") in
  let readahead = Arg.(value & flag & info [ "readahead" ] ~doc:"enable sequential readahead") in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads (one stream each)") in
  let write_pct =
    Arg.(value & opt int 25 & info [ "write-pct" ] ~doc:"percentage of ops that are writes (0-100)")
  in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let run policy capacity_mb shards readahead ops threads write_pct seed =
    let write_pct = Stdlib.max 0 (Stdlib.min 100 write_pct) in
    let platform = Platform.boot ~nworkers:4 ~seed () in
    (match
       Platform.mount platform
         (cache_stack_spec ~policy ~capacity_mb ~shards ~readahead)
     with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "mount error: %s\n" e;
        exit 1);
    let machine = Platform.machine platform in
    let lat = Sim.Stats.create () in
    let failed = ref 0 in
    Platform.go platform (fun () ->
        let finished = ref 0 in
        Sim.Engine.suspend (fun resume ->
            for th = 0 to threads - 1 do
              Sim.Engine.spawn machine.Sim.Machine.engine (fun () ->
                  let c = Platform.client platform ~thread:th () in
                  (* Per-thread sequential streams in disjoint page
                     regions: reads from the base, writes from the
                     upper half. *)
                  let rpage = ref (th * 1_000_000) in
                  let wpage = ref ((th * 1_000_000) + 500_000) in
                  for i = 1 to ops do
                    let t0 = Sim.Machine.now machine in
                    let r =
                      if write_pct > 0 && i * write_pct mod 100 < write_pct then begin
                        let lba = !wpage in
                        incr wpage;
                        Runtime.Client.write_block c ~stream:th ~mount:"blk::/cache"
                          ~lba ~bytes:4096
                      end
                      else begin
                        let lba = !rpage in
                        incr rpage;
                        Runtime.Client.read_block c ~stream:th ~mount:"blk::/cache"
                          ~lba ~bytes:4096
                      end
                    in
                    match r with
                    | Ok _ -> Sim.Stats.add lat (Sim.Machine.now machine -. t0)
                    | Error _ -> incr failed
                  done;
                  incr finished;
                  if !finished = threads then resume ())
            done));
    let elapsed = Platform.now platform in
    let total = ops * threads in
    let rt = Platform.runtime platform in
    Printf.printf
      "cache workload: %d sequential 4 KiB ops (%d%% writes), %s capacity=%d MiB shards=%d readahead=%b seed=%#x\n"
      total write_pct policy capacity_mb shards readahead seed;
    Printf.printf "  throughput    %.1f kIOPS (%.2f ms simulated)\n"
      (float_of_int total /. (elapsed /. 1e9) /. 1000.0)
      (elapsed /. 1e6);
    Printf.printf "  latency       p50 %.1f us  p99 %.1f us\n"
      (Sim.Stats.percentile lat 50.0 /. 1e3)
      (Sim.Stats.percentile lat 99.0 /. 1e3);
    if !failed > 0 then
      Printf.printf "  failed        %d of %d surfaced to the application\n" !failed total;
    (match Core.Registry.find (Runtime.Runtime.registry rt) "cache0" with
    | None -> ()
    | Some m ->
        let counters, shard_counters =
          if policy = "arc_cache" then
            (Mods.Arc_cache.counter_list m, Mods.Arc_cache.shard_counter_list m)
          else
            (Mods.Lru_cache.counter_list m, Mods.Lru_cache.shard_counter_list m)
        in
        print_counter_row "cache" counters;
        print_counter_row "per-shard" shard_counters)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Drive sequential per-thread streams through a cache stack and report hit/readahead/write-back counters")
    Term.(const run $ policy $ capacity_mb $ shards $ readahead $ ops $ threads $ write_pct $ seed)

(* ---------------- metrics / trace ---------------- *)

(* Canned three-stage observability stack: cache -> merge scheduler ->
   kernel driver, so the registry and tracer have every instrument
   class to show. *)
let obs_stack_spec =
  {|
mount: "blk::/obs"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: 4
      shards: 2
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

(* Mixed 4 KiB workload (1-in-4 writes) over per-thread sequential
   streams; enough to exercise cache hits/misses, merges, and the
   device path. *)
let drive_obs_workload platform ~ops ~threads =
  (match Platform.mount platform obs_stack_spec with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "mount error: %s\n" e;
      exit 1);
  let machine = Platform.machine platform in
  Platform.go platform (fun () ->
      let finished = ref 0 in
      Sim.Engine.suspend (fun resume ->
          for th = 0 to threads - 1 do
            Sim.Engine.spawn machine.Sim.Machine.engine (fun () ->
                let c = Platform.client platform ~thread:th () in
                let page = ref (th * 1_000_000) in
                for i = 1 to ops do
                  let lba = !page in
                  incr page;
                  if i mod 4 = 0 then
                    ignore
                      (Runtime.Client.write_block c ~stream:th
                         ~mount:"blk::/obs" ~lba ~bytes:4096)
                  else
                    ignore
                      (Runtime.Client.read_block c ~stream:th
                         ~mount:"blk::/obs" ~lba ~bytes:4096)
                done;
                incr finished;
                if !finished = threads then resume ())
          done))

let conf_pos =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"CONF"
        ~doc:
          "Runtime configuration YAML (workers, trace_sample, trace_path, \
           metrics_path, profile_period_us, profile_path)")

let metrics_cmd =
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"metrics snapshot output path (overrides the config's metrics_path)")
  in
  let run conf ops threads seed out =
    let cfg = parse_run_config conf in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed
        ~trace_sample:cfg.Runtime.Runtime.trace_sample ()
    in
    drive_obs_workload platform ~ops ~threads;
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
    print_value_table rows;
    let path =
      match out with
      | Some p -> p
      | None ->
          Option.value cfg.Runtime.Runtime.metrics_path
            ~default:"out/metrics.jsonl"
    in
    Platform.export ~metrics_path:path platform;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Drive a canned cache/sched/driver stack and dump the unified metrics registry")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ out)

let trace_cmd =
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let sample =
    Arg.(value & opt int 0
         & info [ "sample" ]
             ~doc:"trace 1-in-N requests (overrides the config's trace_sample; defaults to 1)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"Chrome trace output path (overrides the config's trace_path)")
  in
  let run conf ops threads seed sample out =
    let cfg = parse_run_config conf in
    let sample =
      if sample > 0 then sample
      else if cfg.Runtime.Runtime.trace_sample > 0 then
        cfg.Runtime.Runtime.trace_sample
      else 1
    in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed
        ~trace_sample:sample ()
    in
    drive_obs_workload platform ~ops ~threads;
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
    let rows =
      List.sort compare
        (Hashtbl.fold
           (fun key (c, d) acc ->
             let mean = if c = 0 then 0.0 else d /. float_of_int c in
             (key, Printf.sprintf "%5d  mean %.0f ns" c mean) :: acc)
           tbl [])
    in
    print_value_table rows;
    let path =
      match out with
      | Some p -> p
      | None ->
          Option.value cfg.Runtime.Runtime.trace_path ~default:"out/trace.json"
    in
    Platform.export ~trace_path:path platform;
    Printf.printf "wrote %s (load in Perfetto / chrome://tracing)\n" path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace sampled requests through a canned stack and export Chrome trace-event JSON")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ sample $ out)

(* ---------------- exemplars / blackbox ---------------- *)

let exemplars_cmd =
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"exemplar slots (slowest K requests kept)") in
  let tail_us =
    Arg.(value & opt float 0.0
         & info [ "tail-us" ]
             ~doc:"fixed promotion threshold in microseconds (0 = adapt to the live client p99)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"exemplar store output path (overrides the config's exemplar_path)")
  in
  let run conf ops threads seed k tail_us out =
    let cfg = parse_run_config conf in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed ~exemplar_k:k
        ~exemplar_tail_us:tail_us ()
    in
    drive_obs_workload platform ~ops ~threads;
    (match Runtime.Runtime.exemplars (Platform.runtime platform) with
    | None -> Printf.printf "exemplar store disabled (k = 0)\n"
    | Some store ->
        Printf.printf
          "exemplars: %d stored of %d offered (%d promoted, %d recycled, %d evicted), threshold %.0f ns\n"
          (Obs.Exemplar.stored store)
          (Obs.Exemplar.offered store)
          (Obs.Exemplar.promoted store)
          (Obs.Exemplar.recycled store)
          (Obs.Exemplar.evicted store)
          (Obs.Exemplar.threshold_ns store);
        let rows =
          List.map
            (fun v ->
              let stages =
                List.filter
                  (fun s -> s.Obs.Exemplar.s_cat = "stage")
                  v.Obs.Exemplar.v_stages
              in
              let worst =
                List.fold_left
                  (fun (wn, wd) s ->
                    let d = s.Obs.Exemplar.s_t1 -. s.Obs.Exemplar.s_t0 in
                    if d > wd then (s.Obs.Exemplar.s_name, d) else (wn, wd))
                  ("-", 0.0) stages
              in
              ( Printf.sprintf "req %d" v.Obs.Exemplar.v_id,
                Printf.sprintf "%8.0f ns across %d stages, worst %s (%.0f ns)"
                  v.Obs.Exemplar.v_latency (List.length stages) (fst worst)
                  (snd worst) ))
            (Obs.Exemplar.dump store)
        in
        print_value_table rows);
    let path =
      match out with
      | Some p -> p
      | None ->
          Option.value cfg.Runtime.Runtime.exemplar_path
            ~default:"out/exemplars.json"
    in
    Platform.export ~exemplar_path:path platform;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "exemplars"
       ~doc:"Capture the slowest requests' full stage anatomy through a canned stack and export the tail-exemplar store")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ k $ tail_us $ out)

let blackbox_cmd =
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let cap = Arg.(value & opt int 512 & info [ "cap" ] ~doc:"flight-recorder ring capacity (events)") in
  let offline_ms =
    Arg.(value & opt float 2.0
         & info [ "offline-ms" ]
             ~doc:"script the device offline for this long mid-run (0 = no fault)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"black-box dump output path (overrides the config's blackbox_path)")
  in
  let run conf ops threads seed cap offline_ms out =
    let cfg = parse_run_config conf in
    let fault_script =
      if offline_ms <= 0.0 then None
      else
        (* Mid-run outage: the workload below runs well past 1 ms of
           virtual time, so requests hit the offline window and surface
           ENODEV — exactly the trigger the recorder is for. *)
        Some
          [
            Sim.Fault.Offline
              {
                from_ns = 1_000_000.0;
                until_ns = 1_000_000.0 +. (offline_ms *. 1e6);
                queue = None;
              };
          ]
    in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed
        ~blackbox_cap:cap ?fault_script ()
    in
    drive_obs_workload platform ~ops ~threads;
    (match Runtime.Runtime.blackbox (Platform.runtime platform) with
    | None -> Printf.printf "flight recorder disabled (cap = 0)\n"
    | Some bb ->
        Printf.printf
          "flight recorder: %d events through a %d-slot ring, %d triggers, %d dumps retained\n"
          (Obs.Flightrec.recorded bb)
          (Obs.Flightrec.cap bb)
          (Obs.Flightrec.triggers bb)
          (List.length (Obs.Flightrec.dumps bb));
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun e ->
            let c =
              Option.value (Hashtbl.find_opt tbl e.Obs.Flightrec.e_kind)
                ~default:0
            in
            Hashtbl.replace tbl e.Obs.Flightrec.e_kind (c + 1))
          (Obs.Flightrec.events bb);
        let rows =
          List.sort compare
            (Hashtbl.fold
               (fun k c acc -> (k, Printf.sprintf "%5d in ring" c) :: acc)
               tbl [])
        in
        print_value_table rows);
    let path =
      match out with
      | Some p -> p
      | None ->
          Option.value cfg.Runtime.Runtime.blackbox_path
            ~default:"out/blackbox.json"
    in
    Platform.export ~blackbox_path:path platform;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:"Run the always-on flight recorder through a scripted device outage and export the triggered black-box dumps")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ cap $ offline_ms $ out)

(* ---------------- profile / top ---------------- *)

let profile_cmd =
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let period_us =
    Arg.(value & opt float 50.0
         & info [ "period-us" ] ~doc:"sampler period in microseconds")
  in
  let top_n =
    Arg.(value & opt int 20 & info [ "top" ] ~doc:"flamegraph rows to print")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"profile JSON output path (overrides the config's profile_path)")
  in
  let run conf ops threads seed period_us top_n out =
    let cfg = parse_run_config conf in
    let period_ns =
      if cfg.Runtime.Runtime.profile_period_ns > 0.0 then
        cfg.Runtime.Runtime.profile_period_ns
      else period_us *. 1000.0
    in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed ~trace_sample:1
        ~profile_period:period_ns ()
    in
    drive_obs_workload platform ~ops ~threads;
    let prof =
      Obs.Profile.of_events (Obs.Trace.events (Platform.tracer platform))
    in
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
    let take n l = List.filteri (fun i _ -> i < n) l in
    print_value_table
      (List.map
         (fun (n : Obs.Profile.node) ->
           ( n.Obs.Profile.pf_key,
             Printf.sprintf "n=%-6d self %8.0f ns  total %8.0f ns"
               n.Obs.Profile.pf_count n.Obs.Profile.pf_self_ns
               n.Obs.Profile.pf_total_ns ))
         (take top_n by_self));
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
         prof.Obs.Profile.tail);
    let path =
      match out with
      | Some p -> p
      | None ->
          Option.value cfg.Runtime.Runtime.profile_path
            ~default:"out/profile.json"
    in
    Platform.export ~profile_path:path platform;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Continuously profile a canned stack: span-based flamegraph, tail \
          attribution, and the sampler timeline exported as profile JSON")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ period_us $ top_n $ out)

let top_cmd =
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"block ops per thread") in
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~doc:"client threads") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let period_us =
    Arg.(value & opt float 50.0
         & info [ "period-us" ] ~doc:"sampler period in microseconds")
  in
  let run conf ops threads seed period_us =
    let cfg = parse_run_config conf in
    let period_ns =
      if cfg.Runtime.Runtime.profile_period_ns > 0.0 then
        cfg.Runtime.Runtime.profile_period_ns
      else period_us *. 1000.0
    in
    let platform =
      Platform.boot ~nworkers:cfg.Runtime.Runtime.nworkers ~seed
        ~profile_period:period_ns ()
    in
    drive_obs_workload platform ~ops ~threads;
    match Runtime.Runtime.timeseries (Platform.runtime platform) with
    | None -> prerr_endline "profiling sampler not enabled"; exit 1
    | Some ts ->
        Printf.printf "%d series, %d ticks at %.1f us:\n"
          (List.length (Obs.Timeseries.series_names ts))
          (Obs.Timeseries.ticks ts) (period_ns /. 1e3);
        print_value_table
          (List.map
             (fun (s : Obs.Timeseries.stat) ->
               ( s.Obs.Timeseries.st_name,
                 Printf.sprintf "mean %10.2f   max %10.2f   last %10.2f"
                   s.Obs.Timeseries.st_mean s.Obs.Timeseries.st_max
                   s.Obs.Timeseries.st_last ))
             (Obs.Timeseries.stats ts))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Drive a canned stack with the continuous-profiling sampler on and \
          summarize every utilization/occupancy series")
    Term.(const run $ conf_pos $ ops $ threads $ seed $ period_us)

(* ---------------- mods ---------------- *)

let mods_cmd =
  let run () =
    let platform = Platform.boot ~devices:[ Device.Profile.Nvme; Device.Profile.Pmem ] () in
    let reg = Runtime.Runtime.registry (Platform.runtime platform) in
    let names = List.sort compare (Core.Registry.factory_names reg) in
    Printf.printf "%d installed LabMod implementations:\n" (List.length names);
    List.iter
      (fun name ->
        match Core.Registry.find_factory reg name with
        | Some f ->
            let probe = f ~uuid:"__probe__" ~attrs:[] in
            Printf.printf "  %-24s %s\n" name
              (Core.Labmod.mod_type_name probe.Core.Labmod.mod_type)
        | None -> ())
      names
  in
  Cmd.v (Cmd.info "mods" ~doc:"List the stock LabMod implementations") Term.(const run $ const ())

(* ---------------- qos ---------------- *)

(* Multi-tenant QoS demo: N metered tenants driving 16 KiB reads
   (latency-class) share a blkswitch_sched stack with an optional
   misbehaving tenant hammering 20 KiB writes through the DRR window
   under a token-bucket cap. Prints the per-tenant QoS report the
   runtime keeps: admission, dispatch class split, and latency. *)

let qos_stack_spec =
  {|
mount: "blk::/qos"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let qos_cmd =
  let tenants = Arg.(value & opt int 8 & info [ "tenants" ] ~doc:"well-behaved tenants") in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"reads per tenant") in
  let noisy = Arg.(value & flag & info [ "noisy" ] ~doc:"add a misbehaving bulk tenant (capped at 700 MB/s, qcap 32)") in
  let rate = Arg.(value & opt float 700.0 & info [ "rate" ] ~doc:"noisy tenant's token-bucket rate (MB/s)") in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"simulation seed") in
  let run tenants ops noisy rate seed =
    let n = Stdlib.max 1 tenants in
    let platform = Platform.boot ~nworkers:4 ~seed () in
    (match Platform.mount platform qos_stack_spec with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "mount error: %s\n" e;
        exit 1);
    let machine = Platform.machine platform in
    let eng = machine.Sim.Machine.engine in
    for i = 0 to n - 1 do
      ignore (Platform.register_tenant platform ~uid:(2000 + i) ())
    done;
    if noisy then
      ignore
        (Platform.register_tenant platform ~uid:999 ~rate_mbps:rate
           ~burst_kb:64 ~qcap:32 ());
    let stop = ref false in
    Platform.go platform (fun () ->
        let finished = ref 0 in
        Sim.Engine.suspend (fun resume ->
            for i = 0 to n - 1 do
              Sim.Engine.spawn eng (fun () ->
                  let c =
                    Platform.client platform ~uid:(2000 + i) ~thread:(i mod 16) ()
                  in
                  Sim.Engine.wait (float_of_int i *. 10_000.0);
                  for k = 0 to ops - 1 do
                    ignore
                      (Runtime.Client.read_block c ~mount:"blk::/qos"
                         ~lba:((i * 16384) + (k * 32))
                         ~bytes:16384);
                    Sim.Engine.wait (10_000.0 *. float_of_int n)
                  done;
                  incr finished;
                  if !finished = n then begin
                    stop := true;
                    resume ()
                  end)
            done;
            if noisy then
              for j = 0 to 31 do
                Sim.Engine.spawn eng (fun () ->
                    let c =
                      Platform.client platform ~uid:999 ~thread:(16 + (j mod 4)) ()
                    in
                    let lba = ref (100_000_000 + (j * 1_000_000)) in
                    while not !stop do
                      ignore
                        (Runtime.Client.write_block c ~mount:"blk::/qos"
                           ~lba:!lba ~bytes:20480);
                      lba := !lba + 40
                    done)
              done));
    Printf.printf "QoS report after %.2f ms simulated (%d tenants%s):\n"
      (Platform.now platform /. 1e6)
      n
      (if noisy then " + 1 noisy" else "");
    let report uid label =
      match Platform.tenant_for platform ~uid with
      | None -> ()
      | Some tn ->
          let open Ipc.Tenant in
          print_counter_row label
            [
              ("ops", ops_done tn);
              ("KiB", bytes_done tn / 1024);
              ("bypass", bypassed tn);
              ("drr", dispatched tn);
              ("throttled", throttled tn);
            ]
            ~suffix:
              (Printf.sprintf ", p99=%.1fus"
                 (Obs.Hist.quantile (latency tn) 0.99 /. 1e3))
    in
    for i = 0 to Stdlib.min (n - 1) 7 do
      report (2000 + i) (Printf.sprintf "tenant %d" (2000 + i))
    done;
    if n > 8 then Printf.printf "  ... %d more well-behaved tenants\n" (n - 8);
    if noisy then report 999 "noisy 999"
  in
  Cmd.v
    (Cmd.info "qos"
       ~doc:"Drive metered tenants through the DRR-scheduled stack and print the per-tenant QoS report")
    Term.(const run $ tenants $ ops $ noisy $ rate $ seed)

(* ---------------- load ---------------- *)

(* Open-loop traffic report: fire a deterministic arrival process at
   the stack from Engine timers (offered load independent of completion
   rate) and print offered vs achieved rate, injection lag, and the
   CO-corrected vs naive latency percentiles side by side. Past the
   saturation knee the two columns diverge — that gap is the latency a
   closed-loop benchmark silently hides. *)

let load_stack_spec =
  {|
mount: "blk::/load"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

let load_cmd =
  let rate = Arg.(value & opt float 100.0 & info [ "rate" ] ~doc:"offered arrival rate (kops/s)") in
  let total = Arg.(value & opt int 2000 & info [ "total" ] ~doc:"arrivals to generate") in
  let process =
    Arg.(value & opt string "poisson"
         & info [ "process" ] ~doc:"arrival process: poisson | onoff | diurnal")
  in
  let injectors = Arg.(value & opt int 16 & info [ "injectors" ] ~doc:"concurrent open-loop senders") in
  let bytes = Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"read size per request") in
  let seed = Arg.(value & opt int 0x10AD & info [ "seed" ] ~doc:"simulation seed") in
  let slo_p99 =
    Arg.(value & opt float 0.0
         & info [ "slo-p99" ] ~doc:"SLO p99 target in us (0 = no SLO tracking)")
  in
  let run rate total process injectors bytes seed slo_p99 =
    let rate_ops_s = rate *. 1e3 in
    let proc =
      match process with
      | "poisson" -> Workloads.Load.Poisson { rate_ops_s }
      | "onoff" ->
          (* 60/40 duty cycle, 100µs windows: same nominal rate, bursty. *)
          Workloads.Load.On_off
            { rate_ops_s = rate_ops_s /. 0.6; on_ns = 60_000.0; off_ns = 40_000.0 }
      | "diurnal" ->
          Workloads.Load.Diurnal
            { mean_ops_s = rate_ops_s; amplitude = 0.5; period_ns = 1e7 }
      | p ->
          Printf.eprintf "unknown process %S (poisson | onoff | diurnal)\n" p;
          exit 1
    in
    let injectors = Stdlib.max 1 injectors in
    let platform =
      Platform.boot ~nworkers:4 ~worker_max_inflight:32 ~seed
        ~slo_p99_target_us:slo_p99 ()
    in
    (match Platform.mount platform load_stack_spec with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "mount error: %s\n" e;
        exit 1);
    let machine = Platform.machine platform in
    let res =
      Platform.go platform (fun () ->
          let clients =
            Array.init injectors (fun i ->
                Platform.client platform ~thread:(i mod 16) ())
          in
          let next = ref 0 in
          let spec =
            { Workloads.Load.default_spec with proc; seed; total; injectors }
          in
          Workloads.Load.run machine spec ~submit:(fun ~injector ~scheduled ->
              let lba = !next mod 131072 * 8 in
              incr next;
              match
                Runtime.Client.read_block clients.(injector)
                  ~scheduled_at:scheduled ~mount:"blk::/load" ~lba ~bytes
              with
              | Ok _ -> true
              | Error _ -> false))
    in
    let r = res.Workloads.Load.recorder in
    Printf.printf "open-loop %s load, %d arrivals, %d injectors, %d B reads:\n"
      process res.Workloads.Load.generated injectors bytes;
    print_value_table
      [
        ("offered", Printf.sprintf "%.1f kops/s" (res.Workloads.Load.offered_ops_s /. 1e3));
        ("achieved", Printf.sprintf "%.1f kops/s" (res.Workloads.Load.achieved_ops_s /. 1e3));
        ( "completed",
          Printf.sprintf "%d ok, %d failed, %d dropped, %d late"
            res.Workloads.Load.succeeded
            (res.Workloads.Load.completed - res.Workloads.Load.succeeded)
            res.Workloads.Load.dropped res.Workloads.Load.late );
        ( "inject lag",
          Printf.sprintf "mean %.1f us, max %.1f us"
            (Obs.Latrec.lag_mean_ns r /. 1e3)
            (Obs.Latrec.lag_max_ns r /. 1e3) );
        ("elapsed", Printf.sprintf "%.2f ms" (res.Workloads.Load.elapsed_ns /. 1e6));
      ];
    Printf.printf "  latency        CO-corrected      naive (closed-loop view)\n";
    List.iter
      (fun (label, q) ->
        let c = Obs.Latrec.corrected_quantile r q /. 1e3 in
        let nv = Obs.Latrec.naive_quantile r q /. 1e3 in
        Printf.printf "  %-9s %10.1f us %15.1f us   (%.2fx)\n" label c nv
          (c /. Stdlib.max 1e-9 nv))
      [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99); ("p99.9", 0.999) ];
    if slo_p99 > 0.0 then
      match Runtime.Runtime.slo (Platform.runtime platform) with
      | None -> ()
      | Some slo ->
          let open Obs.Latrec.Slo in
          Printf.printf
            "  SLO (p99 <= %.0f us): budget remaining %.1f%%, burn rate %.2fx\n"
            slo_p99
            (100.0 *. budget_remaining slo)
            (burn_rate slo)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Fire an open-loop arrival schedule at a stack and report CO-corrected vs naive latency")
    Term.(const run $ rate $ total $ process $ injectors $ bytes $ seed $ slo_p99)

let () =
  let info =
    Cmd.info "labstor_cli" ~version:"1.0.0"
      ~doc:"LabStor platform utilities (simulated deployment)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            validate_cmd; run_cmd; faults_cmd; lvm_cmd; cache_cmd; metrics_cmd;
            trace_cmd; exemplars_cmd; blackbox_cmd; profile_cmd; top_cmd;
            mods_cmd; qos_cmd; load_cmd;
          ]))
