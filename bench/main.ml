(* LabStor reproduction benchmark harness.

   Each subcommand regenerates one table/figure of the paper's
   evaluation (see DESIGN.md's experiment index); no argument runs all
   of them in order. `micro` runs Bechamel microbenchmarks of the core
   data structures. Every claim that failed is named on stderr once the
   run ends, and the exit status is then 1. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("anatomy", "Fig 4(a): I/O stack anatomy", Exp_anatomy.run);
    ("upgrade", "Table I: live upgrade cost", Exp_upgrade.run);
    ("orchestrator-cpu", "Fig 5(a): dynamic CPU allocation", Exp_orch_cpu.run);
    ( "orchestrator-partition",
      "Fig 5(b): request partitioning",
      Exp_orch_partition.run );
    ("storage-api", "Fig 6: storage interface performance", Exp_storage_api.run);
    ("metadata", "Fig 7: metadata throughput", Exp_metadata.run);
    ("schedulers", "Fig 8 + Table II: I/O schedulers", Exp_schedulers.run);
    ("pfs", "Fig 9(a): PFS over custom stacks", Exp_pfs.run);
    ("labios", "Fig 9(b): LABIOS object store", Exp_labios.run);
    ("filebench", "Fig 9(c): Filebench workloads", Exp_filebench.run);
    ("ablate", "Ablations: cost sensitivity & design choices", Exp_ablate.run);
    ( "faults",
      "Robustness: fault injection, retry & degraded mode",
      Exp_faults.run );
    ( "batching",
      "Batched submission: doorbells, batch dequeue, merging",
      Exp_batching.run );
    ( "cache",
      "Sharded cache: readahead, coalesced write-back",
      Exp_cache.run );
    ( "anatomy2",
      "Latency anatomy measured from request-lifecycle spans",
      Exp_anatomy2.run );
    ( "profile",
      "Continuous profiling: utilization timelines & bottleneck attribution",
      Exp_profile.run );
    ( "lvm",
      "Volume manager: mirrored redundancy, degraded mode & online rebuild",
      Exp_lvm.run );
    ( "sim",
      "Simulator core: events/sec and allocation-free hot path",
      Exp_sim.run );
    ( "qos",
      "Multi-tenant QoS: O(1) DRR dispatch and noisy-neighbor isolation",
      Exp_qos.run );
    ( "load",
      "Open-loop offered-rate sweep: CO-safe throughput-vs-p99 knee curves",
      Exp_load.run );
    ( "exemplars",
      "Tail exemplar capture + flight recorder: neutrality, coverage, dumps",
      Exp_exemplars.run );
  ]

let usage () =
  print_endline "usage: main.exe [experiment|all|micro] [--smoke]";
  print_endline "experiments:";
  List.iter (fun (name, desc, _) -> Printf.printf "  %-24s %s\n" name desc)
    experiments;
  Printf.printf "  %-24s %s\n" "micro" "Bechamel microbenchmarks of core structures"

let run_all () =
  List.iter
    (fun (_, _, f) ->
      f ();
      flush stdout)
    experiments

(* Every claim that failed in the experiments just run, one line each
   on stderr, then exit 1. *)
let report_claims () =
  flush stdout;
  let failed = Bench_util.failed_claims () in
  List.iter
    (fun (name, detail) -> Printf.eprintf "CLAIM FAILED %s: %s\n" name detail)
    failed;
  if failed <> [] then exit 1

let () =
  (* --smoke anywhere on the command line shrinks every workload. *)
  let args = List.tl (Array.to_list Sys.argv) in
  Bench_util.force_smoke := List.mem "--smoke" args;
  (match List.filter (( <> ) "--smoke") args with
  | [] | [ "all" ] -> run_all ()
  | [ "micro" ] -> Micro.run ()
  | [ name ] -> (
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, f) -> f ()
      | None ->
          usage ();
          exit 1)
  | _ ->
      usage ();
      exit 1);
  report_claims ()
