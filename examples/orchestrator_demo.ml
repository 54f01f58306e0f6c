(* Work orchestration: latency-sensitive metadata apps and
   compression-heavy bulk writers share one Runtime with fewer workers
   than queues. Round-robin queue placement puts 20 ms compressions and
   3 us creates on the same workers (head-of-line blocking); the dynamic
   policy classifies queues by expected processing time and gives each
   class dedicated workers — the Figure 5(b) effect.

   Run with: dune exec examples/orchestrator_demo.exe *)

open Labstor

let l_spec =
  {|
mount: "fs::/meta"
dag:
  - uuid: l-fs
    mod: labfs
    outputs: [l-sched]
  - uuid: l-sched
    mod: noop_sched
    outputs: [l-drv]
  - uuid: l-drv
    mod: kernel_driver
|}

let c_spec =
  {|
mount: "fs::/bulk"
dag:
  - uuid: c-fs
    mod: labfs
    outputs: [c-z]
  - uuid: c-z
    mod: compress
    outputs: [c-sched]
  - uuid: c-sched
    mod: noop_sched
    outputs: [c-drv]
  - uuid: c-drv
    mod: kernel_driver
|}

let n_l_clients = 2

let n_c_clients = 2

let run_with policy label =
  let platform = Platform.boot ~nworkers:2 ~policy () in
  ignore (Platform.mount_exn platform l_spec);
  ignore (Platform.mount_exn platform c_spec);
  let lat = Obs.Hist.create () in
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let all_done = Sim.Engine.join (n_l_clients + n_c_clients) in
      (* Bulk writers: a stream of 32 MiB compressed writes. *)
      for cw = 1 to n_c_clients do
        Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:cw () in
            for i = 1 to 6 do
              let path = Printf.sprintf "fs::/bulk/c%d-big%d" cw i in
              ignore (Runtime.Client.create c path);
              match Runtime.Client.open_file c path with
              | Ok fd ->
                  ignore
                    (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:(32 * 1024 * 1024));
                  ignore (Runtime.Client.close c fd)
              | Error e -> failwith e
            done;
            Sim.Engine.arrive all_done)
      done;
      (* Metadata apps: creates paced through the bulk phase; warm
         up first so the orchestrator has service-time estimates. *)
      for lw = 1 to n_l_clients do
        Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:(10 + lw) () in
            for i = 1 to 20 do
              ignore
                (Runtime.Client.create c (Printf.sprintf "fs::/meta/w%d-%d" lw i))
            done;
            Sim.Engine.wait 30e6;  (* past the first rebalance epochs *)
            for i = 1 to 200 do
              let t0 = Platform.now platform in
              ignore
                (Runtime.Client.create c (Printf.sprintf "fs::/meta/f%d-%d" lw i));
              Obs.Hist.observe lat (Platform.now platform -. t0);
              Sim.Engine.wait 100_000.0
            done;
            Sim.Engine.arrive all_done)
      done;
      Sim.Engine.await all_done);
  Printf.printf "%-12s metadata latency: avg %8.1f us   p99 %8.1f us\n" label
    (Obs.Hist.mean lat /. 1e3)
    (Obs.Hist.quantile lat 0.99 /. 1e3)

let () =
  Printf.printf
    "colocated: %d L-Apps (creates) + %d C-Apps (32 MiB compressed writes) on 2 workers\n"
    n_l_clients n_c_clients;
  run_with (Runtime.Orchestrator.Round_robin 2) "round-robin";
  run_with
    (Runtime.Orchestrator.Dynamic
       { max_workers = 2; threshold = 0.2; lq_cutoff_ns = 1_000_000.0 })
    "dynamic";
  print_endline
    "dynamic orchestration isolates latency-sensitive queues from 20 ms compressions"
