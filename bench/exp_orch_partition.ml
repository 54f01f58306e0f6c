(* Figure 5(b) — Work orchestration: request partitioning.

   Two LabStacks share the Runtime: L (latency-sensitive metadata:
   per-thread file creates) and C (compressor: 32 MiB writes through a
   Compression LabMod, ~20 ms CPU each). 4 L-threads and 4 C-threads
   (scaled from the paper's 8+8); Runtime workers swept 1..8.
   Round-robin placement mixes the classes on the same workers
   (head-of-line blocking); the dynamic policy separates them. *)

open Labstor

let l_spec =
  {|
mount: "fs::/l"
dag:
  - uuid: p-lfs
    mod: labfs
    outputs: [p-lsched]
  - uuid: p-lsched
    mod: noop_sched
    outputs: [p-ldrv]
  - uuid: p-ldrv
    mod: kernel_driver
|}

let c_spec =
  {|
mount: "fs::/c"
dag:
  - uuid: p-cfs
    mod: labfs
    outputs: [p-cz]
  - uuid: p-cz
    mod: compress
    outputs: [p-csched]
  - uuid: p-csched
    mod: noop_sched
    outputs: [p-cdrv]
  - uuid: p-cdrv
    mod: kernel_driver
|}

let n_l = 4

let n_c = 4

let creates_per_l = 250

let writes_per_c = 4

let c_write_bytes = 32 * 1024 * 1024

let run_config nworkers policy =
  let platform = Platform.boot ~ncores:24 ~nworkers ~policy () in
  ignore (Platform.mount_exn platform l_spec);
  ignore (Platform.mount_exn platform c_spec);
  let lat = Obs.Hist.create () in
  let c_bytes = ref 0 in
  let c_elapsed = ref 0.0 in
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let all_done = Sim.Engine.join (n_l + n_c) in
      for cw = 0 to n_c - 1 do
        Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:(8 + cw) () in
            let t0 = Platform.now platform in
            for i = 1 to writes_per_c do
              let path = Printf.sprintf "fs::/c/b%d-%d" cw i in
              ignore (Runtime.Client.create c path);
              (match Runtime.Client.open_file c path with
              | Ok fd ->
                  ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:c_write_bytes);
                  ignore (Runtime.Client.close c fd)
              | Error e -> failwith e);
              c_bytes := !c_bytes + c_write_bytes
            done;
            c_elapsed := Float.max !c_elapsed (Platform.now platform -. t0);
            Sim.Engine.arrive all_done)
      done;
      for lw = 0 to n_l - 1 do
        Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:lw () in
            (* Warm-up so queue service estimates exist. *)
            for i = 1 to 20 do
              ignore (Runtime.Client.create c (Printf.sprintf "fs::/l/w%d-%d" lw i))
            done;
            Sim.Engine.wait 60e6;  (* past the classification transient *)
            for i = 1 to creates_per_l do
              let t0 = Platform.now platform in
              ignore (Runtime.Client.create c (Printf.sprintf "fs::/l/f%d-%d" lw i));
              Obs.Hist.observe lat (Platform.now platform -. t0);
              Sim.Engine.wait 50_000.0
            done;
            Sim.Engine.arrive all_done)
      done;
      Sim.Engine.await all_done);
  let bw = float_of_int !c_bytes /. (!c_elapsed /. 1e9) /. (1024.0 *. 1024.0) in
  (Obs.Hist.mean lat, bw)

let run () =
  Bench_util.heading "fig5b"
    "Request partitioning: L-App latency / C-App bandwidth vs. workers";
  let rows =
    List.map
      (fun nworkers ->
        let rr_lat, rr_bw = run_config nworkers (Runtime.Orchestrator.Round_robin nworkers) in
        let dy_lat, dy_bw =
          run_config nworkers
            (Runtime.Orchestrator.Dynamic
               { max_workers = nworkers; threshold = 0.2; lq_cutoff_ns = 1e6 })
        in
        [
          string_of_int nworkers;
          Printf.sprintf "%.0f" (rr_lat /. 1e3);
          Printf.sprintf "%.0f" rr_bw;
          Printf.sprintf "%.0f" (dy_lat /. 1e3);
          Printf.sprintf "%.0f" dy_bw;
        ])
      [ 1; 2; 4; 8 ]
  in
  Bench_util.print_table [ 8; 14; 14; 14; 14 ]
    [ "workers"; "RR lat(us)"; "RR BW(MiB/s)"; "dyn lat(us)"; "dyn BW(MiB/s)" ]
    rows;
  Bench_util.note
    "paper shape: RR has the highest bandwidth but ruins L-App latency (waits";
  Bench_util.note
    "behind 20 ms compressions); dynamic cuts latency by orders of magnitude at";
  Bench_util.note "a bandwidth cost that shrinks from ~30%% to ~6%% as workers grow."
