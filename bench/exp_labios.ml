(* Figure 9(b) — LABIOS distributed object store.

   LABIOS workers persist 8 KiB labels. Classical backends translate a
   label to a UNIX file: fopen/fseek/fwrite/fclose on a kernel
   filesystem. LabKVS persists a label with a single put; three
   configurations mirror the paper: Centralized+Permissions,
   Centralized, and Minimal (synchronous, relaxed access control).
   Repeated over NVMe and emulated PMEM. *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let labels = 2000

let kvs_spec ~perms ~exec =
  Printf.sprintf
    {|
mount: "labios::/labels"
rules:
  exec_mode: %s
dag:
%s  - uuid: lb-kvs
    mod: labkvs
    outputs: [lb-sched]
  - uuid: lb-sched
    mod: noop_sched
    outputs: [lb-drv]
  - uuid: lb-drv
    mod: kernel_driver
|}
    exec
    (if perms then "  - uuid: lb-perm\n    mod: permissions\n    outputs: [lb-kvs]\n"
     else "")

let kernel_backend_rate flavor kind =
  let m = Machine.create ~ncores:8 () in
  let result = ref None in
  Machine.spawn m (fun () ->
      let dev = Device.create m.Machine.engine (Profile.of_kind kind) in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let fs = Kfs.create_fs m blk ~flavor in
      let r =
        Lab_workloads.Labios.run_worker m
          (Lab_workloads.Adapters.labios_file_backend_kfs fs)
          ~labels_per_thread:labels ()
      in
      result := Some r.Lab_workloads.Labios.labels_per_sec);
  Machine.run m;
  Option.get !result

let labkvs_rate ~perms ~exec kind =
  let platform = Platform.boot ~nworkers:1 ~devices:[ kind ] () in
  ignore (Platform.mount_exn platform (kvs_spec ~perms ~exec));
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let client = Platform.client platform ~thread:0 () in
      let r =
        Lab_workloads.Labios.run_worker m
          (Lab_workloads.Adapters.labios_kvs_backend client)
          ~labels_per_thread:labels ()
      in
      r.Lab_workloads.Labios.labels_per_sec)

(* Bonus (beyond the paper): YCSB core mixes against LabKVS
   configurations on NVMe — the standard KVS methodology applied to the
   paper's store. *)
(* The YCSB stack adds an LRU cache below LabKVS (values are re-read
   hot), unlike the write-only LABIOS stack above. *)
let ycsb_spec ~perms ~exec =
  Printf.sprintf
    {|
mount: "labios::/labels"
rules:
  exec_mode: %s
dag:
%s  - uuid: yb-kvs
    mod: labkvs
    outputs: [yb-cache]
  - uuid: yb-cache
    mod: lru_cache
    attrs:
      capacity_mb: 64
    outputs: [yb-sched]
  - uuid: yb-sched
    mod: noop_sched
    outputs: [yb-drv]
  - uuid: yb-drv
    mod: kernel_driver
|}
    exec
    (if perms then "  - uuid: yb-perm\n    mod: permissions\n    outputs: [yb-kvs]\n"
     else "")

let ycsb_row mix =
  let run_cfg ~perms ~exec =
    let platform = Platform.boot ~nworkers:4 () in
    ignore (Platform.mount_exn platform (ycsb_spec ~perms ~exec));
    Platform.go platform (fun () ->
        let m = Platform.machine platform in
        let clients =
          Array.init 4 (fun i -> Platform.client platform ~thread:i ())
        in
        let ops =
          {
            Lab_workloads.Ycsb.put =
              (fun ~thread ~key ~bytes ->
                ignore
                  (Runtime.Client.put clients.(thread mod 4)
                     ~key:("labios::/labels/" ^ key) ~bytes));
            get =
              (fun ~thread ~key ->
                ignore
                  (Runtime.Client.get clients.(thread mod 4)
                     ~key:("labios::/labels/" ^ key)));
          }
        in
        let r = Lab_workloads.Ycsb.run m mix ops in
        ( r.Lab_workloads.Ycsb.ops_per_sec,
          Sim.Stats.percentile r.Lab_workloads.Ycsb.read_latency 99.0 ))
  in
  let all_rate, _ = run_cfg ~perms:true ~exec:"async" in
  let min_rate, p99 = run_cfg ~perms:false ~exec:"sync" in
  [
    "YCSB-" ^ Lab_workloads.Ycsb.mix_name mix;
    Bench_util.kops all_rate;
    Bench_util.kops min_rate;
    Bench_util.f1 (p99 /. 1e3);
  ]

let run_ycsb () =
  Printf.printf "\nbonus: YCSB core mixes on LabKVS (NVMe, 4 threads)\n";
  Bench_util.print_table [ 10; 14; 14; 17 ]
    [ "mix"; "+Perm kops"; "Min kops"; "Min read p99(us)" ]
    (List.map ycsb_row Lab_workloads.Ycsb.all)

let run () =
  Bench_util.heading "fig9b"
    (Printf.sprintf "LABIOS workers: %d x 8 KiB label writes (labels/s)" labels);
  let systems =
    [
      ("ext4", fun k -> kernel_backend_rate Kfs.Ext4 k);
      ("xfs", fun k -> kernel_backend_rate Kfs.Xfs k);
      ("f2fs", fun k -> kernel_backend_rate Kfs.F2fs k);
      ("LabKVS+Perm", fun k -> labkvs_rate ~perms:true ~exec:"async" k);
      ("LabKVS", fun k -> labkvs_rate ~perms:false ~exec:"async" k);
      ("LabKVS-Min", fun k -> labkvs_rate ~perms:false ~exec:"sync" k);
    ]
  in
  Bench_util.print_table [ 8; 12; 12; 12; 13; 12; 12 ]
    ("dev" :: List.map fst systems)
    (List.map
       (fun kind ->
         Profile.kind_to_string kind
         :: List.map (fun (_, f) -> Bench_util.kops (f kind)) systems)
       [ Profile.Nvme; Profile.Pmem ]);
  Bench_util.note
    "paper shape: filesystems lose >=12%% to LabKVS (4 calls vs. 1 per label);";
  Bench_util.note "relaxing access control buys up to another ~16%%.";
  run_ycsb ()
