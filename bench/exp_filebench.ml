(* Figure 9(c) — Filebench application workloads.

   varmail / webserver / webproxy / fileserver over NVMe: kernel
   filesystems vs. three LabFS stacks (All = permissions + LRU + NoOp +
   driver, async; Min = without permissions; D = synchronous). 8
   application threads, 8 Runtime workers. *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let nthreads = 8

let iterations = 25

let lab_spec ~perms ~exec =
  Printf.sprintf
    {|
mount: "fs::/fb"
rules:
  exec_mode: %s
dag:
%s  - uuid: fb-fs
    mod: labfs
    outputs: [fb-lru]
  - uuid: fb-lru
    mod: lru_cache
    attrs:
      capacity_mb: 256
    outputs: [fb-sched]
  - uuid: fb-sched
    mod: noop_sched
    outputs: [fb-drv]
  - uuid: fb-drv
    mod: kernel_driver
|}
    exec
    (if perms then "  - uuid: fb-perm\n    mod: permissions\n    outputs: [fb-fs]\n"
     else "")

let kernel_rate flavor personality =
  let m = Machine.create ~ncores:24 () in
  let result = ref None in
  Machine.spawn m (fun () ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let fs = Kfs.create_fs m blk ~flavor in
      let r =
        Lab_workloads.Filebench.run m personality ~nthreads ~iterations
          (Lab_workloads.Adapters.kfs_filebench fs)
      in
      result := Some r.Lab_workloads.Filebench.ops_per_sec);
  Machine.run m;
  Option.get !result

let lab_rate ~perms ~exec personality =
  let platform = Platform.boot ~ncores:24 ~nworkers:8 () in
  ignore (Platform.mount_exn platform (lab_spec ~perms ~exec));
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      (* One client (and thus one queue pair) per application thread. *)
      let per_thread =
        Array.init nthreads (fun i ->
            Lab_workloads.Adapters.client_filebench
              (Platform.client platform ~thread:i ())
              ~prefix:"fs::/fb")
      in
      let dispatch f = fun ~thread -> f per_thread.(thread mod nthreads) ~thread in
      let ops =
        {
          Lab_workloads.Filebench.create =
            dispatch (fun a -> a.Lab_workloads.Filebench.create);
          write = dispatch (fun a -> a.Lab_workloads.Filebench.write);
          read = dispatch (fun a -> a.Lab_workloads.Filebench.read);
          fsync = dispatch (fun a -> a.Lab_workloads.Filebench.fsync);
          delete = dispatch (fun a -> a.Lab_workloads.Filebench.delete);
          open_ = dispatch (fun a -> a.Lab_workloads.Filebench.open_);
          close = dispatch (fun a -> a.Lab_workloads.Filebench.close);
        }
      in
      let r = Lab_workloads.Filebench.run m personality ~nthreads ~iterations ops in
      r.Lab_workloads.Filebench.ops_per_sec)

let run () =
  Bench_util.heading "fig9c"
    "Filebench on NVMe: personality throughput (kops/s)";
  let systems =
    [
      ("ext4", fun p -> kernel_rate Kfs.Ext4 p);
      ("xfs", fun p -> kernel_rate Kfs.Xfs p);
      ("f2fs", fun p -> kernel_rate Kfs.F2fs p);
      ("LabFS-All", fun p -> lab_rate ~perms:true ~exec:"async" p);
      ("LabFS-Min", fun p -> lab_rate ~perms:false ~exec:"async" p);
      ("LabFS-D", fun p -> lab_rate ~perms:false ~exec:"sync" p);
    ]
  in
  Bench_util.print_table [ 12; 10; 10; 10; 11; 11; 10 ]
    ("workload" :: List.map fst systems)
    (List.map
       (fun p ->
         Lab_workloads.Filebench.personality_name p
         :: List.map (fun (_, f) -> Bench_util.kops (f p)) systems)
       Lab_workloads.Filebench.all);
  Bench_util.note
    "paper shape: LabFS stacks up to ~2.5x on metadata-heavy personalities";
  Bench_util.note
    "(varmail/webserver/webproxy); fileserver is large-I/O dominated and roughly";
  Bench_util.note "at parity."
