(* Figure 7 — Metadata throughput (FxMark file-creation stress).

   LabFS in three configurations against ext4/XFS/F2FS, client threads
   1..24, 16 Runtime workers:
     LabFS-All  = permissions + LabFS, asynchronous execution
     LabFS-Min  = LabFS, asynchronous execution (no permission checks)
     LabFS-D    = LabFS, synchronous execution (no central authority) *)

open Labstor
open Lab_device
open Lab_kernel

let files_per_thread = 400

let thread_counts = [ 1; 2; 4; 8; 16; 24 ]

let kfs_rate flavor nthreads =
  let m = Sim.Machine.create ~ncores:48 () in
  let result = ref None in
  Sim.Machine.spawn m (fun () ->
      let dev = Device.create m.Sim.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let fs = Kfs.create_fs m blk ~flavor in
      let r =
        Lab_workloads.Fxmark.run_create m ~nthreads ~files_per_thread
          ~shared_dir:true
          (Lab_workloads.Adapters.kfs_fxmark fs)
      in
      result := Some r.Lab_workloads.Fxmark.ops_per_sec);
  Sim.Machine.run m;
  Option.get !result

let lab_spec ~perms ~exec =
  Printf.sprintf
    {|
mount: "fs::/fx"
rules:
  exec_mode: %s
dag:
%s  - uuid: fx-fs
    mod: labfs
    outputs: [fx-sched]
  - uuid: fx-sched
    mod: noop_sched
    outputs: [fx-drv]
  - uuid: fx-drv
    mod: kernel_driver
|}
    exec
    (if perms then "  - uuid: fx-perm\n    mod: permissions\n    outputs: [fx-fs]\n"
     else "")

let lab_rate ~perms ~exec nthreads =
  let platform = Platform.boot ~ncores:48 ~nworkers:16 () in
  ignore (Platform.mount_exn platform (lab_spec ~perms ~exec));
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      (* One client per application thread. *)
      let clients =
        Array.init nthreads (fun i -> Platform.client platform ~thread:i ())
      in
      let ops =
        {
          Lab_workloads.Fxmark.create =
            (fun ~thread path ->
              match Runtime.Client.create clients.(thread) ("fs::/fx" ^ path) with
              | Ok () -> ()
              | Error e -> failwith e);
          unlink =
            (fun ~thread path ->
              ignore (Runtime.Client.unlink clients.(thread) ("fs::/fx" ^ path)));
          rename =
            (fun ~thread ~src ~dst ->
              ignore
                (Runtime.Client.rename clients.(thread) ~src:("fs::/fx" ^ src)
                   ~dst:("fs::/fx" ^ dst)));
        }
      in
      let r =
        Lab_workloads.Fxmark.run_create m ~nthreads ~files_per_thread
          ~shared_dir:true ops
      in
      r.Lab_workloads.Fxmark.ops_per_sec)

let run () =
  Bench_util.heading "fig7"
    "Metadata throughput: shared-directory creates (kops/s) vs. client threads";
  let systems =
    [
      ("LabFS-All", fun n -> lab_rate ~perms:true ~exec:"async" n);
      ("LabFS-Min", fun n -> lab_rate ~perms:false ~exec:"async" n);
      ("LabFS-D", fun n -> lab_rate ~perms:false ~exec:"sync" n);
      ("ext4", kfs_rate Kfs.Ext4);
      ("xfs", kfs_rate Kfs.Xfs);
      ("f2fs", kfs_rate Kfs.F2fs);
    ]
  in
  let widths = 9 :: List.map (fun _ -> 10 ) systems in
  Bench_util.print_table widths
    ("threads" :: List.map fst systems)
    (List.map
       (fun n ->
         string_of_int n
         :: List.map (fun (_, f) -> Bench_util.kops (f n)) systems)
       thread_counts);
  Bench_util.note
    "paper shape: LabFS up to ~3x single-threaded, keeps scaling (hashmap +";
  Bench_util.note
    "per-worker allocator); -Min ~ +7%% over -All; -D ~ +20%% more (no IPC);";
  Bench_util.note "kernel filesystems plateau on directory/journal locks."
