(* Figure 7 — Metadata throughput (FxMark file-creation stress).

   LabFS in three configurations against ext4/XFS/F2FS, client threads
   1..24, 16 Runtime workers:
     LabFS-All  = permissions + LabFS, asynchronous execution
     LabFS-Min  = LabFS, asynchronous execution (no permission checks)
     LabFS-D    = LabFS, synchronous execution (no central authority)

   Claims: LabFS-All at least 3x ext4 at one thread, every kernel
   filesystem lower at 24 threads than at its own peak, and LabFS-D the
   highest column at every thread count. *)

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
  (* [rows] is [(threads, [(system, ops/s)])]. *)
  let rows =
    List.map
      (fun n -> (n, List.map (fun (name, f) -> (name, f n)) systems))
      thread_counts
  in
  let widths = 9 :: List.map (fun _ -> 10 ) systems in
  Bench_util.print_table widths
    ("threads" :: List.map fst systems)
    (List.map
       (fun (n, rates) ->
         string_of_int n :: List.map (fun (_, r) -> Bench_util.kops r) rates)
       rows);
  Bench_util.note
    "paper shape: LabFS up to ~3x single-threaded, keeps scaling (hashmap +";
  Bench_util.note
    "per-worker allocator); -Min ~ +7%% over -All; -D ~ +20%% more (no IPC);";
  Bench_util.note "kernel filesystems plateau on directory/journal locks.";
  let rate n sys = List.assoc sys (List.assoc n rows) in
  let all1 = rate 1 "LabFS-All" and ext4_1 = rate 1 "ext4" in
  Bench_util.claim "fig7.labfs_all_ge_3x_ext4_1_thread" (all1 >= 3.0 *. ext4_1)
    "1 thread: LabFS-All %.2fx ext4 (bound 3x)" (all1 /. ext4_1);
  List.iter
    (fun fs ->
      let peak =
        List.fold_left (fun acc n -> Float.max acc (rate n fs)) 0.0 thread_counts
      in
      Bench_util.claim
        (Printf.sprintf "fig7.%s_24_threads_below_peak" fs)
        (rate 24 fs < peak) "%s at 24 threads %.1fk, not below its peak %.1fk"
        fs (rate 24 fs /. 1e3) (peak /. 1e3))
    [ "ext4"; "xfs"; "f2fs" ];
  List.iter
    (fun (n, rates) ->
      let d = List.assoc "LabFS-D" rates in
      let top =
        List.fold_left
          (fun acc (sys, r) -> if sys = "LabFS-D" then acc else Float.max acc r)
          0.0 rates
      in
      Bench_util.claim "fig7.labfs_d_highest" (d > top)
        "%d threads: LabFS-D %.1fk, not above the next column %.1fk" n
        (d /. 1e3) (top /. 1e3))
    rows
