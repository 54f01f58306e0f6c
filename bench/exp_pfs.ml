(* Figure 9(a) — A parallel filesystem over customized LabStacks.

   An OrangeFS-style PFS: a dedicated metadata server plus 4 data
   servers (stripe 64 KiB). The metadata server's local I/O stack is
   the variable: ext4 vs. LabFS-All (async, kernel-bypass) vs.
   LabFS-Min (sync, no permissions, fully decentralized). Data servers
   write to their devices directly and identically in all
   configurations. VPIC writes the dataset (scaled: 8 procs x 4 steps x
   4 MiB), BD-CATS reads it back. *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let procs = 8

let steps = 4

let bytes_per_proc_step = 4 * 1024 * 1024

let md_stack_spec exec =
  Printf.sprintf
    {|
mount: "md::/meta"
rules:
  exec_mode: %s
dag:
  - uuid: md-fs
    mod: labfs
    outputs: [md-sched]
  - uuid: md-sched
    mod: noop_sched
    outputs: [md-drv]
  - uuid: md-drv
    mod: kernel_driver
|}
    exec

(* Data servers: one device of [kind] each, written directly. *)
let data_ops machine kind nservers =
  let devs =
    Array.init nservers (fun _ ->
        Device.create machine.Machine.engine (Profile.of_kind kind))
  in
  {
    Lab_workloads.Pfs.srv_write =
      (fun ~server ~off ~bytes ->
        Device.submit_wait devs.(server) ~hctx:server ~kind:Device.Write
          ~lba:(off / 4096) ~bytes);
    srv_read =
      (fun ~server ~off ~bytes ->
        Device.submit_wait devs.(server) ~hctx:server ~kind:Device.Read
          ~lba:(off / 4096) ~bytes);
  }

(* Metadata backend A: kernel ext4 on the MD server's NVMe. *)
let run_kernel_md data_kind =
  let m = Machine.create ~ncores:24 () in
  let result = ref None in
  Machine.spawn m (fun () ->
      let md_dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m md_dev ~sched:Blk.Noop in
      let fs = Kfs.create_fs m blk ~flavor:Kfs.Ext4 in
      let counter = ref 0 in
      let md =
        {
          Lab_workloads.Pfs.md_create = (fun ~thread path -> Kfs.create fs ~thread path);
          (* dbpf keyval insert per stripe group: a journaled update. *)
          md_extend =
            (fun ~thread path ->
              incr counter;
              Kfs.create fs ~thread (Printf.sprintf "%s.map%d" path !counter));
          (* Read-path resolution is a dbpf/BerkeleyDB keyval get:
             btree walk + record fetch on top of the stat. *)
          md_lookup =
            (fun ~thread path ->
              ignore (Kfs.stat fs ~thread path);
              Machine.compute m ~thread 4000.0);
        }
      in
      let pfs = Lab_workloads.Pfs.create m md (data_ops m data_kind 4) in
      let w = Lab_workloads.Pfs.vpic pfs ~procs ~steps ~bytes_per_proc_step in
      let r = Lab_workloads.Pfs.bdcats pfs ~procs ~steps ~bytes_per_proc_step in
      result := Some (w, r));
  Machine.run m;
  Option.get !result

(* Metadata backends B/C: LabFS stacks on the MD server. *)
let run_lab_md exec data_kind =
  let platform = Platform.boot ~ncores:24 ~nworkers:4 () in
  ignore (Platform.mount_exn platform (md_stack_spec exec));
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let clients =
        Array.init procs (fun i -> Platform.client platform ~thread:i ())
      in
      let counter = ref 0 in
      let md =
        {
          Lab_workloads.Pfs.md_create =
            (fun ~thread path ->
              match Runtime.Client.create clients.(thread mod procs) ("md::/meta/" ^ path) with
              | Ok () -> ()
              | Error e -> failwith e);
          md_extend =
            (fun ~thread path ->
              incr counter;
              ignore
                (Runtime.Client.create
                   clients.(thread mod procs)
                   (Printf.sprintf "md::/meta/%s.map%d" path !counter)));
          md_lookup =
            (fun ~thread path ->
              ignore (Runtime.Client.stat clients.(thread mod procs) ("md::/meta/" ^ path)));
        }
      in
      let pfs = Lab_workloads.Pfs.create m md (data_ops m data_kind 4) in
      let w = Lab_workloads.Pfs.vpic pfs ~procs ~steps ~bytes_per_proc_step in
      let r = Lab_workloads.Pfs.bdcats pfs ~procs ~steps ~bytes_per_proc_step in
      (w, r))

let run () =
  Bench_util.heading "fig9a"
    "PFS over custom stacks: VPIC write / BD-CATS read bandwidth (MiB/s)";
  let data_kinds = [ Profile.Hdd; Profile.Sata_ssd; Profile.Nvme ] in
  let systems =
    [
      ("ext4-md", fun k -> run_kernel_md k);
      ("LabFS-All-md", fun k -> run_lab_md "async" k);
      ("LabFS-Min-md", fun k -> run_lab_md "sync" k);
    ]
  in
  List.iter
    (fun kind ->
      Printf.printf "\ndata servers on %s:\n" (Profile.kind_to_string kind);
      Bench_util.print_table [ 14; 14; 14; 10 ]
        [ "md backend"; "VPIC MiB/s"; "BD-CATS MiB/s"; "md ops" ]
        (List.map
           (fun (name, f) ->
             let w, r = f kind in
             [
               name;
               Bench_util.f1 w.Lab_workloads.Pfs.bandwidth_mib_s;
               Bench_util.f1 r.Lab_workloads.Pfs.bandwidth_mib_s;
               string_of_int (w.Lab_workloads.Pfs.md_ops + r.Lab_workloads.Pfs.md_ops);
             ])
           systems))
    data_kinds;
  Bench_util.note
    "paper shape: +6-12%% end-to-end on SSD/NVMe data servers from the faster";
  Bench_util.note
    "metadata server (kernel-bypass, reduced permissions); on HDD the I/O cost";
  Bench_util.note "swamps the metadata gain."
