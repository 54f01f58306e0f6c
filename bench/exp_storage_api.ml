(* Figure 6 — Storage interface performance.

   Compares kernel I/O APIs (POSIX pwrite, POSIX AIO, libaio, io_uring)
   against LabStor's Driver LabMods (Kernel Driver, SPDK, DAX) on every
   device class, for 4 KiB and 128 KiB random writes, single thread,
   direct I/O. IOPS are reported raw and normalized to POSIX, as in the
   paper. *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let make_machine () = Machine.create ~ncores:8 ()

let run_fio machine ~bytes ~total target =
  let job =
    {
      Lab_workloads.Fio.default_job with
      Lab_workloads.Fio.pattern = Lab_workloads.Fio.Randwrite;
      block_bytes = bytes;
      total_bytes_per_thread = total;
      nthreads = 1;
    }
  in
  (Lab_workloads.Fio.run machine job target).Lab_workloads.Fio.iops

let in_sim f =
  let m = make_machine () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  Option.get !result

let dev_kind_of = function
  | Core.Request.Read -> Device.Read
  | Core.Request.Write -> Device.Write

(* Kernel API path. *)
let api_iops kind api ~bytes ~total =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine (Profile.of_kind kind) in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let t = Api.create m blk in
      let target =
        Lab_workloads.Fio.target_of_submit (fun ~thread ~kind ~off ~bytes ->
            Api.submit_wait t ~api ~thread ~kind:(dev_kind_of kind) ~off ~bytes)
      in
      run_fio m ~bytes ~total target)

(* LabStor driver LabMod, executed client-side (Lab-D style): the
   paper's storage-interface stacks contain only the driver. *)
let driver_iops kind which ~bytes ~total =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine (Profile.of_kind kind) in
      let labmod =
        match which with
        | `Kernel_driver ->
            let blk = Blk.create m dev ~sched:Blk.Noop in
            Mods.Kernel_driver.factory ~blk ~uuid:"drv" ~attrs:[]
        | `Spdk -> Mods.Spdk_driver.factory ~device:dev ~uuid:"drv" ~attrs:[]
        | `Dax -> Mods.Dax_driver.factory ~device:dev ~uuid:"drv" ~attrs:[]
      in
      let ctx thread =
        {
          Core.Labmod.machine = m;
          thread;
          forward = (fun _ -> Core.Request.Done);
          forward_async = (fun _ _ -> ());
        }
      in
      let counter = ref 0 in
      let target =
        Lab_workloads.Fio.target_of_submit (fun ~thread ~kind ~off ~bytes ->
            incr counter;
            let req =
              Core.Request.make ~id:!counter ~pid:1 ~uid:0 ~thread ~stack_id:0
                ~now:(Machine.now m)
                (Core.Request.Block
                   {
                     Core.Request.b_kind = kind;
                     b_lba = off / 4096;
                     b_bytes = bytes;
                     b_sync = false;
                   })
            in
            ignore (labmod.Core.Labmod.ops.Core.Labmod.operate labmod (ctx thread) req))
      in
      run_fio m ~bytes ~total target)

let supports kind = function
  | `Kernel_driver -> true
  | `Spdk -> (Profile.of_kind kind).Profile.supports_polling
  | `Dax -> (Profile.of_kind kind).Profile.byte_addressable

let columns = [ "POSIX"; "AIO"; "libaio"; "io_uring"; "KernDriver"; "SPDK"; "DAX" ]

(* One device's IOPS in [columns] order; [None] where the device cannot
   run that driver. Op counts scale to device speed so HDD runs stay
   short. *)
let measure kind ~bytes =
  let total =
    match kind with
    | Profile.Hdd -> 200 * bytes
    | Profile.Sata_ssd -> 1000 * bytes
    | Profile.Nvme | Profile.Pmem -> 2000 * bytes
  in
  let api a = Some (api_iops kind a ~bytes ~total) in
  let drv which =
    if supports kind which then Some (driver_iops kind which ~bytes ~total) else None
  in
  [
    api Api.Psync;
    api Api.Posix_aio;
    api Api.Libaio;
    api Api.Io_uring;
    drv `Kernel_driver;
    drv `Spdk;
    drv `Dax;
  ]

(* The Fig 6 shape, checked on raw IOPS ratios. [results] is
   [(bytes, [(kind, iops)])]. Returns the violated claims, empty when
   the shape holds. *)
let shape_violations results =
  let row bytes kind = List.combine columns (List.assoc kind (List.assoc bytes results)) in
  let ratio bytes kind a b =
    let r = row bytes kind in
    Option.get (List.assoc a r) /. Option.get (List.assoc b r)
  in
  let check ok msg = if ok then [] else [ msg ] in
  let k4 = 4096 and k128 = 131072 in
  let kd_uring = ratio k4 Profile.Nvme "KernDriver" "io_uring" in
  let spdk_kd = ratio k4 Profile.Nvme "SPDK" "KernDriver" in
  let spdk_posix bytes = ratio bytes Profile.Nvme "SPDK" "POSIX" in
  check (kd_uring >= 1.15)
    (Printf.sprintf "NVMe 4 KiB: KernelDriver %.3fx io_uring (< 1.15x)" kd_uring)
  @ check (spdk_kd > 1.0)
      (Printf.sprintf "NVMe 4 KiB: SPDK %.3fx KernelDriver (not > 1x)" spdk_kd)
  @ List.concat_map
      (fun kind ->
        let r = ratio k4 kind "AIO" "POSIX" in
        check (r < 0.75)
          (Printf.sprintf "%s 4 KiB: AIO %.3fx POSIX (not < 0.75x)"
             (Profile.kind_to_string kind) r))
      [ Profile.Nvme; Profile.Pmem ]
  @ List.concat_map
      (fun bytes ->
        List.concat_map
          (fun (col, v) ->
            match v with
            | None -> []
            | Some _ ->
                let r = ratio bytes Profile.Hdd col "POSIX" in
                check
                  (Float.abs (r -. 1.0) <= 0.01)
                  (Printf.sprintf "HDD %d B: %s %.3fx POSIX (not within 1%%)"
                     bytes col r))
          (row bytes Profile.Hdd)
        @
        let r = ratio bytes Profile.Pmem "DAX" "SPDK" in
        check (r >= 1.0) (Printf.sprintf "PMEM %d B: DAX %.3fx SPDK (< 1x)" bytes r))
      [ k4; k128 ]
  @ check
      (spdk_posix k128 < spdk_posix k4)
      (Printf.sprintf "NVMe SPDK/POSIX %.3fx at 128 KiB, not below %.3fx at 4 KiB"
         (spdk_posix k128) (spdk_posix k4))

let run () =
  let kinds = [ Profile.Hdd; Profile.Sata_ssd; Profile.Nvme; Profile.Pmem ] in
  let sizes = [ (4096, "4KiB"); (131072, "128KiB") ] in
  let results =
    List.map
      (fun (bytes, size_label) ->
        Bench_util.heading "fig6" (Printf.sprintf "Storage API performance, %s random writes (IOPS, normalized to POSIX)" size_label);
        let widths = [ 6; 10; 10; 10; 10; 11; 10; 10 ] in
        let rows = List.map (fun kind -> (kind, measure kind ~bytes)) kinds in
        Bench_util.print_table widths
          ("dev" :: columns)
          (List.map
             (fun (kind, iops) ->
               let posix = Option.get (List.hd iops) in
               let cell = function
                 | Some v -> Printf.sprintf "%s (%.2f)" (Bench_util.kops v) (v /. posix)
                 | None -> "-"
               in
               Profile.kind_to_string kind :: List.map cell iops)
             rows);
        (bytes, rows))
      sizes
  in
  Bench_util.note
    "paper shape: LabStor paths win on fast devices (KernelDriver >= +15%% over";
  Bench_util.note
    "io_uring, SPDK ~ +12%% over KernelDriver at 4KiB on NVMe); gaps shrink to ~6%%";
  Bench_util.note "at 128KiB; AIO worst (60-70%% overhead); HDD indifferent.";
  match shape_violations results with
  | [] -> ()
  | bad ->
      List.iter (Bench_util.note "FIG 6 GATE FAILED: %s") bad;
      exit 1
