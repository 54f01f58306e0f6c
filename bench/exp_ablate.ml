(* Ablations — sensitivity of the headline results to the design
   choices and calibrated cost constants DESIGN.md calls out.

   A. Kernel-crossing costs: how the LabFS-vs-ext4 metadata advantage
      responds to the context-switch and syscall constants (is the win
      really "fewer kernel crossings"?).
   B. IPC cost: how the async/sync (centralized/decentralized) gap
      responds to the shared-memory cross-core constant.
   C. Compression ratio: when does the active-storage Compression
      LabMod stop paying on NVMe? *)

open Labstor
open Lab_sim
open Lab_device
open Lab_kernel

let files = 2000

(* --- A ------------------------------------------------------------ *)

let ext4_rate costs =
  let m = Machine.create ~costs ~ncores:8 () in
  let result = ref None in
  Machine.spawn m (fun () ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let fs = Kfs.create_fs m blk ~flavor:Kfs.Ext4 in
      for i = 1 to files do
        Kfs.create fs ~thread:0 (Printf.sprintf "/d/f%d" i)
      done;
      result := Some (float_of_int files /. (Machine.now m /. 1e9)));
  Machine.run m;
  Option.get !result

let labfs_rate ~exec costs =
  let platform = Platform.boot ~costs ~nworkers:2 () in
  ignore
    (Platform.mount_exn platform
       (Printf.sprintf
          "mount: \"fs::/a\"\nrules:\n  exec_mode: %s\ndag:\n  - uuid: ab-fs\n    mod: labfs\n    outputs: [ab-drv]\n  - uuid: ab-drv\n    mod: kernel_driver"
          exec));
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let t0 = Platform.now platform in
      for i = 1 to files do
        ignore (Runtime.Client.create c (Printf.sprintf "fs::/a/f%d" i))
      done;
      float_of_int files /. ((Platform.now platform -. t0) /. 1e9))

let ablate_kernel_crossing () =
  Printf.printf "\nA. kernel-crossing cost sensitivity (single-thread creates)\n";
  Bench_util.print_table [ 22; 12; 12; 12 ]
    [ "ctx-switch/syscall"; "ext4 kops"; "LabFS kops"; "LabFS/ext4" ]
    (List.map
       (fun scale ->
         let c = Costs.default in
         let costs =
           {
             c with
             Costs.ctx_switch_ns = c.Costs.ctx_switch_ns *. scale;
             syscall_ns = c.Costs.syscall_ns *. scale;
             interrupt_ns = c.Costs.interrupt_ns *. scale;
             wakeup_ns = c.Costs.wakeup_ns *. scale;
           }
         in
         let e = ext4_rate costs and l = labfs_rate ~exec:"async" costs in
         [
           Printf.sprintf "x%.2f" scale;
           Bench_util.kops e;
           Bench_util.kops l;
           Bench_util.f2 (l /. e);
         ])
       [ 0.25; 0.5; 1.0; 2.0; 4.0 ]);
  Bench_util.note
    "the LabFS advantage grows with kernel-crossing costs: the win is crossings,";
  Bench_util.note "not the filesystem code."

(* --- B ------------------------------------------------------------ *)

let ablate_ipc () =
  Printf.printf "\nB. shared-memory IPC cost: async (centralized) vs. sync stacks\n";
  Bench_util.print_table [ 18; 12; 12; 14 ]
    [ "cross-core cost"; "async kops"; "sync kops"; "sync speedup" ]
    (List.map
       (fun scale ->
         let c = Costs.default in
         let costs =
           {
             c with
             Costs.shmem_cross_core_ns = c.Costs.shmem_cross_core_ns *. scale;
             shmem_enqueue_ns = c.Costs.shmem_enqueue_ns *. scale;
           }
         in
         let a = labfs_rate ~exec:"async" costs
         and s = labfs_rate ~exec:"sync" costs in
         [
           Printf.sprintf "x%.2f" scale;
           Bench_util.kops a;
           Bench_util.kops s;
           Bench_util.pct a s;
         ])
       [ 0.25; 1.0; 4.0 ]);
  Bench_util.note
    "decentralized execution pays off in proportion to the IPC it removes — the";
  Bench_util.note "paper's security-vs-latency dial."

(* --- C ------------------------------------------------------------ *)

let compress_bw ratio =
  let platform = Platform.boot ~nworkers:2 () in
  let spec =
    Printf.sprintf
      "mount: \"fs::/z\"\ndag:\n  - uuid: z-fs\n    mod: labfs\n    outputs: [z-z]\n  - uuid: z-z\n    mod: compress\n    attrs:\n      ratio: %.2f\n    outputs: [z-drv]\n  - uuid: z-drv\n    mod: kernel_driver"
      ratio
  in
  ignore (Platform.mount_exn platform spec);
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let total = 8 * 32 * 1024 * 1024 in
      let t0 = Platform.now platform in
      for i = 1 to 8 do
        let path = Printf.sprintf "fs::/z/f%d" i in
        ignore (Runtime.Client.create c path);
        match Runtime.Client.open_file c path with
        | Ok fd ->
            ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:(32 * 1024 * 1024));
            ignore (Runtime.Client.close c fd)
        | Error e -> failwith e
      done;
      float_of_int total /. ((Platform.now platform -. t0) /. 1e9) /. 1048576.0)

let no_compress_bw () =
  let platform = Platform.boot ~nworkers:2 () in
  ignore
    (Platform.mount_exn platform
       "mount: \"fs::/z\"\ndag:\n  - uuid: z-fs\n    mod: labfs\n    outputs: [z-drv]\n  - uuid: z-drv\n    mod: kernel_driver");
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let total = 8 * 32 * 1024 * 1024 in
      let t0 = Platform.now platform in
      for i = 1 to 8 do
        let path = Printf.sprintf "fs::/z/f%d" i in
        ignore (Runtime.Client.create c path);
        match Runtime.Client.open_file c path with
        | Ok fd ->
            ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:(32 * 1024 * 1024));
            ignore (Runtime.Client.close c fd)
        | Error e -> failwith e
      done;
      float_of_int total /. ((Platform.now platform -. t0) /. 1e9) /. 1048576.0)

let ablate_compression () =
  Printf.printf "\nC. active-storage compression: NVMe write bandwidth vs. ratio\n";
  let base = no_compress_bw () in
  Bench_util.print_table [ 14; 14; 12 ]
    [ "ratio"; "MiB/s"; "vs. none" ]
    (([ "none (1.00)"; Bench_util.f1 base; "+0%" ]
     :: List.map
          (fun r ->
            let bw = compress_bw r in
            [ Printf.sprintf "%.2f" r; Bench_util.f1 bw; Bench_util.pct base bw ])
          [ 0.1; 0.3; 0.5; 0.8 ]));
  Bench_util.note
    "a 0.6 ns/B codec cannot beat a 2 GB/s NVMe on single-stream bandwidth: the";
  Bench_util.note
    "active-storage win is device *traffic* (examples/custom_stack: -70%%),";
  Bench_util.note "which pays off when the device is the shared bottleneck."

(* --- D ------------------------------------------------------------ *)

(* Interchangeable cache LabMods: plain LRU vs. self-tuning ARC under a
   hot-set + periodic-scan access pattern (the workload that flushes
   LRU). Same stack slot, same attributes — swapped by name only. *)
let cache_hit_rate mod_name =
  let platform = Platform.boot ~nworkers:2 () in
  let spec =
    Printf.sprintf
      "mount: \"fs::/cache\"\ndag:\n  - uuid: cp-fs\n    mod: labfs\n    outputs: [cp-cache]\n  - uuid: cp-cache\n    mod: %s\n    attrs:\n      capacity_mb: 4\n    outputs: [cp-drv]\n  - uuid: cp-drv\n    mod: kernel_driver"
      mod_name
  in
  ignore (Platform.mount_exn platform spec);
  let rt = Platform.runtime platform in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let file n = Printf.sprintf "fs::/cache/f%d" n in
      (* hot set: 8 x 128 KiB files (1 MiB); cold pool: 128 files. *)
      let fds = Hashtbl.create 64 in
      let fd_of n =
        match Hashtbl.find_opt fds n with
        | Some fd -> fd
        | None ->
            let fd =
              match Runtime.Client.open_file c ~create:true (file n) with
              | Ok fd -> fd
              | Error e -> failwith e
            in
            ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:131072);
            Hashtbl.replace fds n fd;
            fd
      in
      for n = 0 to 135 do
        ignore (fd_of n)
      done;
      let rng = Sim.Rng.create 99 in
      let t0 = Platform.now platform in
      for round = 1 to 60 do
        (* hot reads *)
        for _ = 1 to 32 do
          ignore
            (Runtime.Client.pread c ~fd:(fd_of (Sim.Rng.int rng 8)) ~off:0
               ~bytes:131072)
        done;
        (* periodic scan through the cold pool *)
        if round mod 3 = 0 then
          for n = 8 to 135 do
            ignore (Runtime.Client.pread c ~fd:(fd_of n) ~off:0 ~bytes:131072)
          done
      done;
      let elapsed = Platform.now platform -. t0 in
      let reg = Runtime.Runtime.registry rt in
      let cache = Option.get (Core.Registry.find reg "cp-cache") in
      let hits, misses =
        if mod_name = "arc_cache" then
          (Mods.Arc_cache.hits cache, Mods.Arc_cache.misses cache)
        else (Mods.Lru_cache.hits cache, Mods.Lru_cache.misses cache)
      in
      let rate = float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses)) in
      (rate, elapsed /. 1e6))

let ablate_cache_policy () =
  Printf.printf "\nD. interchangeable cache LabMods: hot set + periodic scans\n";
  Bench_util.print_table [ 12; 12; 14 ]
    [ "policy"; "hit rate"; "elapsed (ms)" ]
    (List.map
       (fun name ->
         let rate, ms = cache_hit_rate name in
         [ name; Printf.sprintf "%.1f%%" (100.0 *. rate); Bench_util.f1 ms ])
       [ "lru_cache"; "arc_cache" ]);
  Bench_util.note
    "ARC keeps the hot set resident through scans that flush plain LRU — the";
  Bench_util.note
    "paper's point that exotic eviction policies become drop-in LabMods."

let run () =
  Bench_util.heading "ablate" "Design-choice and cost-sensitivity ablations";
  ablate_kernel_crossing ();
  ablate_ipc ();
  ablate_compression ();
  ablate_cache_policy ()
