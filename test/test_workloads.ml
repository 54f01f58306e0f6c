(* Tests for lab_workloads: generators produce the right op counts and
   drive both kernel and LabStor backends. *)

open Lab_sim
open Lab_device
open Lab_kernel
open Lab_workloads

let in_sim ?(ncores = 24) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let raw_nvme_target m =
  let dev = Device.create m.Machine.engine Profile.nvme in
  let blk = Blk.create m dev ~sched:Blk.Noop in
  let api = Api.create m blk in
  ( dev,
    {
      Fio.submit =
        (fun ~thread ~kind ~off ~bytes ->
          let k = match kind with Lab_core.Request.Read -> Device.Read | _ -> Device.Write in
          ignore k;
          Api.submit_wait api ~api:Api.Io_uring ~thread
            ~kind:(match kind with Lab_core.Request.Read -> Device.Read | _ -> Device.Write)
            ~off ~bytes);
      submit_batch =
        (fun ~thread ~kind ~offs ~bytes ->
          Api.submit_batch_wait api ~api:Api.Io_uring ~thread
            ~kind:(match kind with Lab_core.Request.Read -> Device.Read | _ -> Device.Write)
            ~offs ~bytes);
    } )

(* ------------------------------------------------------------------ *)
(* Fio                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fio_op_count () =
  in_sim (fun m ->
      let dev, target = raw_nvme_target m in
      let job =
        {
          Fio.default_job with
          Fio.total_bytes_per_thread = 1024 * 1024;
          block_bytes = 4096;
          nthreads = 2;
        }
      in
      let r = Fio.run m job target in
      Alcotest.(check int) "ops = size/bs * threads" 512 r.Fio.ops;
      Alcotest.(check int) "device writes" 512 (Device.completed_writes dev);
      Alcotest.(check bool) "iops computed" true (r.Fio.iops > 0.0);
      Alcotest.(check int) "latency samples" 512
        (Lab_obs.Hist.count r.Fio.latency))

let test_fio_time_bounded () =
  in_sim (fun m ->
      let _, target = raw_nvme_target m in
      let job =
        {
          Fio.default_job with
          Fio.runtime_ns = Some 1e6;
          nthreads = 1;
        }
      in
      let r = Fio.run m job target in
      Alcotest.(check bool) "bounded duration" true (r.Fio.elapsed_ns <= 1.2e6);
      Alcotest.(check bool) "did some work" true (r.Fio.ops > 10))

let test_fio_iodepth_improves_iops () =
  let iops depth =
    in_sim (fun m ->
        let _, target = raw_nvme_target m in
        let job =
          {
            Fio.default_job with
            Fio.total_bytes_per_thread = 4 * 1024 * 1024;
            iodepth = depth;
          }
        in
        (Fio.run m job target).Fio.iops)
  in
  let d1 = iops 1 and d32 = iops 32 in
  Alcotest.(check bool)
    (Printf.sprintf "iodepth 32 (%.0f) > 2x iodepth 1 (%.0f)" d32 d1)
    true (d32 > 2.0 *. d1)

let test_fio_seq_faster_on_hdd () =
  let bw pattern =
    in_sim (fun m ->
        let dev = Device.create m.Machine.engine Profile.hdd in
        let blk = Blk.create m dev ~sched:Blk.Noop in
        let api = Api.create m blk in
        let target =
          Fio.target_of_submit (fun ~thread ~kind ~off ~bytes ->
              Api.submit_wait api ~api:Api.Psync ~thread
                ~kind:(match kind with Lab_core.Request.Read -> Device.Read | _ -> Device.Write)
                ~off ~bytes)
        in
        let job =
          {
            Fio.default_job with
            Fio.pattern;
            total_bytes_per_thread = 1024 * 1024;
          }
        in
        (Fio.run m job target).Fio.bandwidth_mib_s)
  in
  let seq = bw Fio.Seqwrite and rand = bw Fio.Randwrite in
  Alcotest.(check bool)
    (Printf.sprintf "seq %.1f >> rand %.1f on HDD" seq rand)
    true (seq > 3.0 *. rand)

(* ------------------------------------------------------------------ *)
(* Fxmark                                                              *)
(* ------------------------------------------------------------------ *)

let kfs_of m flavor =
  let dev = Device.create m.Machine.engine Profile.nvme in
  let blk = Blk.create m dev ~sched:Blk.Noop in
  Kfs.create_fs m blk ~flavor

let test_fxmark_create_counts () =
  in_sim (fun m ->
      let fs = kfs_of m Kfs.Ext4 in
      let r =
        Fxmark.run_create m ~nthreads:4 ~files_per_thread:50 ~shared_dir:true
          (Adapters.kfs_fxmark fs)
      in
      Alcotest.(check int) "ops" 200 r.Fxmark.ops;
      Alcotest.(check int) "files on disk" 200 (Kfs.nfiles fs);
      Alcotest.(check bool) "throughput computed" true (r.Fxmark.ops_per_sec > 0.0))

let test_fxmark_private_faster_than_shared () =
  let rate shared =
    in_sim (fun m ->
        let fs = kfs_of m Kfs.Ext4 in
        (Fxmark.run_create m ~nthreads:16 ~files_per_thread:50 ~shared_dir:shared
           (Adapters.kfs_fxmark fs))
          .Fxmark.ops_per_sec)
  in
  let shared = rate true and private_ = rate false in
  Alcotest.(check bool)
    (Printf.sprintf "private (%.0f) > shared (%.0f)" private_ shared)
    true (private_ > shared)

let test_fxmark_mixed () =
  in_sim (fun m ->
      let fs = kfs_of m Kfs.Xfs in
      let r = Fxmark.run_mixed m ~nthreads:2 ~ops_per_thread:100 (Adapters.kfs_fxmark fs) in
      Alcotest.(check int) "ops" 200 r.Fxmark.ops)

(* ------------------------------------------------------------------ *)
(* Filebench                                                           *)
(* ------------------------------------------------------------------ *)

let test_filebench_personalities_run () =
  List.iter
    (fun p ->
      in_sim (fun m ->
          let fs = kfs_of m Kfs.Ext4 in
          let r = Filebench.run m p ~nthreads:2 ~iterations:5 (Adapters.kfs_filebench fs) in
          Alcotest.(check bool)
            (Filebench.personality_name p ^ " produced ops")
            true
            (r.Filebench.ops > 0 && r.Filebench.ops_per_sec > 0.0)))
    Filebench.all

let test_filebench_fileserver_most_bandwidth () =
  in_sim (fun m ->
      let fs = kfs_of m Kfs.Ext4 in
      let bw p =
        (Filebench.run m p ~nthreads:2 ~iterations:10 (Adapters.kfs_filebench fs))
          .Filebench.mib_per_sec
      in
      let fileserver = bw Filebench.Fileserver in
      let varmail = bw Filebench.Varmail in
      Alcotest.(check bool)
        (Printf.sprintf "fileserver %.0f MiB/s > varmail %.0f MiB/s" fileserver varmail)
        true (fileserver > varmail))

(* ------------------------------------------------------------------ *)
(* Labios                                                              *)
(* ------------------------------------------------------------------ *)

let test_labios_backends () =
  in_sim (fun m ->
      let fs = kfs_of m Kfs.Ext4 in
      let r =
        Labios.run_worker m (Adapters.labios_file_backend_kfs fs)
          ~labels_per_thread:100 ()
      in
      Alcotest.(check int) "labels" 100 r.Labios.labels;
      Alcotest.(check int) "one file per label" 100 (Kfs.nfiles fs);
      Alcotest.(check bool) "rate computed" true (r.Labios.labels_per_sec > 0.0))

(* ------------------------------------------------------------------ *)
(* PFS                                                                 *)
(* ------------------------------------------------------------------ *)

let null_md m =
  {
    Pfs.md_create = (fun ~thread _ -> Machine.compute m ~thread 3000.0);
    md_extend = (fun ~thread _ -> Machine.compute m ~thread 2500.0);
    md_lookup = (fun ~thread _ -> Machine.compute m ~thread 2000.0);
  }

let device_data m kind =
  let devs = Array.init 4 (fun _ -> Device.create m.Machine.engine (Profile.of_kind kind)) in
  {
    Pfs.srv_write =
      (fun ~server ~off ~bytes ->
        Device.submit_wait devs.(server) ~hctx:server ~kind:Device.Write
          ~lba:(off / 4096) ~bytes);
    srv_read =
      (fun ~server ~off ~bytes ->
        Device.submit_wait devs.(server) ~hctx:server ~kind:Device.Read
          ~lba:(off / 4096) ~bytes);
  }

let test_pfs_vpic_totals () =
  in_sim (fun m ->
      let pfs = Pfs.create m (null_md m) (device_data m Profile.Nvme) in
      let r = Pfs.vpic pfs ~procs:4 ~steps:2 ~bytes_per_proc_step:(1 lsl 20) in
      Alcotest.(check int) "bytes" (8 * (1 lsl 20)) r.Pfs.total_bytes;
      Alcotest.(check bool) "bandwidth computed" true (r.Pfs.bandwidth_mib_s > 0.0);
      (* 1 MiB / 64 KiB = 16 stripes: one create + 16 lookups per file *)
      Alcotest.(check int) "md ops" (8 * 17) r.Pfs.md_ops;
      let rd = Pfs.bdcats pfs ~procs:4 ~steps:2 ~bytes_per_proc_step:(1 lsl 20) in
      Alcotest.(check int) "read bytes" (8 * (1 lsl 20)) rd.Pfs.total_bytes)

let test_pfs_md_speed_matters () =
  (* Faster metadata server => higher VPIC bandwidth, the Fig 9(a)
     mechanism. *)
  let bw md_cost =
    in_sim (fun m ->
        let md =
          {
            Pfs.md_create = (fun ~thread _ -> Machine.compute m ~thread md_cost);
            md_extend = (fun ~thread _ -> Machine.compute m ~thread md_cost);
            md_lookup = (fun ~thread _ -> Machine.compute m ~thread md_cost);
          }
        in
        let pfs = Pfs.create m md (device_data m Profile.Nvme) in
        (Pfs.vpic pfs ~procs:4 ~steps:2 ~bytes_per_proc_step:(1 lsl 20)).Pfs.bandwidth_mib_s)
  in
  let fast = bw 2000.0 and slow = bw 40000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "fast md %.0f > slow md %.0f" fast slow)
    true (fast > slow)

(* ------------------------------------------------------------------ *)
(* YCSB                                                                *)
(* ------------------------------------------------------------------ *)

let test_ycsb_mix_ratios () =
  in_sim (fun m ->
      let reads = ref 0 and writes = ref 0 in
      let ops =
        {
          Ycsb.put =
            (fun ~thread:_ ~key:_ ~bytes:_ ->
              incr writes;
              Machine.compute m ~thread:0 100.0);
          get =
            (fun ~thread:_ ~key:_ ->
              incr reads;
              Machine.compute m ~thread:0 100.0);
        }
      in
      let r = Ycsb.run m Ycsb.B ~nthreads:2 ~records:100 ~ops_per_thread:400 ops in
      Alcotest.(check int) "total ops" 800 r.Ycsb.ops;
      (* Load phase wrote 100 records; mix B is ~95% reads. *)
      let mix_writes = !writes - 100 in
      let frac = float_of_int !reads /. float_of_int (mix_writes + !reads) in
      Alcotest.(check bool)
        (Printf.sprintf "read fraction %.2f ~ 0.95" frac)
        true
        (frac > 0.90 && frac < 0.99);
      Alcotest.(check int) "latencies recorded" 800
        (Lab_obs.Hist.count r.Ycsb.read_latency
        + Lab_obs.Hist.count r.Ycsb.update_latency))

let test_ycsb_d_inserts_fresh_keys () =
  in_sim (fun m ->
      let keys = Hashtbl.create 64 in
      let ops =
        {
          Ycsb.put =
            (fun ~thread:_ ~key ~bytes:_ -> Hashtbl.replace keys key ());
          get =
            (fun ~thread:_ ~key ->
              Alcotest.(check bool) ("read of existing key " ^ key) true
                (Hashtbl.mem keys key));
        }
      in
      let before = 50 in
      ignore (Ycsb.run m Ycsb.D ~nthreads:1 ~records:before ~ops_per_thread:200 ops);
      Alcotest.(check bool) "inserts grew the keyspace" true
        (Hashtbl.length keys > before))

let () =
  Alcotest.run "lab_workloads"
    [
      ( "fio",
        [
          Alcotest.test_case "op count" `Quick test_fio_op_count;
          Alcotest.test_case "time bounded" `Quick test_fio_time_bounded;
          Alcotest.test_case "iodepth scaling" `Quick test_fio_iodepth_improves_iops;
          Alcotest.test_case "seq vs rand on hdd" `Quick test_fio_seq_faster_on_hdd;
        ] );
      ( "fxmark",
        [
          Alcotest.test_case "create counts" `Quick test_fxmark_create_counts;
          Alcotest.test_case "private > shared" `Quick
            test_fxmark_private_faster_than_shared;
          Alcotest.test_case "mixed ops" `Quick test_fxmark_mixed;
        ] );
      ( "filebench",
        [
          Alcotest.test_case "all personalities" `Quick test_filebench_personalities_run;
          Alcotest.test_case "fileserver bandwidth" `Quick
            test_filebench_fileserver_most_bandwidth;
        ] );
      ( "labios",
        [ Alcotest.test_case "file backend" `Quick test_labios_backends ] );
      ( "ycsb",
        [
          Alcotest.test_case "mix ratios" `Quick test_ycsb_mix_ratios;
          Alcotest.test_case "D inserts fresh keys" `Quick
            test_ycsb_d_inserts_fresh_keys;
        ] );
      ( "pfs",
        [
          Alcotest.test_case "vpic totals" `Quick test_pfs_vpic_totals;
          Alcotest.test_case "md speed matters" `Quick test_pfs_md_speed_matters;
        ] );
    ]
