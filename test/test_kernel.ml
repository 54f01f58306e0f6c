(* Tests for lab_kernel: block layer scheduling, page cache, kernel FS
   models, raw-device API cost ordering. *)

open Lab_sim
open Lab_device
open Lab_kernel

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Blk                                                                 *)
(* ------------------------------------------------------------------ *)

let test_blk_noop_core_affinity () =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      Alcotest.(check int) "thread 3 -> queue 3" 3
        (Blk.select_hctx blk ~thread:3 ~bytes:4096);
      Alcotest.(check int) "thread 19 wraps" 3
        (Blk.select_hctx blk ~thread:19 ~bytes:4096))

let test_blk_switch_avoids_loaded_queue () =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Blk_switch in
      (* Load queue 0 heavily. *)
      Blk.note_dispatch blk ~hctx:0 ~bytes:(1 lsl 20);
      let q = Blk.select_hctx blk ~thread:0 ~bytes:4096 in
      Alcotest.(check bool) "steers away from queue 0" true (q <> 0);
      Blk.note_completion blk ~hctx:0 ~bytes:(1 lsl 20))

let test_blk_polled_cheaper_than_irq () =
  let timed polled =
    in_sim (fun m ->
        let dev = Device.create m.Machine.engine Profile.nvme in
        let blk = Blk.create m dev ~sched:Blk.Noop in
        let t0 = Machine.now m in
        Blk.submit_bio_wait blk ~thread:0 ~kind:Device.Write ~lba:0 ~bytes:4096
          ~polled;
        Machine.now m -. t0)
  in
  Alcotest.(check bool) "polling avoids irq+wakeup" true
    (timed true < timed false)

let test_blk_direct_hctx_skips_irq () =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let done_ = ref false in
      Blk.submit_io_to_hctx blk ~thread:0 ~hctx:2 ~kind:Device.Write ~lba:0
        ~bytes:4096 ~on_complete:(fun () -> done_ := true);
      Alcotest.(check int) "tracked in-flight" 1 (Blk.inflight blk 2);
      Device.flush dev;
      Alcotest.(check bool) "completed" true !done_;
      Alcotest.(check int) "drained" 0 (Blk.inflight blk 2))

(* ------------------------------------------------------------------ *)
(* Page cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  in_sim (fun m ->
      let pc = Page_cache.create m ~capacity_pages:4 ~page_size:4096 in
      Alcotest.(check bool) "cold miss" false (Page_cache.read pc ~thread:0 ~page_index:7);
      ignore (Page_cache.insert_clean pc ~thread:0 ~page_index:7);
      Alcotest.(check bool) "warm hit" true (Page_cache.read pc ~thread:0 ~page_index:7);
      Alcotest.(check int) "hits" 1 (Page_cache.hits pc);
      Alcotest.(check int) "misses" 1 (Page_cache.misses pc))

let test_cache_eviction_returns_dirty () =
  in_sim (fun m ->
      let pc = Page_cache.create m ~capacity_pages:2 ~page_size:4096 in
      ignore (Page_cache.write pc ~thread:0 ~page_index:1);
      ignore (Page_cache.write pc ~thread:0 ~page_index:2);
      match Page_cache.write pc ~thread:0 ~page_index:3 with
      | Some p ->
          Alcotest.(check int) "LRU page evicted" 1 p.Page_cache.page_index;
          Alcotest.(check bool) "was dirty" true p.Page_cache.dirty
      | None -> Alcotest.fail "expected eviction")

let test_cache_dirty_tracking () =
  in_sim (fun m ->
      let pc = Page_cache.create m ~capacity_pages:8 ~page_size:4096 in
      ignore (Page_cache.write pc ~thread:0 ~page_index:1);
      ignore (Page_cache.insert_clean pc ~thread:0 ~page_index:2);
      ignore (Page_cache.write pc ~thread:0 ~page_index:3);
      let dirty =
        List.map (fun p -> p.Page_cache.page_index) (Page_cache.dirty_pages pc)
      in
      Alcotest.(check (list int)) "dirty set, LRU first" [ 1; 3 ] dirty;
      List.iter (Page_cache.clean pc) (Page_cache.dirty_pages pc);
      Alcotest.(check (list int)) "all clean" []
        (List.map (fun p -> p.Page_cache.page_index) (Page_cache.dirty_pages pc)))

(* ------------------------------------------------------------------ *)
(* Lru (lab_sim, exercised here where it matters)                      *)
(* ------------------------------------------------------------------ *)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"LRU never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 16) (list small_int))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap () in
      List.for_all
        (fun k ->
          ignore (Lru.put l k k);
          Lru.length l <= cap)
        keys)

let prop_lru_evicts_least_recent =
  QCheck.Test.make ~name:"LRU evicts the least recently used key" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) small_int)
    (fun keys ->
      (* Reference model: list of distinct keys, most recent first. *)
      let cap = 4 in
      let l = Lru.create ~capacity:cap () in
      let model = ref [] in
      List.for_all
        (fun k ->
          let evicted = Lru.put l k k in
          model := k :: List.filter (fun x -> x <> k) !model;
          let expected_evict =
            if List.length !model > cap then begin
              let rec last = function
                | [ x ] -> x
                | _ :: tl -> last tl
                | [] -> assert false
              in
              let victim = last !model in
              model := List.filter (fun x -> x <> victim) !model;
              Some victim
            end
            else None
          in
          Option.map fst evicted = expected_evict)
        keys)

(* ------------------------------------------------------------------ *)
(* Kfs                                                                 *)
(* ------------------------------------------------------------------ *)

let make_fs ?(flavor = Kfs.Ext4) m =
  let dev = Device.create m.Machine.engine Profile.nvme in
  let blk = Blk.create m dev ~sched:Blk.Noop in
  Kfs.create_fs m blk ~flavor

let test_kfs_create_and_meta () =
  in_sim (fun m ->
      let fs = make_fs m in
      Kfs.create fs ~thread:0 "/a/x";
      Kfs.create fs ~thread:0 "/a/y";
      Alcotest.(check bool) "x exists" true (Kfs.exists fs "/a/x");
      Alcotest.(check int) "two files" 2 (Kfs.nfiles fs);
      Kfs.unlink fs ~thread:0 "/a/x";
      Alcotest.(check bool) "x gone" false (Kfs.exists fs "/a/x");
      Kfs.rename fs ~thread:0 "/a/y" "/a/z";
      Alcotest.(check bool) "renamed" true (Kfs.exists fs "/a/z"))

let test_kfs_write_read_size () =
  in_sim (fun m ->
      let fs = make_fs m in
      Kfs.create fs ~thread:0 "/f";
      Kfs.write fs ~thread:0 "/f" ~off:0 ~bytes:10000 ~direct:false;
      Alcotest.(check (option int)) "size" (Some 10000) (Kfs.file_size fs "/f");
      Kfs.write fs ~thread:0 "/f" ~off:5000 ~bytes:1000 ~direct:false;
      Alcotest.(check (option int)) "size unchanged on overwrite" (Some 10000)
        (Kfs.file_size fs "/f");
      Kfs.read fs ~thread:0 "/f" ~off:0 ~bytes:10000 ~direct:false)

let test_kfs_fsync_persists () =
  in_sim (fun m ->
      let fs = make_fs m in
      Kfs.create fs ~thread:0 "/f";
      Kfs.write fs ~thread:0 "/f" ~off:0 ~bytes:16384 ~direct:false;
      Kfs.fsync fs ~thread:0 "/f";
      Alcotest.(check bool) "journal committed" true (Kfs.journal_commits fs >= 1))

let test_kfs_shared_dir_contention () =
  (* Creating in one shared directory with many threads must not scale
     linearly: the dir lock serializes part of the work. *)
  let throughput nthreads =
    in_sim ~ncores:24 (fun m ->
        let fs = make_fs m in
        let per_thread = 200 in
        let remaining = ref nthreads in
        Engine.suspend (fun resume ->
            for t = 1 to nthreads do
              Engine.spawn m.Machine.engine (fun () ->
                  for i = 1 to per_thread do
                    Kfs.create fs ~thread:t
                      (Printf.sprintf "/shared/f-%d-%d" t i)
                  done;
                  decr remaining;
                  if !remaining = 0 then resume ())
            done);
        Stdlib.float_of_int (nthreads * per_thread) /. Machine.now m)
  in
  let t1 = throughput 1 and t16 = throughput 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16-thread speedup %.2f < 8x" (t16 /. t1))
    true
    (t16 /. t1 < 8.0)

let test_kfs_flavors_differ () =
  let time_of flavor =
    in_sim (fun m ->
        let fs = make_fs ~flavor m in
        for i = 1 to 100 do
          Kfs.create fs ~thread:0 (Printf.sprintf "/d/f%d" i)
        done;
        Machine.now m)
  in
  let e = time_of Kfs.Ext4 and x = time_of Kfs.Xfs and f = time_of Kfs.F2fs in
  Alcotest.(check bool) "flavors have distinct cost profiles" true
    (e <> x && x <> f)

(* ------------------------------------------------------------------ *)
(* Api                                                                 *)
(* ------------------------------------------------------------------ *)

let api_latency api =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine Profile.nvme in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let t = Api.create m blk in
      let t0 = Machine.now m in
      Api.submit_wait t ~api ~thread:0 ~kind:Device.Write ~off:0 ~bytes:4096;
      Machine.now m -. t0)

let test_api_ordering () =
  let psync = api_latency Api.Psync in
  let aio = api_latency Api.Posix_aio in
  let libaio = api_latency Api.Libaio in
  let uring = api_latency Api.Io_uring in
  Alcotest.(check bool)
    (Printf.sprintf "uring(%.0f) < libaio(%.0f) < psync(%.0f) < aio(%.0f)" uring
       libaio psync aio)
    true
    (uring < libaio && libaio < psync && psync < aio)

let test_api_batch_amortizes () =
  let per_op_batched =
    in_sim (fun m ->
        let dev = Device.create m.Machine.engine Profile.nvme in
        let blk = Blk.create m dev ~sched:Blk.Noop in
        let t = Api.create m blk in
        let offs = Array.init 32 (fun i -> i * 8192) in
        let t0 = Machine.now m in
        Api.submit_batch_wait t ~api:Api.Io_uring ~thread:0 ~kind:Device.Write
          ~offs ~bytes:4096;
        (Machine.now m -. t0) /. 32.0)
  in
  let single = api_latency Api.Io_uring in
  Alcotest.(check bool)
    (Printf.sprintf "batched per-op %.0f << single %.0f" per_op_batched single)
    true
    (per_op_batched < single /. 2.0)

let () =
  Alcotest.run "lab_kernel"
    [
      ( "blk",
        [
          Alcotest.test_case "noop affinity" `Quick test_blk_noop_core_affinity;
          Alcotest.test_case "blk-switch steering" `Quick
            test_blk_switch_avoids_loaded_queue;
          Alcotest.test_case "polled vs irq" `Quick test_blk_polled_cheaper_than_irq;
          Alcotest.test_case "direct hctx" `Quick test_blk_direct_hctx_skips_irq;
        ] );
      ( "page-cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "eviction" `Quick test_cache_eviction_returns_dirty;
          Alcotest.test_case "dirty tracking" `Quick test_cache_dirty_tracking;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_lru_evicts_least_recent;
        ] );
      ( "kfs",
        [
          Alcotest.test_case "create/meta" `Quick test_kfs_create_and_meta;
          Alcotest.test_case "write/read/size" `Quick test_kfs_write_read_size;
          Alcotest.test_case "fsync persists" `Quick test_kfs_fsync_persists;
          Alcotest.test_case "shared-dir contention" `Quick
            test_kfs_shared_dir_contention;
          Alcotest.test_case "flavors differ" `Quick test_kfs_flavors_differ;
        ] );
      ( "api",
        [
          Alcotest.test_case "cost ordering" `Quick test_api_ordering;
          Alcotest.test_case "batch amortizes" `Quick test_api_batch_amortizes;
        ] );
    ]
