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

(* Minor words allocated by [f ()]. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The reference rule, written as a fold over the class's queues: the
   last quarter (at least one queue) is the latency class for requests
   of at most 16 KiB, the rest the throughput class; a class with no
   queue falls back to all of them. The lowest-index least-loaded queue
   wins. *)
let reference_switch_hctx loads ~bytes =
  let n = Array.length loads in
  let reserved = Stdlib.max 1 (n / 4) in
  let in_class q =
    n = reserved
    || if bytes <= 16384 then q >= n - reserved else q < n - reserved
  in
  let best = ref (-1) in
  Array.iteri
    (fun q l ->
      if in_class q && (!best < 0 || l < loads.(!best)) then best := q)
    loads;
  !best

(* Loads drawn from a few whole multiples of 4 KiB, so ties are
   common and the lowest-index rule is exercised. *)
let prop_switch_hctx_matches_reference =
  QCheck.Test.make ~name:"switch_hctx is the lowest least-loaded queue of its class"
    ~count:500
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 32)
           (map (fun k -> Stdlib.float_of_int (k * 4096)) (int_range 0 5)))
        (oneofl [ 512; 4096; 16384; 16385; 65536; 1 lsl 20 ]))
    (fun (loads, bytes) ->
      Blk.switch_hctx loads ~bytes = reference_switch_hctx loads ~bytes)

(* Steering runs once per small request: it compares unboxed floats
   and allocates nothing. *)
let test_switch_hctx_allocates_nothing () =
  let loads = Array.init 16 (fun q -> Stdlib.float_of_int ((q * 7 mod 5) * 4096)) in
  let base = words ignore in
  let sum = ref 0 in
  let steered =
    words (fun () ->
        for i = 1 to 10_000 do
          sum := !sum + Blk.switch_hctx loads ~bytes:(if i land 1 = 0 then 4096 else 65536)
        done)
  in
  Alcotest.(check bool) "steered somewhere" true (!sum > 0);
  if Sys.backend_type = Sys.Native then
    Alcotest.(check (float 0.0)) "minor words for 10k steerings" 0.0
      (steered -. base)

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
      let w = Device.take_waiter (Device.waiter_pool ()) in
      Device.set_notify w (fun w ->
          Blk.note_completion blk ~hctx:(Device.waiter_hctx w)
            ~bytes:(Device.waiter_bytes w);
          done_ := true;
          Device.wake w);
      Blk.submit_io_to_hctx blk ~thread:0 ~hctx:2 ~kind:Device.Write ~lba:0
        ~bytes:4096 w;
      Alcotest.(check int) "tracked in-flight" 1 (Blk.inflight blk 2);
      Device.await w;
      Alcotest.(check bool) "completed" true !done_;
      Alcotest.(check int) "drained" 0 (Blk.inflight blk 2))

(* The block layer reduces [hctx] modulo the queue count once, so a
   single-queue SATA device accepts any queue index and the in-flight
   slot it charges is the one the completion releases. *)
let test_blk_hctx_wraps () =
  in_sim (fun m ->
      let dev = Device.create m.Machine.engine Profile.sata_ssd in
      let blk = Blk.create m dev ~sched:Blk.Noop in
      let w = Device.take_waiter (Device.waiter_pool ()) in
      Device.set_notify w (fun w ->
          Blk.note_completion blk ~hctx:(Device.waiter_hctx w)
            ~bytes:(Device.waiter_bytes w);
          Device.wake w);
      Blk.submit_io_to_hctx blk ~thread:0 ~hctx:1 ~kind:Device.Write ~lba:0
        ~bytes:4096 w;
      Alcotest.(check int) "charged to queue 0" 1 (Blk.inflight blk 0);
      Device.await w;
      Alcotest.(check bool) "completed" true (Device.waiter_error w = None);
      Alcotest.(check int) "waiter on queue 0" 0 (Device.waiter_hctx w);
      Alcotest.(check int) "drained" 0 (Blk.inflight blk 0))

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

(* Random put/find/touch/remove/lru sequences at a small capacity
   against an association list, most recent first: every result
   (evictions included), the MRU-to-LRU fold order and the length
   agree after each step, and the length never exceeds the capacity. *)
type lru_op = Put of int * int | Find of int | Touch of int | Remove of int | Lru_of

let lru_op_gen =
  QCheck.Gen.(
    let key = int_range 0 7 in
    frequency
      [
        (4, map2 (fun k v -> Put (k, v)) key small_nat);
        (2, map (fun k -> Find k) key);
        (2, map (fun k -> Touch k) key);
        (1, map (fun k -> Remove k) key);
        (1, return Lru_of);
      ])

let show_lru_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Touch k -> Printf.sprintf "touch %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Lru_of -> "lru"

let prop_lru_matches_model =
  QCheck.Test.make ~name:"LRU matches an association-list model" ~count:300
    QCheck.(
      pair (int_range 1 5)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_lru_op ops))
           Gen.(list_size (int_range 1 60) lru_op_gen)))
    (fun (cap, ops) ->
      let l = Lru.create ~capacity:cap () in
      let model = ref [] in
      let promote k v = model := (k, v) :: List.remove_assoc k !model in
      let last () =
        match List.rev !model with [] -> None | kv :: _ -> Some kv
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Put (k, v) ->
                let fresh = not (List.mem_assoc k !model) in
                promote k v;
                let evicted =
                  if fresh && List.length !model > cap then begin
                    let victim = last () in
                    model := List.filteri (fun i _ -> i < cap) !model;
                    victim
                  end
                  else None
                in
                Lru.put l k v = evicted
            | Find k ->
                let expect = List.assoc_opt k !model in
                Option.iter (promote k) expect;
                Lru.find l k = expect
            | Touch k ->
                let expect = List.assoc_opt k !model in
                Option.iter (promote k) expect;
                Lru.touch l k = (expect <> None)
            | Remove k ->
                let expect = List.assoc_opt k !model in
                model := List.remove_assoc k !model;
                Lru.remove l k = expect
            | Lru_of -> Lru.lru l = last ()
          in
          agrees
          && List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) l []) = !model
          && Lru.length l = List.length !model
          && Lru.length l <= cap)
        ops)

(* A hit's promotion relinks the node through the sentinel: no option
   link, no fresh block. *)
let test_lru_touch_allocates_nothing () =
  let l = Lru.create ~capacity:64 () in
  for k = 0 to 63 do
    ignore (Lru.put l k k)
  done;
  let base = words ignore in
  let touched =
    words (fun () ->
        for i = 1 to 10_000 do
          if not (Lru.touch l (i * 7 land 63)) then Alcotest.fail "not resident"
        done)
  in
  Alcotest.(check (float 0.0)) "minor words for 10k touches" 0.0
    (touched -. base)

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
        let all_done = Engine.join nthreads in
        for t = 1 to nthreads do
          Engine.spawn m.Machine.engine (fun () ->
              for i = 1 to per_thread do
                Kfs.create fs ~thread:t
                  (Printf.sprintf "/shared/f-%d-%d" t i)
              done;
              Engine.arrive all_done)
        done;
        Engine.await all_done;
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

(* Two io_uring batches of 8 requests on a blk-switch block layer,
   next to a burst of contiguous writes that the blkswitch_sched LabMod
   merges over the kernel driver, all on one NVMe device. Every
   completion instant, the event count and the in-flight accounting
   after quiesce are pinned, so a change to how either path waits for
   the device shows here event for event. *)
let pinned_merge_spec =
  {|
mount: "blk::/dev/m"
rules:
  exec_mode: async
dag:
  - uuid: sched-m
    mod: blkswitch_sched
    attrs:
      merge_window_ns: 5000.0
    outputs: [drv-m]
  - uuid: drv-m
    mod: kernel_driver
|}

let pinned_batch_scenario () =
  let platform =
    Labstor.Platform.boot ~nworkers:2
      ~config:
        { Lab_runtime.Runtime.default_config with worker_batch_size = 4 }
      ()
  in
  (match Labstor.Platform.mount platform pinned_merge_spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  let m = Labstor.Platform.machine platform in
  let e = m.Machine.engine in
  let backend = Labstor.Platform.backend platform Profile.Nvme in
  let dev = backend.Lab_mods.Mods_env.device in
  let switch = Blk.create m dev ~sched:Blk.Blk_switch in
  let api = Api.create m switch in
  let log = Buffer.create 512 in
  Labstor.Platform.go platform (fun () ->
      let all_done = Engine.join 4 in
      let spawn f =
        Engine.spawn e (fun () ->
            f ();
            Engine.arrive all_done)
      in
      for b = 0 to 1 do
        spawn (fun () ->
            Engine.wait (Stdlib.float_of_int (b * 3_000));
            let offs = Array.init 8 (fun i -> ((b * 64) + (i * 3)) * 4096) in
            Api.submit_batch_wait api ~api:Api.Io_uring ~thread:(4 + b)
              ~kind:(if b = 0 then Device.Write else Device.Read)
              ~offs ~bytes:(if b = 0 then 4096 else 65536);
            Printf.bprintf log "batch%d@%.0f;" b (Machine.now m))
      done;
      for th = 0 to 1 do
        spawn (fun () ->
            let c = Labstor.Platform.client platform ~thread:th () in
            let ops =
              List.init 6 (fun i ->
                  {
                    Lab_runtime.Client.op_kind = Lab_core.Request.Write;
                    op_lba = (th * 4096) + (i * 8);
                    op_bytes = 4096;
                  })
            in
            match Lab_runtime.Client.block_batch c ~mount:"blk::/dev/m" ops with
            | Error err -> Printf.bprintf log "burst%d:%s;" th err
            | Ok results ->
                List.iteri
                  (fun i r ->
                    match r with
                    | Ok n -> Printf.bprintf log "w%d.%d:%d@%.0f;" th i n (Machine.now m)
                    | Error err -> Printf.bprintf log "w%d.%d:%s;" th i err)
                  results)
      done;
      Engine.await all_done);
  let inflight blk =
    let n = ref 0 in
    for q = 0 to Device.n_hw_queues dev - 1 do
      n := !n + Blk.inflight blk q
    done;
    !n
  in
  ( Buffer.contents log,
    Engine.events_executed e,
    Machine.now m,
    inflight switch + inflight backend.Lab_mods.Mods_env.blk )

let test_pinned_batch_schedule () =
  let log, events, now, inflight = pinned_batch_scenario () in
  (* Values captured while the batch still waited through a callback
     adapter. *)
  Alcotest.(check string) "completion times"
    ("batch0@39684;batch1@301828;"
    ^ "w0.0:4096@310716;w0.1:4096@310716;w0.2:4096@310716;w0.3:4096@310716;"
    ^ "w0.4:4096@310716;w0.5:4096@310716;w1.0:4096@323004;w1.1:4096@323004;"
    ^ "w1.2:4096@323004;w1.3:4096@323004;w1.4:4096@323004;w1.5:4096@323004;")
    log;
  Alcotest.(check int) "events_executed" 617 events;
  Alcotest.(check string) "final time" "323004.000" (Printf.sprintf "%.3f" now);
  Alcotest.(check int) "in flight after quiesce" 0 inflight

let () =
  Alcotest.run "lab_kernel"
    [
      ( "blk",
        [
          Alcotest.test_case "noop affinity" `Quick test_blk_noop_core_affinity;
          Alcotest.test_case "blk-switch steering" `Quick
            test_blk_switch_avoids_loaded_queue;
          QCheck_alcotest.to_alcotest prop_switch_hctx_matches_reference;
          Alcotest.test_case "switch_hctx allocates nothing" `Quick
            test_switch_hctx_allocates_nothing;
          Alcotest.test_case "polled vs irq" `Quick test_blk_polled_cheaper_than_irq;
          Alcotest.test_case "direct hctx" `Quick test_blk_direct_hctx_skips_irq;
          Alcotest.test_case "direct hctx wraps" `Quick test_blk_hctx_wraps;
        ] );
      ( "page-cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "eviction" `Quick test_cache_eviction_returns_dirty;
          Alcotest.test_case "dirty tracking" `Quick test_cache_dirty_tracking;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_lru_evicts_least_recent;
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
          Alcotest.test_case "touch allocates nothing" `Quick
            test_lru_touch_allocates_nothing;
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
          Alcotest.test_case "pinned batch schedule" `Quick
            test_pinned_batch_schedule;
        ] );
    ]
