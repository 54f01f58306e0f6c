(* Tests for lab_mods: LZ77, block allocator, and each LabMod's
   behaviour in isolation (driven through a minimal executor context). *)

open Lab_sim
open Lab_core
open Lab_mods

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* LZ77                                                                *)
(* ------------------------------------------------------------------ *)

let test_lz77_roundtrip_simple () =
  let s = Bytes.of_string "abcabcabcabcabcabc hello hello hello" in
  Alcotest.(check string) "roundtrip"
    (Bytes.to_string s)
    (Bytes.to_string (Lz77.decompress (Lz77.compress s)))

let test_lz77_compresses_redundancy () =
  let s = Bytes.make 65536 'x' in
  let r = Lz77.ratio s in
  Alcotest.(check bool) (Printf.sprintf "ratio %.4f < 0.05" r) true (r < 0.05)

let test_lz77_incompressible () =
  let rng = Rng.create 42 in
  let s = Bytes.init 4096 (fun _ -> Char.chr (Rng.int rng 256)) in
  Alcotest.(check string) "random data survives"
    (Bytes.to_string s)
    (Bytes.to_string (Lz77.decompress (Lz77.compress s)))

let test_lz77_empty () =
  Alcotest.(check int) "empty" 0
    (Bytes.length (Lz77.decompress (Lz77.compress Bytes.empty)))

let prop_lz77_roundtrip =
  QCheck.Test.make ~name:"lz77 roundtrip on arbitrary strings" ~count:300
    QCheck.(string_gen Gen.(char_range 'a' 'f'))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.to_string (Lz77.decompress (Lz77.compress b)) = s)

let prop_lz77_roundtrip_binary =
  QCheck.Test.make ~name:"lz77 roundtrip on binary strings" ~count:200
    QCheck.string
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.to_string (Lz77.decompress (Lz77.compress b)) = s)

let test_lz77_corrupt_rejected () =
  (try
     ignore (Lz77.decompress (Bytes.of_string "\x01\xff\xff\x10\x00"));
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Block allocator                                                     *)
(* ------------------------------------------------------------------ *)

let test_alloc_basic () =
  let a = Block_alloc.create ~total_blocks:1000 ~workers:4 () in
  Alcotest.(check int) "all free" 1000 (Block_alloc.free_blocks a);
  let blocks = Block_alloc.alloc a ~worker:0 10 in
  Alcotest.(check int) "ten allocated" 10 (List.length blocks);
  Alcotest.(check int) "990 free" 990 (Block_alloc.free_blocks a);
  Block_alloc.free a ~worker:0 blocks;
  Alcotest.(check int) "restored" 1000 (Block_alloc.free_blocks a)

let test_alloc_steals () =
  let a = Block_alloc.create ~total_blocks:100 ~workers:4 ~steal_chunk:8 () in
  (* Worker 0 owns 25 blocks; asking for 60 forces steals. *)
  let blocks = Block_alloc.alloc a ~worker:0 60 in
  Alcotest.(check int) "got 60" 60 (List.length blocks);
  Alcotest.(check bool) "steal happened" true (Block_alloc.steals a > 0);
  Alcotest.(check int) "40 left" 40 (Block_alloc.free_blocks a)

let test_alloc_exhaustion () =
  let a = Block_alloc.create ~total_blocks:10 ~workers:2 () in
  ignore (Block_alloc.alloc a ~worker:0 10);
  try
    ignore (Block_alloc.alloc a ~worker:1 1);
    Alcotest.fail "expected failure"
  with Failure _ -> ()

let prop_alloc_no_double_allocation =
  QCheck.Test.make ~name:"allocator never hands out a block twice" ~count:100
    QCheck.(pair (int_range 1 8) (small_list (int_range 1 40)))
    (fun (workers, asks) ->
      let a = Block_alloc.create ~total_blocks:2000 ~workers ~steal_chunk:16 () in
      let seen = Hashtbl.create 256 in
      List.for_all
        (fun n ->
          let blocks =
            try Block_alloc.alloc a ~worker:(n mod workers) n with Failure _ -> []
          in
          List.for_all
            (fun b ->
              if Hashtbl.mem seen b then false
              else begin
                Hashtbl.replace seen b ();
                true
              end)
            blocks)
        asks)

let prop_alloc_conservation =
  QCheck.Test.make ~name:"allocated + free = total" ~count:100
    QCheck.(small_list (int_range 1 30))
    (fun asks ->
      let total = 1000 in
      let a = Block_alloc.create ~total_blocks:total ~workers:4 ~steal_chunk:32 () in
      let allocated = ref 0 in
      List.iter
        (fun n ->
          match Block_alloc.alloc a ~worker:n n with
          | blocks -> allocated := !allocated + List.length blocks
          | exception Failure _ -> ())
        asks;
      !allocated + Block_alloc.free_blocks a = total)

let test_alloc_resize_preserves () =
  let a = Block_alloc.create ~total_blocks:1000 ~workers:4 () in
  ignore (Block_alloc.alloc a ~worker:0 100);
  Block_alloc.resize a ~workers:8;
  Alcotest.(check int) "free preserved" 900 (Block_alloc.free_blocks a);
  Alcotest.(check int) "new worker count" 8 (Block_alloc.workers a);
  let more = Block_alloc.alloc a ~worker:7 50 in
  Alcotest.(check int) "post-resize alloc works" 50 (List.length more)

(* ------------------------------------------------------------------ *)
(* Minimal harness to drive a single mod                               *)
(* ------------------------------------------------------------------ *)

let mk_req m ?(uid = 0) ?(thread = 0) payload =
  Request.make ~id:1 ~pid:1 ~uid ~thread ~stack_id:1 ~now:(Machine.now m) payload

let drive m ?(forward = fun _ -> Request.Done) (labmod : Labmod.t) req =
  let ctx =
    {
      Labmod.machine = m;
      thread = req.Request.thread;
      forward;
      forward_async = (fun r k -> k (forward r));
    }
  in
  labmod.Labmod.ops.Labmod.operate labmod ctx req

let block_write ?(lba = 0) bytes =
  Request.Block
    { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = false }

let block_read ?(lba = 0) bytes =
  Request.Block
    { Request.b_kind = Request.Read; b_lba = lba; b_bytes = bytes; b_sync = false }

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let test_kernel_driver_completes () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
      let kd = Kernel_driver.factory ~blk ~uuid:"kd" ~attrs:[] in
      let r = drive m kd (mk_req m (block_write 4096)) in
      Alcotest.(check bool) "size result" true (r = Request.Size 4096);
      Alcotest.(check int) "device saw the write" 1
        (Lab_device.Device.completed_writes dev))

(* A lost command keeps its waiter pending forever; the driver's next
   command must take a fresh waiter and complete. *)
let test_kernel_driver_survives_lost_command () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
      Lab_device.Device.set_fault_plan dev
        (Fault.create
           ~script:
             [
               Fault.One_shot
                 {
                   at_ns = 0.0;
                   queue = None;
                   fault = Fault.Transient_timeout Float.infinity;
                 };
             ]
           ~seed:1 ());
      let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
      let kd = Kernel_driver.factory ~blk ~uuid:"kd" ~attrs:[] in
      let first = ref None in
      Machine.spawn m (fun () -> first := Some (drive m kd (mk_req m (block_write 4096))));
      Engine.wait 50_000.0;
      let r = drive m kd (mk_req m (block_write ~lba:64 4096)) in
      Alcotest.(check bool) "next command completes" true (r = Request.Size 4096);
      Alcotest.(check bool) "lost command never returns" true (!first = None);
      Alcotest.(check int) "lost command still outstanding" 1
        (Lab_device.Device.outstanding dev);
      Alcotest.(check int) "only the second write completed" 1
        (Lab_device.Device.completed_writes dev))

let test_spdk_faster_than_kernel_driver () =
  let time_with make =
    in_sim (fun m ->
        let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.nvme in
        let labmod = make m dev in
        let t0 = Machine.now m in
        ignore (drive m labmod (mk_req m (block_write 4096)));
        Machine.now m -. t0)
  in
  let kd =
    time_with (fun m dev ->
        let blk = Lab_kernel.Blk.create m dev ~sched:Lab_kernel.Blk.Noop in
        Kernel_driver.factory ~blk ~uuid:"kd" ~attrs:[])
  in
  let spdk = time_with (fun _ dev -> Spdk_driver.factory ~device:dev ~uuid:"sp" ~attrs:[]) in
  Alcotest.(check bool)
    (Printf.sprintf "spdk %.0f < kernel driver %.0f" spdk kd)
    true (spdk < kd)

let test_spdk_rejects_hdd () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.hdd in
      try
        ignore (Spdk_driver.factory ~device:dev ~uuid:"sp" ~attrs:[]);
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ())

let test_dax_on_pmem () =
  in_sim (fun m ->
      let dev = Lab_device.Device.create m.Machine.engine Lab_device.Profile.pmem in
      let dax = Dax_driver.factory ~device:dev ~uuid:"dax" ~attrs:[] in
      let t0 = Machine.now m in
      ignore (drive m dax (mk_req m (block_write 4096)));
      let dt = Machine.now m -. t0 in
      Alcotest.(check bool) (Printf.sprintf "dax 4K write %.0f < 3000 ns" dt) true
        (dt < 3000.0))

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let test_noop_sched_core_keying () =
  in_sim (fun m ->
      let sched = Noop_sched.factory ~nqueues:8 ~uuid:"noop" ~attrs:[] in
      let req = mk_req m ~thread:5 (block_write 4096) in
      ignore (drive m sched req);
      Alcotest.(check (option int)) "hctx = thread mod queues" (Some 5)
        req.Request.hint_hctx)

let test_blkswitch_avoids_loaded () =
  in_sim (fun m ->
      let sched = Blkswitch_sched.factory ~nqueues:4 () ~uuid:"bsw" ~attrs:[] in
      (* Occupy queue 0 with a long-running request. *)
      let blocker = Engine.make_park_cell () in
      Engine.spawn m.Machine.engine (fun () ->
          let big = mk_req m ~thread:0 (block_write (32 * 1024 * 1024)) in
          ignore
            (drive m
               ~forward:(fun _ ->
                 Engine.park blocker;
                 Request.Done)
               sched big));
      Engine.wait 10.0;
      let small = mk_req m ~thread:0 (block_write 4096) in
      ignore (drive m sched small);
      if Engine.parked blocker then Engine.unpark blocker
      else Alcotest.fail "no blocker";
      Alcotest.(check bool) "small request steered off queue 0" true
        (small.Request.hint_hctx <> Some 0 && small.Request.hint_hctx <> None))

(* ------------------------------------------------------------------ *)
(* LRU cache mod                                                       *)
(* ------------------------------------------------------------------ *)

let test_lru_mod_write_back_and_hit () =
  in_sim (fun m ->
      let cache = Lru_cache.factory () ~uuid:"lru" ~attrs:[ ("capacity_mb", Yamlite.Int 1) ] in
      let downstream = ref 0 in
      let forward _ =
        incr downstream;
        Request.Done
      in
      ignore (drive m ~forward cache (mk_req m (block_write ~lba:10 4096)));
      Alcotest.(check int) "write absorbed by the cache" 0 !downstream;
      let r = drive m ~forward cache (mk_req m (block_read ~lba:10 4096)) in
      Alcotest.(check bool) "read served from cache" true (r = Request.Size 4096);
      Alcotest.(check int) "no downstream read" 0 !downstream;
      ignore (drive m ~forward cache (mk_req m (block_read ~lba:999 4096)));
      Alcotest.(check int) "miss went downstream" 1 !downstream;
      Alcotest.(check int) "hit counter" 1 (Lru_cache.hits cache);
      Alcotest.(check int) "miss counter" 1 (Lru_cache.misses cache))

let test_lru_mod_eviction_writes_back () =
  in_sim (fun m ->
      (* 1 MiB capacity = 256 pages; write 300 distinct pages: the 44
         evicted dirty pages must flow downstream — but coalesced into
         adjacent-LBA batches, not one op per page. *)
      let cache = Lru_cache.factory () ~uuid:"lru" ~attrs:[ ("capacity_mb", Yamlite.Int 1) ] in
      let downstream_ops = ref 0 in
      let downstream_pages = ref 0 in
      let forward r =
        (match r.Request.payload with
        | Request.Block { b_kind = Request.Write; b_bytes; _ } ->
            incr downstream_ops;
            downstream_pages := !downstream_pages + (b_bytes / 4096)
        | _ -> ());
        Request.Done
      in
      for i = 0 to 299 do
        ignore (drive m ~forward cache (mk_req m (block_write ~lba:i 4096)))
      done;
      (* Flush whatever is still sitting in the write-back log. *)
      ignore (drive m ~forward cache (mk_req m (Request.Control 0)));
      Alcotest.(check int) "evicted dirty pages written back" 44 !downstream_pages;
      Alcotest.(check bool)
        (Printf.sprintf "coalesced: %d ops < 44 pages" !downstream_ops)
        true
        (!downstream_ops < 44);
      ignore (drive m ~forward cache (mk_req m (block_read ~lba:0 4096)));
      Alcotest.(check int) "early page evicted -> miss" 1 (Lru_cache.misses cache))

(* ------------------------------------------------------------------ *)
(* Permissions mod                                                     *)
(* ------------------------------------------------------------------ *)

let test_permissions_allow_deny () =
  in_sim (fun m ->
      let perm = Permissions.factory ~uuid:"perm" ~attrs:[] in
      Permissions.add_rule perm ~uid:42 ~prefix:"fs::/secret" ~allow:false;
      let ok =
        drive m perm (mk_req m ~uid:42 (Request.Posix (Request.Create { path = "fs::/public/a" })))
      in
      Alcotest.(check bool) "public allowed" true (Request.is_ok ok);
      let denied =
        drive m perm
          (mk_req m ~uid:42 (Request.Posix (Request.Create { path = "fs::/secret/b" })))
      in
      (match denied with
      | Request.Denied _ -> ()
      | _ -> Alcotest.fail "expected denial");
      let other_uid =
        drive m perm
          (mk_req m ~uid:7 (Request.Posix (Request.Create { path = "fs::/secret/b" })))
      in
      Alcotest.(check bool) "rule is per-uid" true (Request.is_ok other_uid))

let test_permissions_default_deny () =
  in_sim (fun m ->
      let perm =
        Permissions.factory ~uuid:"perm"
          ~attrs:[ ("default_allow", Yamlite.Bool false) ]
      in
      Permissions.add_rule perm ~uid:1 ~prefix:"kv::/" ~allow:true;
      let denied = drive m perm (mk_req m ~uid:2 (Request.Kv (Request.Get { key = "kv::/x" }))) in
      (match denied with
      | Request.Denied _ -> ()
      | _ -> Alcotest.fail "expected default deny");
      let ok = drive m perm (mk_req m ~uid:1 (Request.Kv (Request.Get { key = "kv::/x" }))) in
      Alcotest.(check bool) "granted uid passes" true (Request.is_ok ok))

(* ------------------------------------------------------------------ *)
(* Compression mod                                                     *)
(* ------------------------------------------------------------------ *)

let test_compress_shrinks_downstream () =
  in_sim (fun m ->
      let comp =
        Compress_mod.factory ~uuid:"z" ~attrs:[ ("ratio", Yamlite.Float 0.25) ]
      in
      let downstream_bytes = ref 0 in
      let forward r =
        downstream_bytes := Request.bytes_of r;
        Request.Done
      in
      ignore (drive m ~forward comp (mk_req m (block_write 40960)));
      Alcotest.(check int) "quarter size downstream" 10240 !downstream_bytes;
      Alcotest.(check int) "bytes saved" (40960 - 10240) (Compress_mod.bytes_saved comp))

let test_compress_charges_cpu_time () =
  in_sim (fun m ->
      let comp = Compress_mod.factory ~uuid:"z" ~attrs:[] in
      let t0 = Machine.now m in
      ignore (drive m comp (mk_req m (block_write (32 * 1024 * 1024)))) ;
      let dt = Machine.now m -. t0 in
      (* 32 MiB at 0.625 ns/B ≈ 21 ms, the paper's ~20 ms compression. *)
      Alcotest.(check bool) (Printf.sprintf "32M compression %.1f ms ≈ 20 ms" (dt /. 1e6))
        true
        (dt > 15e6 && dt < 30e6))

(* ------------------------------------------------------------------ *)
(* LabFS                                                               *)
(* ------------------------------------------------------------------ *)

let labfs m =
  ignore m;
  Labfs.factory ~total_blocks:100000 ~nworkers:4 () ~uuid:"labfs" ~attrs:[]

let test_labfs_create_write_read () =
  in_sim (fun m ->
      let fs = labfs m in
      let forwarded = ref [] in
      let forward r =
        forwarded := r.Request.payload :: !forwarded;
        Request.Done
      in
      ignore (drive m ~forward fs (mk_req m (Request.Posix (Request.Create { path = "/a" }))));
      Alcotest.(check int) "one file" 1 (Labfs.file_count fs);
      let w =
        drive m ~forward fs
          (mk_req m (Request.Posix (Request.Pwrite { fd = 3; path = "/a"; off = 0; bytes = 8192 })))
      in
      Alcotest.(check bool) "write ok" true (Request.is_ok w);
      let inode = Option.get (Labfs.lookup fs "/a") in
      Alcotest.(check int) "size" 8192 inode.Labfs.size;
      Alcotest.(check int) "two blocks" 2 inode.Labfs.nblocks;
      (match !forwarded with
      | Request.Block { b_kind = Request.Write; b_bytes = 8192; _ } :: _ -> ()
      | _ -> Alcotest.fail "expected downstream block write");
      let r =
        drive m ~forward fs
          (mk_req m (Request.Posix (Request.Pread { fd = 3; path = "/a"; off = 0; bytes = 8192 })))
      in
      Alcotest.(check bool) "read ok" true (Request.is_ok r))

let test_labfs_missing_file () =
  in_sim (fun m ->
      let fs = labfs m in
      match
        drive m fs
          (mk_req m (Request.Posix (Request.Pread { fd = 3; path = "/ghost"; off = 0; bytes = 1 })))
      with
      | Request.Failed _ -> ()
      | _ -> Alcotest.fail "expected failure")

let test_labfs_unlink_frees_blocks () =
  in_sim (fun m ->
      let fs = labfs m in
      let forward _ = Request.Done in
      let free0 = Block_alloc.free_blocks (Labfs.allocator fs) in
      ignore (drive m ~forward fs (mk_req m (Request.Posix (Request.Create { path = "/a" }))));
      ignore
        (drive m ~forward fs
           (mk_req m (Request.Posix (Request.Pwrite { fd = 3; path = "/a"; off = 0; bytes = 40960 }))));
      Alcotest.(check int) "blocks consumed" (free0 - 10)
        (Block_alloc.free_blocks (Labfs.allocator fs));
      ignore (drive m ~forward fs (mk_req m (Request.Posix (Request.Unlink { path = "/a" }))));
      Alcotest.(check int) "blocks returned" free0
        (Block_alloc.free_blocks (Labfs.allocator fs));
      Alcotest.(check int) "no files" 0 (Labfs.file_count fs))

let test_labfs_log_replay_equals_state () =
  in_sim (fun m ->
      let fs = labfs m in
      let forward _ = Request.Done in
      let exec payload = ignore (drive m ~forward fs (mk_req m (Request.Posix payload))) in
      exec (Request.Create { path = "/a" });
      exec (Request.Create { path = "/b" });
      exec (Request.Pwrite { fd = 3; path = "/a"; off = 0; bytes = 12288 });
      exec (Request.Unlink { path = "/b" });
      exec (Request.Rename { src = "/a"; dst = "/c" });
      exec (Request.Create { path = "/d" });
      let rebuilt = Labfs.replay (Labfs.log_of fs) in
      let live = List.sort compare (List.map fst (Labfs.inodes_of fs)) in
      let replayed =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) rebuilt [])
      in
      Alcotest.(check (list string)) "same paths" live replayed;
      let c_live = Option.get (Labfs.lookup fs "/c") in
      let c_replayed = Hashtbl.find rebuilt "/c" in
      Alcotest.(check int) "size recovered" c_live.Labfs.size c_replayed.Labfs.size;
      Alcotest.(check int) "blocks recovered" c_live.Labfs.nblocks
        c_replayed.Labfs.nblocks)

let prop_labfs_replay =
  QCheck.Test.make ~name:"labfs: replay(log) = live inode table" ~count:60
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 5)))
    (fun script ->
      in_sim (fun m ->
          let fs = labfs m in
          let forward _ = Request.Done in
          let path i = Printf.sprintf "/f%d" i in
          List.iter
            (fun (op, i) ->
              let payload =
                match op with
                | 0 -> Request.Create { path = path i }
                | 1 -> Request.Pwrite { fd = 3; path = path i; off = 0; bytes = 4096 * (i + 1) }
                | 2 -> Request.Unlink { path = path i }
                | _ -> Request.Rename { src = path i; dst = path (i + 10) }
              in
              ignore (drive m ~forward fs (mk_req m (Request.Posix payload))))
            script;
          let rebuilt = Labfs.replay (Labfs.log_of fs) in
          let live =
            List.sort compare
              (List.map (fun (p, (i : Labfs.inode)) -> (p, i.Labfs.size, i.Labfs.nblocks))
                 (Labfs.inodes_of fs))
          in
          let replayed =
            List.sort compare
              (Hashtbl.fold
                 (fun p (i : Labfs.inode) acc -> (p, i.Labfs.size, i.Labfs.nblocks) :: acc)
                 rebuilt [])
          in
          live = replayed))

(* ------------------------------------------------------------------ *)
(* LabKVS                                                              *)
(* ------------------------------------------------------------------ *)

let test_labkvs_put_get_delete () =
  in_sim (fun m ->
      let kvs = Labkvs.factory ~total_blocks:100000 ~nworkers:4 ~uuid:"kvs" ~attrs:[] in
      let forward _ = Request.Done in
      let r = drive m ~forward kvs (mk_req m (Request.Kv (Request.Put { key = "k1"; bytes = 8192 }))) in
      Alcotest.(check bool) "put ok" true (Request.is_ok r);
      Alcotest.(check bool) "key exists" true (Labkvs.mem kvs "k1");
      let g = drive m ~forward kvs (mk_req m (Request.Kv (Request.Get { key = "k1" }))) in
      Alcotest.(check bool) "get ok" true (Request.is_ok g);
      let d = drive m ~forward kvs (mk_req m (Request.Kv (Request.Delete { key = "k1" }))) in
      Alcotest.(check bool) "delete ok" true (Request.is_ok d);
      Alcotest.(check int) "empty" 0 (Labkvs.key_count kvs);
      match drive m ~forward kvs (mk_req m (Request.Kv (Request.Get { key = "k1" }))) with
      | Request.Failed _ -> ()
      | _ -> Alcotest.fail "expected failure after delete")

(* ------------------------------------------------------------------ *)
(* Dummy (upgrade target)                                              *)
(* ------------------------------------------------------------------ *)

let test_dummy_counts_and_upgrades () =
  in_sim (fun m ->
      let d1 = Dummy_mod.factory ~tag:"v1" () ~uuid:"d" ~attrs:[] in
      for _ = 1 to 3 do
        ignore (drive m d1 (mk_req m (Request.Control 0)))
      done;
      Alcotest.(check int) "counted" 3 (Dummy_mod.messages d1);
      (* Simulate the upgrade state transfer into v2 code. *)
      let v2_factory = Dummy_mod.factory ~tag:"v2" () in
      let d2 = v2_factory ~uuid:"d" ~attrs:[] in
      d2.Labmod.state <- d2.Labmod.ops.Labmod.state_update d1.Labmod.state;
      Alcotest.(check int) "messages survive upgrade" 3 (Dummy_mod.messages d2);
      Alcotest.(check string) "new code tag" "v2" (Dummy_mod.tag d2))

let () =
  Alcotest.run "lab_mods"
    [
      ( "lz77",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_lz77_roundtrip_simple;
          Alcotest.test_case "compresses redundancy" `Quick
            test_lz77_compresses_redundancy;
          Alcotest.test_case "incompressible" `Quick test_lz77_incompressible;
          Alcotest.test_case "empty" `Quick test_lz77_empty;
          Alcotest.test_case "corrupt rejected" `Quick test_lz77_corrupt_rejected;
          QCheck_alcotest.to_alcotest prop_lz77_roundtrip;
          QCheck_alcotest.to_alcotest prop_lz77_roundtrip_binary;
        ] );
      ( "block-alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "steals" `Quick test_alloc_steals;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "resize" `Quick test_alloc_resize_preserves;
          QCheck_alcotest.to_alcotest prop_alloc_no_double_allocation;
          QCheck_alcotest.to_alcotest prop_alloc_conservation;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "kernel driver" `Quick test_kernel_driver_completes;
          Alcotest.test_case "kernel driver survives a lost command" `Quick
            test_kernel_driver_survives_lost_command;
          Alcotest.test_case "spdk < kernel driver" `Quick
            test_spdk_faster_than_kernel_driver;
          Alcotest.test_case "spdk rejects hdd" `Quick test_spdk_rejects_hdd;
          Alcotest.test_case "dax on pmem" `Quick test_dax_on_pmem;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "noop keying" `Quick test_noop_sched_core_keying;
          Alcotest.test_case "blk-switch steering" `Quick test_blkswitch_avoids_loaded;
        ] );
      ( "lru-cache",
        [
          Alcotest.test_case "write-back & hit" `Quick
            test_lru_mod_write_back_and_hit;
          Alcotest.test_case "eviction writeback" `Quick
            test_lru_mod_eviction_writes_back;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "allow/deny" `Quick test_permissions_allow_deny;
          Alcotest.test_case "default deny" `Quick test_permissions_default_deny;
        ] );
      ( "compress",
        [
          Alcotest.test_case "shrinks downstream" `Quick test_compress_shrinks_downstream;
          Alcotest.test_case "charges cpu" `Quick test_compress_charges_cpu_time;
        ] );
      ( "labfs",
        [
          Alcotest.test_case "create/write/read" `Quick test_labfs_create_write_read;
          Alcotest.test_case "missing file" `Quick test_labfs_missing_file;
          Alcotest.test_case "unlink frees" `Quick test_labfs_unlink_frees_blocks;
          Alcotest.test_case "log replay" `Quick test_labfs_log_replay_equals_state;
          QCheck_alcotest.to_alcotest prop_labfs_replay;
        ] );
      ( "labkvs",
        [ Alcotest.test_case "put/get/delete" `Quick test_labkvs_put_get_delete ] );
      ( "dummy",
        [ Alcotest.test_case "count & upgrade" `Quick test_dummy_counts_and_upgrades ] );
    ]
