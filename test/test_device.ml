(* Tests for lab_device: service model, FIFO per queue, parallelism,
   seek behaviour, flush, counters. *)

open Lab_sim
open Lab_device

let in_sim f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* A fresh waiter whose notify runs [f]. *)
let waiter_with f =
  let w = Device.take_waiter (Device.waiter_pool ()) in
  Device.set_notify w f;
  w

(* Submits one write per [(hctx, lba, bytes)] on its own waiter, runs
   [on_done lba] from each notify and parks until the last one. *)
let write_all ?(on_done = ignore) dev cmds =
  let all_done = Engine.join (List.length cmds) in
  List.iter
    (fun (hctx, lba, bytes) ->
      let w =
        waiter_with (fun _ ->
            on_done lba;
            Engine.arrive all_done)
      in
      Device.submit_waiter dev w ~hctx ~kind:Write ~lba ~bytes)
    cmds;
  Engine.await all_done

let test_single_write_latency () =
  let elapsed =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        let w = waiter_with Device.wake in
        Device.submit_waiter dev w ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
        Device.await w;
        Device.waiter_completed w -. Device.waiter_submitted w)
  in
  (* 6 us latency + 4096 B / 2 B/ns = 2048 ns transfer *)
  Alcotest.(check (float 1.0)) "4K NVMe write" 8048.0 elapsed

let test_reads_and_writes_counted () =
  in_sim (fun e ->
      let dev = Device.create e Profile.pmem in
      Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
      Device.submit_wait dev ~hctx:0 ~kind:Read ~lba:0 ~bytes:8192;
      Alcotest.(check int) "writes" 1 (Device.completed_writes dev);
      Alcotest.(check int) "reads" 1 (Device.completed_reads dev);
      Alcotest.(check int) "bytes written" 4096 (Device.bytes_written dev);
      Alcotest.(check int) "bytes read" 8192 (Device.bytes_read dev))

let test_hdd_sequential_vs_random () =
  let seq =
    in_sim (fun e ->
        let dev = Device.create e Profile.hdd in
        for i = 0 to 9 do
          Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:i ~bytes:4096
        done;
        Engine.now e)
  in
  let rand =
    in_sim (fun e ->
        let dev = Device.create e Profile.hdd in
        for i = 0 to 9 do
          Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:(i * 1000) ~bytes:4096
        done;
        Engine.now e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "random (%.0f) much slower than sequential (%.0f)" rand seq)
    true
    (rand > seq *. 5.0)

let test_nvme_parallelism () =
  (* 16 concurrent 4K writes on 16 queues should take far less than 16x
     one write (latency stage overlaps). *)
  let one =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
        Engine.now e)
  in
  let sixteen =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        write_all dev (List.init 16 (fun i -> (i, i * 8, 4096)));
        Engine.now e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "16 parallel (%.0f) < 8x single (%.0f)" sixteen one)
    true
    (sixteen < one *. 8.0)

let test_sata_single_queue_serializes () =
  (* SATA has 1 hw queue; its 4 channels still allow some overlap, but
     the transfer stage and queueing keep scaling well below 16x. *)
  let one =
    in_sim (fun e ->
        let dev = Device.create e Profile.sata_ssd in
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
        Engine.now e)
  in
  let sixteen =
    in_sim (fun e ->
        let dev = Device.create e Profile.sata_ssd in
        write_all dev (List.init 16 (fun i -> (i, i * 8, 4096)));
        Engine.now e)
  in
  Alcotest.(check bool) "sata scales worse than nvme" true (sixteen >= one *. 3.0)

let test_large_io_bandwidth_bound () =
  let t_4k =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
        Engine.now e)
  in
  let t_1m =
    in_sim (fun e ->
        let dev = Device.create e Profile.nvme in
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:(1024 * 1024);
        Engine.now e)
  in
  (* 1 MiB transfer = 524288 ns dominates the 12 us latency. *)
  Alcotest.(check bool) "1M dominated by transfer" true
    (t_1m > t_4k *. 10.0 && t_1m > 500_000.0)

let test_flush_waits_for_outstanding () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let completions = ref 0 in
      for i = 0 to 7 do
        Device.submit_waiter dev
          (waiter_with (fun _ -> incr completions))
          ~hctx:i ~kind:Write ~lba:(i * 8) ~bytes:65536
      done;
      Device.flush dev;
      Alcotest.(check int) "flush returned after all completions" 8 !completions;
      Alcotest.(check int) "nothing outstanding" 0 (Device.outstanding dev))

let test_per_queue_fifo () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let order = ref [] in
      write_all dev
        (List.init 8 (fun i -> (0, i * 1000, 4096)))
        ~on_done:(fun lba -> order := lba :: !order);
      Alcotest.(check (list int)) "same-queue completions in order"
        [ 0; 1000; 2000; 3000; 4000; 5000; 6000; 7000 ]
        (List.rev !order))

let test_service_stats_collected () =
  in_sim (fun e ->
      let dev = Device.create e Profile.pmem in
      for _ = 1 to 10 do
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096
      done;
      let svc = Device.service_stats dev in
      Alcotest.(check int) "10 samples" 10 (Lab_obs.Hist.count svc);
      (* Reset in place: the same histogram, emptied, keeps counting. *)
      Device.reset_stats dev;
      Alcotest.(check bool) "same histogram" true
        (Device.service_stats dev == svc);
      Alcotest.(check int) "reset" 0 (Lab_obs.Hist.count svc);
      Alcotest.(check (float 0.0)) "reset sum" 0.0 (Lab_obs.Hist.sum svc);
      for _ = 1 to 3 do
        Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096
      done;
      Alcotest.(check int) "counted after reset" 3 (Lab_obs.Hist.count svc);
      Alcotest.(check bool) "service time after reset" true
        (Lab_obs.Hist.min_value svc > 0.0))

let prop_device_kinds_latency_order =
  QCheck.Test.make ~name:"PMEM < NVMe < SSD < HDD for 4K random writes"
    ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let time_for profile =
        in_sim (fun e ->
            let dev = Device.create e profile in
            let rng = Rng.create seed in
            for _ = 1 to 20 do
              let lba = Rng.int rng 100000 in
              Device.submit_wait dev ~hctx:0 ~kind:Write ~lba ~bytes:4096
            done;
            Engine.now e)
      in
      let pm = time_for Profile.pmem
      and nv = time_for Profile.nvme
      and sd = time_for Profile.sata_ssd
      and hd = time_for Profile.hdd in
      pm < nv && nv < sd && sd < hd)

(* [finish]'s order: when a command completes, the service sample, the
   counters and [outstanding] are already updated for its notify,
   and flush waiters are woken before the submitter, so they resume
   first at the same instant. *)
let test_finish_order () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let order = Buffer.create 8 in
      Engine.spawn e (fun () ->
          Device.submit_wait dev ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
          Buffer.add_string order "submitter;");
      Engine.spawn e (fun () ->
          Device.flush dev;
          Buffer.add_string order "flusher;");
      Engine.wait 20_000.0;
      Alcotest.(check string) "flush waiters resume before the submitter"
        "flusher;submitter;" (Buffer.contents order);
      let seen = ref "" in
      Device.submit_waiter dev
        (waiter_with (fun _ ->
             seen :=
               Printf.sprintf "out=%d writes=%d samples=%d"
                 (Device.outstanding dev) (Device.completed_writes dev)
                 (Lab_obs.Hist.count (Device.service_stats dev))))
        ~hctx:1 ~kind:Write ~lba:8 ~bytes:4096;
      Engine.wait 20_000.0;
      Alcotest.(check string) "notify sees finished accounting"
        "out=0 writes=2 samples=2" !seen)

(* Pool safety: a waiter is free again only once its command finished. *)
let test_waiter_resubmit_raises () =
  in_sim (fun e ->
      let dev = Device.create e Profile.nvme in
      let pool = Device.waiter_pool () in
      let w = Device.take_waiter pool in
      Device.submit_waiter dev w ~hctx:0 ~kind:Write ~lba:0 ~bytes:4096;
      (match Device.submit_waiter dev w ~hctx:1 ~kind:Write ~lba:8 ~bytes:4096 with
      | () -> Alcotest.fail "resubmitting a pending waiter must raise"
      | exception Invalid_argument _ -> ());
      (match Device.give_waiter pool w with
      | () -> Alcotest.fail "pooling a pending waiter must raise"
      | exception Invalid_argument _ -> ());
      Device.await w;
      Alcotest.(check bool) "first command succeeded" true
        (Device.waiter_error w = None);
      Alcotest.(check int) "the refused submission issued nothing" 1
        (Device.completed_writes dev);
      Device.give_waiter pool w;
      let w' = Device.take_waiter pool in
      Alcotest.(check bool) "pool hands the waiter back" true (w' == w);
      Device.submit_waiter dev w' ~hctx:1 ~kind:Read ~lba:8 ~bytes:(1 lsl 20);
      Device.await w';
      Alcotest.(check bool) "reused for a split command" true
        (Device.waiter_error w' = None && Device.waiter_bytes w' = 1 lsl 20);
      Alcotest.(check int) "nothing outstanding" 0 (Device.outstanding dev))

(* A fixed mix on one 8-hctx NVMe device: 4 KiB, 64 KiB and 1 MiB
   reads and writes (1 MiB splits into 4 chunks) from blocking
   submitters and from notify callbacks, under a fault plan with a media
   error, a torn write, a finite delay, a lost command, rate faults, a
   per-queue offline window with commands queued on that queue, and a
   whole-device window. Each command's outcome and completion instant,
   the event count and the device counters are pinned, so any change
   to the device's schedule shows here event for event. *)
let pinned_device_scenario () =
  let e = Engine.create () in
  let dev = Device.create e { Profile.nvme with Profile.n_hw_queues = 8 } in
  Device.set_fault_plan dev
    (Fault.create
       ~rates:
         {
           Fault.io_error = 0.02;
           timeout = 0.02;
           timeout_delay_ns = 9_000.0;
           torn_write = 0.02;
         }
       ~script:
         [
           Fault.One_shot { at_ns = 0.0; queue = Some 2; fault = Fault.Io_error };
           Fault.One_shot
             { at_ns = 30_000.0; queue = Some 5; fault = Fault.Torn_write 5000 };
           Fault.One_shot
             {
               at_ns = 50_000.0;
               queue = None;
               fault = Fault.Transient_timeout 15_000.0;
             };
           Fault.One_shot
             {
               at_ns = 70_000.0;
               queue = Some 1;
               fault = Fault.Transient_timeout Float.infinity;
             };
           Fault.Offline { from_ns = 120_000.0; until_ns = 160_000.0; queue = Some 3 };
           Fault.Offline { from_ns = 400_000.0; until_ns = 430_000.0; queue = None };
         ]
       ~seed:11 ());
  let log = Buffer.create 4096 in
  (* A masked outcome is logged as a success with the command's times,
     the way a caller that never reads [waiter_error] sees it. *)
  let note ~masked id w =
    match Device.waiter_error w with
    | Some err when not masked ->
        Printf.bprintf log "%d:%s@%.0f;" id (Device.error_to_string err)
          (Engine.now e)
    | _ ->
        Printf.bprintf log "%d:ok %.0f-%.0f;" id (Device.waiter_submitted w)
          (Device.waiter_completed w)
  in
  let sizes = [| 4096; 65536; 1 lsl 20 |] in
  (* Four blocking submitters; the last one masks faults. *)
  for th = 0 to 3 do
    Engine.spawn e (fun () ->
        let w = waiter_with Device.wake in
        for i = 0 to 29 do
          let id = (th * 100) + i in
          let bytes = sizes.((th + i) mod 3) in
          let kind = if (i + th) mod 2 = 0 then Device.Write else Device.Read in
          let hctx = ((th * 3) + i) mod 8 in
          let lba = id * 512 in
          Device.submit_waiter dev w ~hctx ~kind ~lba ~bytes;
          Device.await w;
          note ~masked:(th = 3) id w;
          Engine.wait (Stdlib.float_of_int (((i * 7919) + (th * 104729)) mod 3000))
        done)
  done;
  (* Notify bursts that overrun the 16 channels, so commands queue on
     one hctx ahead of its offline window and ahead of device loss; the
     burst at 125 us lands inside the window and is rejected. *)
  let burst ~at ~base ~hctx ~masked =
    Engine.spawn_at e at (fun () ->
        for j = 0 to 23 do
          let id = base + j in
          let bytes = sizes.(j mod 3) in
          let kind = if j mod 3 = 0 then Device.Read else Device.Write in
          let lba = id * 64 in
          Device.submit_waiter dev (waiter_with (note ~masked id)) ~hctx ~kind
            ~lba ~bytes
        done)
  in
  burst ~at:115_000.0 ~base:1000 ~hctx:3 ~masked:false;
  burst ~at:125_000.0 ~base:1500 ~hctx:3 ~masked:false;
  burst ~at:200_000.0 ~base:2000 ~hctx:6 ~masked:true;
  burst ~at:395_000.0 ~base:3000 ~hctx:4 ~masked:false;
  Engine.run e;
  let counters =
    Printf.sprintf "r%d w%d err%d br%d bw%d svc%d" (Device.completed_reads dev)
      (Device.completed_writes dev) (Device.completed_errors dev)
      (Device.bytes_read dev) (Device.bytes_written dev)
      (Lab_obs.Hist.count (Device.service_stats dev))
  in
  let faults =
    match Device.fault_plan dev with
    | Some p -> Fault.trace_to_string p
    | None -> ""
  in
  ( Buffer.contents log ^ "\n" ^ faults,
    Engine.events_executed e,
    Engine.now e,
    Device.outstanding dev,
    counters )

let test_pinned_device_schedule () =
  let log, events, now, outstanding, counters = pinned_device_scenario () in
  (* Values captured before the device path was pooled. *)
  if Digest.to_hex (Digest.string log) <> "77444f671351cb8eeb5e90849fca13bc"
  then Alcotest.failf "outcomes or fault trace changed:\n%s" log;
  Alcotest.(check int) "events_executed" 1363 events;
  Alcotest.(check string) "final time" "22043472.500" (Printf.sprintf "%.3f" now);
  Alcotest.(check int) "outstanding (the lost command)" 1 outstanding;
  Alcotest.(check string) "counters"
    "r99 w129 err105 br17584128 bw26488057 svc333" counters

let () =
  Alcotest.run "lab_device"
    [
      ( "service-model",
        [
          Alcotest.test_case "single write latency" `Quick test_single_write_latency;
          Alcotest.test_case "counters" `Quick test_reads_and_writes_counted;
          Alcotest.test_case "hdd seek" `Quick test_hdd_sequential_vs_random;
          Alcotest.test_case "nvme parallelism" `Quick test_nvme_parallelism;
          Alcotest.test_case "sata serialization" `Quick
            test_sata_single_queue_serializes;
          Alcotest.test_case "large io bandwidth bound" `Quick
            test_large_io_bandwidth_bound;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "flush" `Quick test_flush_waits_for_outstanding;
          Alcotest.test_case "per-queue fifo" `Quick test_per_queue_fifo;
          Alcotest.test_case "service stats" `Quick test_service_stats_collected;
          QCheck_alcotest.to_alcotest prop_device_kinds_latency_order;
          Alcotest.test_case "pinned device schedule" `Quick
            test_pinned_device_schedule;
          Alcotest.test_case "finish order" `Quick test_finish_order;
          Alcotest.test_case "waiter resubmit raises" `Quick
            test_waiter_resubmit_raises;
        ] );
    ]
