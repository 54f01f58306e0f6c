(* Batched submission/completion path sweep.

   Drives sequential 512 B writes through a blkswitch_sched ->
   kernel_driver stack on NVMe, sweeping the client batch size at fixed
   queue depths. Each thread owns a private LBA region and submits
   contiguous runs, so batches both coalesce doorbells (one ring per
   batch at the queue pair) and merge at the scheduler (adjacent LBAs
   fused into one device op). batch=1 takes the classic single-request
   path and must reproduce the unbatched numbers.

   Reported per point: throughput, p99 latency, doorbell rings per
   request, scheduler merges per request, and simulator events executed
   (a determinism fingerprint). Set LABSTOR_WALLCLOCK for events/sec of
   the simulator itself; --smoke shrinks the workload for CI. *)

open Labstor
open Lab_sim

let stack_spec ~merge_window_ns =
  Printf.sprintf
    {|
mount: "blk::/batch"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    attrs:
      merge_window_ns: %.1f
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
    merge_window_ns

(* 512 B writes: small enough that the NVMe bandwidth cap (2 GB/s =
   488k 4 KiB-IOPS) is far away and the per-request software path —
   doorbells, cross-core pulls, per-command device overhead — is what
   the sweep measures. *)
let bytes = 512

let sectors_per_op = bytes / 512

(* Thread-private LBA regions keep the streams disjoint: merges only
   ever fuse requests from the same batch. *)
let region_sectors = 16_777_216

let merge_window_ns ~batch = if batch > 1 then 2_000.0 else 0.0

type outcome = {
  kiops : float;
  p99_us : float;
  doorbells_per_req : float;
  merges_per_req : float;
  events : int;
}

let run_case ~seed ~qd ~batch ~total_ops =
  let threads = Stdlib.max 1 (qd / batch) in
  let rounds = Stdlib.max 1 (total_ops / (threads * batch)) in
  let total = threads * rounds * batch in
  let platform =
    Platform.boot ~nworkers:4 ~seed
      ~config:{ Runtime.Runtime.default_config with worker_batch_size = batch }
      ()
  in
  (match
     Platform.mount platform (stack_spec ~merge_window_ns:(merge_window_ns ~batch))
   with
  | Ok _ -> ()
  | Error e -> failwith ("exp_batching: mount: " ^ e));
  let machine = Platform.machine platform in
  let lat = Obs.Hist.create () in
  let failed = ref 0 in
  Platform.go platform (fun () ->
      let all_done = Engine.join threads in
      for th = 0 to threads - 1 do
        Engine.spawn machine.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:th () in
            let cursor = ref (th * region_sectors) in
            for _ = 1 to rounds do
              let t0 = Machine.now machine in
              (if batch = 1 then
                 match
                   Runtime.Client.write_block c ~mount:"blk::/batch"
                     ~lba:!cursor ~bytes
                 with
                 | Ok _ -> Obs.Hist.observe lat (Machine.now machine -. t0)
                 | Error _ -> incr failed
               else
                 let ops =
                   List.init batch (fun i ->
                       {
                         Runtime.Client.op_kind = Core.Request.Write;
                         op_lba = !cursor + (i * sectors_per_op);
                         op_bytes = bytes;
                       })
                 in
                 match Runtime.Client.block_batch c ~mount:"blk::/batch" ops with
                 | Error _ -> failed := !failed + batch
                 | Ok results ->
                     let dt = Machine.now machine -. t0 in
                     List.iter
                       (function
                         | Ok _ -> Obs.Hist.observe lat dt
                         | Error _ -> incr failed)
                       results);
              cursor := !cursor + (batch * sectors_per_op)
            done;
            Engine.arrive all_done)
      done;
      Engine.await all_done);
  let elapsed = Platform.now platform in
  let rt = Platform.runtime platform in
  let doorbells =
    List.fold_left
      (fun acc qp -> acc + Ipc.Qp.doorbell_rings qp)
      0
      (Ipc.Ipc_manager.qps (Runtime.Runtime.ipc rt))
  in
  let merges =
    match Core.Registry.find (Runtime.Runtime.registry rt) "sched0" with
    | Some m -> Mods.Blkswitch_sched.absorbed_reqs m
    | None -> 0
  in
  if !failed > 0 then
    Bench_util.note "WARNING: %d/%d ops failed (qd=%d batch=%d)" !failed total
      qd batch;
  let ftotal = Stdlib.float_of_int total in
  {
    kiops = ftotal /. (elapsed /. 1e9) /. 1000.0;
    p99_us = Obs.Hist.quantile lat 0.99 /. 1e3;
    doorbells_per_req = Stdlib.float_of_int doorbells /. ftotal;
    merges_per_req = Stdlib.float_of_int merges /. ftotal;
    events = Engine.events_executed machine.Machine.engine;
  }

let row ~qd ~batch (o : outcome) =
  [
    string_of_int qd;
    string_of_int batch;
    Bench_util.f1 o.kiops;
    Bench_util.f1 o.p99_us;
    Bench_util.f2 o.doorbells_per_req;
    Bench_util.f2 o.merges_per_req;
    string_of_int o.events;
  ]

let widths = [ 5; 6; 9; 9; 7; 8; 9 ]

let header = [ "qd"; "batch"; "kIOPS"; "p99(us)"; "db/req"; "mrg/req"; "events" ]

let run () =
  let smoke = Bench_util.smoke () in
  let total_ops = if smoke then 256 else 4096 in
  let seed = 0xBA7C4 in
  Bench_util.heading "batching"
    "Batched submission: doorbell coalescing, batch dequeue, request merging";
  Printf.printf "  ~%d sequential %d B writes per point, seed %#x\n" total_ops
    bytes seed;
  let qds = [ 16; 64; 256 ] in
  let batches = [ 1; 4; 16; 64 ] in
  Bench_util.print_row widths header;
  Bench_util.print_row widths (List.map (fun w -> String.make w '-') widths);
  let events = ref 0 in
  let _, wall_s =
    Bench_util.time_events (fun () ->
        List.iter
          (fun qd ->
            List.iter
              (fun batch ->
                if batch <= qd then begin
                  let o = run_case ~seed ~qd ~batch ~total_ops in
                  events := !events + o.events;
                  Bench_util.print_row widths (row ~qd ~batch o)
                end)
              batches)
          qds;
        0)
  in
  Bench_util.note
    "one doorbell per batch + amortized cross-core pulls: db/req falls ~1/batch;";
  Bench_util.note
    "adjacent-LBA merging turns contiguous batches into single device ops.";
  Bench_util.note_event_rate ~events:!events ~wall_s;
  (* Determinism: the batched path must stay replayable — identical
     seeds give byte-identical rows (including the event count). *)
  let a = run_case ~seed ~qd:64 ~batch:16 ~total_ops in
  let b = run_case ~seed ~qd:64 ~batch:16 ~total_ops in
  let same = row ~qd:64 ~batch:16 a = row ~qd:64 ~batch:16 b in
  Bench_util.claim "batching.deterministic" same
    "rows differ across identical runs";
  if same then
    Bench_util.note "determinism: two seed-%#x qd=64 batch=16 runs matched" seed
