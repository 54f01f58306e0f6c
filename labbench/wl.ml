(* The three benchmark workloads: machine shape, LabStack, prefill and
   measured request mix. A round boots a fresh platform from the seed,
   so every round of one run replays the same simulated schedule; only
   the host cost of replaying it varies. Everything goes through the
   public API (Platform, Client, Workloads.Load). *)

open Labstor
open Lab_sim

type kind = Fs_mixed | Blk_hot | Blk_open

let kinds = [ Fs_mixed; Blk_hot; Blk_open ]

let name = function
  | Fs_mixed -> "fs-mixed"
  | Blk_hot -> "blk-hot"
  | Blk_open -> "blk-open"

let of_name s = List.find_opt (fun k -> name k = s) kinds

let io_bytes = 4096

let threads = 4

let nworkers = 4

(* fs-mixed: 4 threads x 8 files x 2 MiB = 64 MiB of data behind a
   16 MiB cache (4x the cache). *)
let files_per_thread = 8

let file_bytes = 2 lsl 20

let fs_cache_mb = 16

(* 300k ops put 2,100 reads in the band between the read p99 and
   p99.9 that the tail metric averages. *)
let fs_ops = 300_000

(* blk-hot: a 32 MiB region behind a 64 MiB cache — everything fits.
   5% writes, so 240k ops leave >10 write samples past the p99.9. *)
let hot_cache_mb = 64

let hot_region_blocks = (32 lsl 20) / io_bytes

let hot_ops = 240_000

(* blk-open: Poisson arrivals over 512 MiB with no cache; the operating
   point sits below the knee, the ladder walks across it. *)
let open_region_blocks = (512 lsl 20) / io_bytes

let open_rate_kops = 300.0

let open_arrivals = 100_000

let injectors = 16

let ladder_kops = [ 350.0; 400.0; 450.0; 500.0 ]

let ladder_arrivals = 30_000

let slo_p999_us = 50.0

let prefill_chunk = 128 * 1024

let mount_of = function
  | Fs_mixed -> "fs::/mix"
  | Blk_hot -> "blk::/hot"
  | Blk_open -> "blk::/open"

let stack_spec = function
  | Fs_mixed ->
      Printf.sprintf
        {|
mount: "fs::/mix"
rules:
  exec_mode: async
dag:
  - uuid: fs0
    mod: labfs
    outputs: [cache0]
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: %d
      shards: 4
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    attrs:
      merge_window_ns: 1000
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
        fs_cache_mb
  | Blk_hot ->
      Printf.sprintf
        {|
mount: "blk::/hot"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: lru_cache
    attrs:
      capacity_mb: %d
      shards: 4
    outputs: [sched0]
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
        hot_cache_mb
  | Blk_open ->
      {|
mount: "blk::/open"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

(* One line describing the workload's parameters, for the provenance
   record. *)
let params = function
  | Fs_mixed ->
      Printf.sprintf
        "closed loop, %d threads, %d workers, labfs>lru_cache(%dMiB,4 \
         shards)>blkswitch_sched(merge 1us)>kernel_driver on nvme, %dx%d \
         files of %d MiB, %d ops/round of 4KiB: 70%% pread, 25%% overwrite, \
         5%% append"
        threads nworkers fs_cache_mb threads files_per_thread
        (file_bytes lsr 20) fs_ops
  | Blk_hot ->
      Printf.sprintf
        "closed loop, %d threads, %d workers, lru_cache(%dMiB,4 \
         shards)>blkswitch_sched>kernel_driver on nvme, %d MiB region \
         prefilled, %d ops/round of 4KiB: 95%% read, 5%% write"
        threads nworkers hot_cache_mb
        ((hot_region_blocks * io_bytes) lsr 20)
        hot_ops
  | Blk_open ->
      Printf.sprintf
        "open loop, Poisson %.0f kops/s, %d arrivals/round, %d injectors, \
         %d workers, blkswitch_sched>kernel_driver on nvme, 4KiB over %d \
         MiB: 80%% read, 20%% write; ladder %s kops/s x %d arrivals, SLO \
         p99.9<=%.0fus"
        open_rate_kops open_arrivals injectors nworkers
        ((open_region_blocks * io_bytes) lsr 20)
        (String.concat "/"
           (List.map (Printf.sprintf "%.0f") (open_rate_kops :: ladder_kops)))
        ladder_arrivals slo_p999_us

(* Simulated latencies of one op type, preallocated so recording never
   grows the heap inside the measured phase. *)
type samples = { mutable v : float array; mutable n : int }

let samples cap = { v = Array.make (Stdlib.max 1 cap) 0.0; n = 0 }

let record s x =
  if s.n = Array.length s.v then begin
    let w = Array.make (2 * s.n) 0.0 in
    Array.blit s.v 0 w 0 s.n;
    s.v <- w
  end;
  s.v.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.v 0 s.n in
  Array.sort Float.compare a;
  a

(* Host CPU time per slice of [slice_ops] completed ops. After each
   slice a reference run ([Calib]) is timed, so each slice's host time
   can be read at the host's speed of that moment. The reference's own
   time and minor words are kept apart and left out of the phase. *)
let slice_ops = 5_000

type slice = {
  host : float;  (** CPU seconds of the slice *)
  ref_s : float;  (** CPU seconds of the reference run after it *)
}

type slicer = {
  mutable done_ops : int;
  mutable last : float;
  mutable cuts : slice list;
  mutable ref_total_s : float;
  mutable ref_words : float;
}

let slicer () =
  { done_ops = 0; last = Sys.time (); cuts = []; ref_total_s = 0.0; ref_words = 0.0 }

let tick sl =
  sl.done_ops <- sl.done_ops + 1;
  if sl.done_ops mod slice_ops = 0 then begin
    let t = Sys.time () in
    let r = Calib.timed () in
    sl.cuts <- { host = t -. sl.last; ref_s = r.Calib.ref_s } :: sl.cuts;
    sl.ref_words <- sl.ref_words +. r.Calib.ref_words;
    sl.last <- Sys.time ();
    sl.ref_total_s <- sl.ref_total_s +. (sl.last -. t)
  end

(* What a measured phase produced. [host_s] is process CPU time. *)
type phase = {
  attempted : int;
  ok : int;
  failed : int;  (** errors and EAGAIN refusals *)
  shed : int;  (** open-loop arrivals dropped at the backlog cap *)
  short_reads : int;  (** in-bounds reads that returned fewer bytes *)
  reads : float array;  (** sorted simulated latency, ns *)
  writes : float array;
  sim_ns : float;
  events : int;
  host_s : float;
  slices : slice list;  (** per [slice_ops] ops *)
  words : float;
  load : Workloads.Load.result option;
}

type fs_files = { fds : int array array; sizes : int array array }

type setup = {
  platform : Platform.t;
  clients : Runtime.Client.t array;
  files : fs_files option;
}

let engine p = (Platform.machine p).Machine.engine

(* Runs [f] as a simulated process and measures it: engine events,
   virtual time, process CPU time and minor words. *)
let measured p f =
  let e0 = Engine.events_executed (engine p) in
  let v0 = Platform.now p in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let r = Platform.go p f in
  let host_s = Sys.time () -. c0 in
  let words = Gc.minor_words () -. w0 in
  (r, Engine.events_executed (engine p) - e0, Platform.now p -. v0, host_s, words)

(* Spawns one process per client running [body th client] and returns
   when all have finished. Must run inside a simulated process. *)
let run_threads p clients body =
  let finished = ref 0 in
  let n = Array.length clients in
  Engine.suspend (fun resume ->
      Array.iteri
        (fun th c ->
          Engine.spawn (engine p) (fun () ->
              body th c;
              incr finished;
              if !finished = n then resume ()))
        clients)

let ok_or_fail what = function
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let boot ?(trace_sample = 0) kind ~seed =
  let worker_max_inflight = match kind with Blk_open -> 32 | _ -> 16 in
  let p =
    Platform.boot ~nworkers ~worker_max_inflight ~seed ~trace_sample ()
  in
  (match Platform.mount p (stack_spec kind) with
  | Ok _ -> ()
  | Error e -> failwith ("mount: " ^ e));
  p

let setup ?trace_sample kind ~seed =
  let p = boot ?trace_sample kind ~seed in
  let mount = mount_of kind in
  match kind with
  | Fs_mixed ->
      let fds = Array.make_matrix threads files_per_thread 0 in
      let sizes = Array.make_matrix threads files_per_thread file_bytes in
      let clients =
        Platform.go p (fun () ->
            let clients =
              Array.init threads (fun th -> Platform.client p ~thread:th ())
            in
            run_threads p clients (fun th c ->
                for f = 0 to files_per_thread - 1 do
                  let path = Printf.sprintf "%s/t%d/f%d" mount th f in
                  match Runtime.Client.open_file c ~create:true path with
                  | Error e -> failwith ("open: " ^ e)
                  | Ok fd ->
                      fds.(th).(f) <- fd;
                      for k = 0 to (file_bytes / prefill_chunk) - 1 do
                        ok_or_fail "prefill"
                          (Runtime.Client.pwrite c ~fd ~off:(k * prefill_chunk)
                             ~bytes:prefill_chunk)
                      done
                done);
            clients)
      in
      { platform = p; clients; files = Some { fds; sizes } }
  | Blk_hot ->
      let chunk_blocks = prefill_chunk / io_bytes in
      let chunks = hot_region_blocks / chunk_blocks in
      let clients =
        Platform.go p (fun () ->
            let clients =
              Array.init threads (fun th -> Platform.client p ~thread:th ())
            in
            run_threads p clients (fun th c ->
                let k = ref th in
                while !k < chunks do
                  ok_or_fail "prefill"
                    (Runtime.Client.write_block c ~mount
                       ~lba:(!k * chunk_blocks) ~bytes:prefill_chunk);
                  k := !k + threads
                done);
            clients)
      in
      { platform = p; clients; files = None }
  | Blk_open ->
      let clients =
        Platform.go p (fun () ->
            Array.init injectors (fun i ->
                Platform.client p ~thread:(i mod 16) ()))
      in
      { platform = p; clients; files = None }

(* Per-thread op streams are seeded from the run seed and the thread,
   independent of the prefill. *)
let thread_rng ~seed th = Rng.create ((seed * 1_000_003) + (th * 7919) + 17)

(* The op mixes, shared with the component runs. *)

type fs_op = Fs_read of int | Fs_overwrite of int | Fs_append

(* One fs-mixed op on a file of [size] bytes, at a 4 KiB-aligned
   offset: 70% pread, 25% overwrite, 5% append. *)
let fs_op rng ~size =
  let x = Rng.int rng 100 in
  let off () = Rng.int rng (size / io_bytes) * io_bytes in
  if x < 70 then Fs_read (off ()) else if x < 95 then Fs_overwrite (off ()) else Fs_append

(* One op of a block workload: (is_read, lba), uniform over its
   region. The cache addresses its pages by lba, one per 4 KiB block,
   so blk-hot sends block indices, the same units its prefill writes.
   blk-open has no cache and sends 512-byte sectors (block index x 8),
   the unit the scheduler and driver use. *)
let block_op kind rng =
  match kind with
  | Blk_open ->
      let block = Rng.int rng open_region_blocks in
      (Rng.int rng 100 < 80, block * 8)
  | Fs_mixed | Blk_hot ->
      let block = Rng.int rng hot_region_blocks in
      (Rng.int rng 100 < 95, block)

let closed_loop s kind ~seed =
  let p = s.platform in
  let total = match kind with Fs_mixed -> fs_ops | _ -> hot_ops in
  let per_thread = total / threads in
  let reads = samples total and writes = samples (total / 2) in
  let failed = ref 0 and short_reads = ref 0 in
  let mount = mount_of kind in
  let sl = slicer () in
  let finish ~is_read t0 r =
    let lat = Platform.now p -. t0 in
    tick sl;
    match r with
    | Error _ -> incr failed
    | Ok n ->
        if is_read then begin
          record reads lat;
          if n <> io_bytes then incr short_reads
        end
        else record writes lat
  in
  let op =
    match (kind, s.files) with
    | Fs_mixed, Some fs ->
        fun th c rng ->
          let f = Rng.int rng files_per_thread in
          let fd = fs.fds.(th).(f) and size = fs.sizes.(th).(f) in
          let op = fs_op rng ~size in
          let t0 = Platform.now p in
          (match op with
          | Fs_read off ->
              finish ~is_read:true t0
                (Runtime.Client.pread c ~fd ~off ~bytes:io_bytes)
          | Fs_overwrite off ->
              finish ~is_read:false t0
                (Runtime.Client.pwrite c ~fd ~off ~bytes:io_bytes)
          | Fs_append ->
              (* Appends are issued by the file's only writer, so the
                 tracked size is exact. *)
              fs.sizes.(th).(f) <- size + io_bytes;
              finish ~is_read:false t0
                (Runtime.Client.pwrite c ~fd ~off:size ~bytes:io_bytes))
    | _ ->
        fun _th c rng ->
          let is_read, lba = block_op kind rng in
          let t0 = Platform.now p in
          if is_read then
            finish ~is_read t0
              (Runtime.Client.read_block c ~mount ~lba ~bytes:io_bytes)
          else
            finish ~is_read t0
              (Runtime.Client.write_block c ~mount ~lba ~bytes:io_bytes)
  in
  let (), events, sim_ns, host_s, words =
    measured p (fun () ->
        run_threads p s.clients (fun th c ->
            let rng = thread_rng ~seed th in
            for _ = 1 to per_thread do
              op th c rng
            done))
  in
  let attempted = per_thread * threads in
  {
    attempted;
    ok = attempted - !failed;
    failed = !failed;
    shed = 0;
    short_reads = !short_reads;
    reads = sorted reads;
    writes = sorted writes;
    sim_ns;
    events;
    host_s = host_s -. sl.ref_total_s;
    slices = sl.cuts;
    words = words -. sl.ref_words;
    load = None;
  }

let open_loop s ~seed ~rate_kops ~total =
  let p = s.platform in
  let rng = thread_rng ~seed (-1) in
  let reads = samples total and writes = samples (total / 2) in
  let short_reads = ref 0 in
  let sl = slicer () in
  let mount = mount_of Blk_open in
  let spec =
    {
      Workloads.Load.default_spec with
      proc = Workloads.Load.Poisson { rate_ops_s = rate_kops *. 1e3 };
      seed;
      total;
      injectors;
    }
  in
  let res, events, sim_ns, host_s, words =
    measured p (fun () ->
        Workloads.Load.run (Platform.machine p) spec
          ~submit:(fun ~injector ~scheduled ->
            let c = s.clients.(injector) in
            let is_read, lba = block_op Blk_open rng in
            let r =
              if is_read then
                Runtime.Client.read_block c ~scheduled_at:scheduled ~mount ~lba
                  ~bytes:io_bytes
              else
                Runtime.Client.write_block c ~scheduled_at:scheduled ~mount
                  ~lba ~bytes:io_bytes
            in
            let lat = Platform.now p -. scheduled in
            tick sl;
            match r with
            | Error _ -> false
            | Ok n ->
                if is_read then begin
                  record reads lat;
                  if n <> io_bytes then incr short_reads
                end
                else record writes lat;
                true))
  in
  {
    attempted = res.Workloads.Load.generated;
    ok = res.Workloads.Load.succeeded;
    failed = res.Workloads.Load.completed - res.Workloads.Load.succeeded;
    shed = res.Workloads.Load.dropped;
    short_reads = !short_reads;
    reads = sorted reads;
    writes = sorted writes;
    sim_ns;
    events;
    host_s = host_s -. sl.ref_total_s;
    slices = sl.cuts;
    words = words -. sl.ref_words;
    load = Some res;
  }

let measure s kind ~seed =
  match kind with
  | Blk_open -> open_loop s ~seed ~rate_kops:open_rate_kops ~total:open_arrivals
  | Fs_mixed | Blk_hot -> closed_loop s kind ~seed

(* Boot, mount and prefill, timed in process CPU seconds. *)
let timed_setup ?trace_sample kind ~seed =
  let c0 = Sys.time () in
  let s = setup ?trace_sample kind ~seed in
  (s, Sys.time () -. c0)

(* Nearest-rank percentile over a sorted array; 0 when empty. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let sim_kops ph =
  match ph.load with
  | Some r -> r.Workloads.Load.achieved_ops_s /. 1e3
  | None -> float_of_int ph.ok /. (ph.sim_ns /. 1e9) /. 1e3
