(* Sharded cache sweep: sequential readahead and coalesced write-back.

   Drives per-thread sequential 4 KiB streams through a cache ->
   kernel_driver stack on NVMe, sweeping the replacement policy (LRU /
   ARC), readahead on/off, the shard count, and the write mix. Streams
   are far larger than the cache, so with readahead off every read
   misses to the device; with readahead on the cache detects each
   stream (clients tag requests with their thread id) and fills ahead
   of the reader. Writes dirty fresh pages, so evictions exercise the
   coalesced write-back log.

   Reported per point: throughput, p99 latency, demand hit rate,
   readahead accuracy (prefetched pages later served / issued), the
   average merged flush batch, write-back device ops per evicted dirty
   page (< 1.0 when coalescing works), and simulator events executed (a
   determinism fingerprint). A machine-readable summary is written to
   BENCH_cache.json. Set LABSTOR_WALLCLOCK for events/sec of the
   simulator itself; --smoke shrinks the workload for CI. *)

open Labstor
open Lab_sim

let threads = 4

(* Thread-private page regions (caches address Block requests in page
   units): reads stream from the region base, writes from its upper
   half. Regions never overlap, so hits are entirely the cache's
   doing. *)
let region_pages = 1_000_000

let write_off = 500_000

let stack_spec ~policy ~ra ~shards =
  Printf.sprintf
    {|
mount: "blk::/cache"
rules:
  exec_mode: async
dag:
  - uuid: cache0
    mod: %s
    attrs:
      capacity_mb: 4
      shards: %d
      readahead: %b
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}
    policy shards ra

type outcome = {
  kiops : float;
  p99_us : float;
  hit_rate : float;
  ra_acc : float;
  flush_batch : float;
  wb_ops_per_page : float;  (* flush ops / evicted dirty pages *)
  events : int;
}

let core_of rt ~policy =
  match Core.Registry.find (Runtime.Runtime.registry rt) "cache0" with
  | None -> failwith "exp_cache: cache0 not in registry"
  | Some m -> (
      let core =
        if policy = "arc_cache" then Mods.Arc_cache.core m
        else Mods.Lru_cache.core m
      in
      match core with
      | Some c -> c
      | None -> failwith "exp_cache: cache0 has no engine state")

let run_case ~seed ~policy ~ra ~shards ~wr_pct ~ops_per_thread =
  let platform = Platform.boot ~nworkers:4 ~seed () in
  (match Platform.mount platform (stack_spec ~policy ~ra ~shards) with
  | Ok _ -> ()
  | Error e -> failwith ("exp_cache: mount: " ^ e));
  let machine = Platform.machine platform in
  let lat = Obs.Hist.create () in
  let failed = ref 0 in
  Platform.go platform (fun () ->
      let all_done = Engine.join threads in
      for th = 0 to threads - 1 do
        Engine.spawn machine.Machine.engine (fun () ->
            let c = Platform.client platform ~thread:th () in
            let rpage = ref (th * region_pages) in
            let wpage = ref ((th * region_pages) + write_off) in
            for i = 1 to ops_per_thread do
              let t0 = Machine.now machine in
              let r =
                if wr_pct > 0 && i mod (100 / wr_pct) = 0 then begin
                  let lba = !wpage in
                  incr wpage;
                  Runtime.Client.write_block c ~stream:th
                    ~mount:"blk::/cache" ~lba ~bytes:4096
                end
                else begin
                  let lba = !rpage in
                  incr rpage;
                  Runtime.Client.read_block c ~stream:th
                    ~mount:"blk::/cache" ~lba ~bytes:4096
                end
              in
              match r with
              | Ok _ -> Obs.Hist.observe lat (Machine.now machine -. t0)
              | Error _ -> incr failed
            done;
            Engine.arrive all_done)
      done;
      Engine.await all_done);
  let elapsed = Platform.now platform in
  let rt = Platform.runtime platform in
  let core = core_of rt ~policy in
  let total = threads * ops_per_thread in
  if !failed > 0 then
    Bench_util.note "WARNING: %d/%d ops failed (%s ra=%b shards=%d)" !failed
      total policy ra shards;
  let hits = Mods.Cache_core.hits core in
  let misses = Mods.Cache_core.misses core in
  let dirty_evicted = Mods.Cache_core.dirty_evictions core in
  {
    kiops = Stdlib.float_of_int total /. (elapsed /. 1e9) /. 1000.0;
    p99_us = Obs.Hist.quantile lat 0.99 /. 1e3;
    hit_rate =
      Stdlib.float_of_int hits
      /. Stdlib.float_of_int (Stdlib.max 1 (hits + misses));
    ra_acc = Mods.Cache_core.readahead_accuracy core;
    flush_batch = Mods.Cache_core.avg_flush_batch core;
    wb_ops_per_page =
      (if dirty_evicted = 0 then 0.0
       else
         Stdlib.float_of_int (Mods.Cache_core.flush_ops core)
         /. Stdlib.float_of_int dirty_evicted);
    events = Engine.events_executed machine.Machine.engine;
  }

let widths = [ 9; 3; 6; 4; 8; 9; 6; 7; 7; 8; 9 ]

let header =
  [
    "policy";
    "ra";
    "shards";
    "wr%";
    "kIOPS";
    "p99(us)";
    "hit%";
    "ra-acc";
    "flush";
    "wb-op/p";
    "events";
  ]

let row ~policy ~ra ~shards ~wr_pct (o : outcome) =
  [
    policy;
    (if ra then "on" else "off");
    string_of_int shards;
    string_of_int wr_pct;
    Bench_util.f1 o.kiops;
    Bench_util.f1 o.p99_us;
    Printf.sprintf "%.1f" (100.0 *. o.hit_rate);
    Bench_util.f2 o.ra_acc;
    Bench_util.f1 o.flush_batch;
    Bench_util.f2 o.wb_ops_per_page;
    string_of_int o.events;
  ]

(* Minor words per call of the cache's hit paths: [Mod_harness] runs of
   a 4-shard write-back lru_cache minus a dummy_mod baseline (the
   harness's own process spawn and request build). One-page requests
   cycle over 256 resident pages on all four shards, so a hit promotes
   a node that is not already most-recent; writes re-dirty resident
   dirty pages (the absorb path). Gc counters are deterministic, so
   these are exact. *)
let hit_pages = 256

let words_per_call make payload =
  let h = Runtime.Mod_harness.create make in
  let run () =
    for i = 0 to hit_pages - 1 do
      ignore (Runtime.Mod_harness.run h (payload i))
    done
  in
  run ();
  Runtime.Mod_harness.clear_forwarded h;
  let rounds = 40 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    run ()
  done;
  (Gc.minor_words () -. w0) /. Stdlib.float_of_int (rounds * hit_pages)

let hit_words () =
  let base =
    words_per_call
      (fun _ -> Mods.Dummy_mod.factory ~op_ns:0.0 ())
      (fun _ -> Core.Request.Control 0)
  in
  let lru _m ~uuid ~attrs:_ =
    Mods.Lru_cache.factory () ~uuid ~attrs:[ ("shards", Core.Yamlite.Int 4) ]
  in
  let block kind =
    Array.init hit_pages (fun i ->
        Core.Request.Block
          {
            Core.Request.b_kind = kind;
            b_lba = i * 67;
            b_bytes = 4096;
            b_sync = false;
          })
  in
  let reads = block Core.Request.Read and writes = block Core.Request.Write in
  (* Each harness's unmeasured first round admits the pages: reads by a
     demand miss, writes dirty. *)
  ( base,
    words_per_call lru (fun i -> reads.(i)) -. base,
    words_per_call lru (fun i -> writes.(i)) -. base )

(* Minor words per read miss, minus the same dummy_mod baseline: a
   4-shard lru_cache of 1 MiB (64 pages a shard) takes one-page reads
   of pages it never held, at LBA stride 67, so each one misses, is
   forwarded, is admitted and evicts the shard's LRU page. An
   unmeasured first pass fills the shards; the measured pass reads
   fresh pages. The harness's forward log is cleared after each call. *)
let miss_reads = 1024

let miss_words ~base =
  let h =
    Runtime.Mod_harness.create (fun _m ~uuid ~attrs:_ ->
        Mods.Lru_cache.factory () ~uuid
          ~attrs:[ ("shards", Core.Yamlite.Int 4); ("capacity_mb", Core.Yamlite.Int 1) ])
  in
  let pass first =
    for i = first to first + miss_reads - 1 do
      ignore
        (Runtime.Mod_harness.run h
           (Core.Request.Block
              {
                Core.Request.b_kind = Core.Request.Read;
                b_lba = i * 67;
                b_bytes = 4096;
                b_sync = false;
              }));
      Runtime.Mod_harness.clear_forwarded h
    done
  in
  pass 0;
  let w0 = Gc.minor_words () in
  pass miss_reads;
  ((Gc.minor_words () -. w0) /. Stdlib.float_of_int miss_reads) -. base

let read_hit_budget = 10.0

let write_hit_budget = 8.0

let miss_budget = 20.0

let json_escape_free name = name (* policy names are [a-z_]+ *)

let write_json path results ~read_words ~write_words ~miss_words =
  let oc = open_out path in
  output_string oc "[\n";
  List.iter
    (fun ((policy, ra, shards, wr_pct), (o : outcome)) ->
      Printf.fprintf oc
        "  {\"policy\": \"%s\", \"readahead\": %b, \"shards\": %d, \
         \"write_pct\": %d, \"kiops\": %.1f, \"p99_us\": %.1f, \
         \"hit_rate\": %.4f, \"readahead_accuracy\": %.4f, \
         \"avg_flush_batch\": %.2f, \"wb_ops_per_page\": %.4f},\n"
        (json_escape_free policy) ra shards wr_pct o.kiops o.p99_us o.hit_rate
        o.ra_acc o.flush_batch o.wb_ops_per_page)
    results;
  Printf.fprintf oc
    "  {\"read_hit_words_per_call\": %.2f, \"write_hit_words_per_call\": %.2f, \
     \"read_miss_words_per_call\": %.2f}\n"
    read_words write_words miss_words;
  output_string oc "]\n";
  close_out oc

let run () =
  let smoke = Bench_util.smoke () in
  let ops_per_thread = if smoke then 300 else 2000 in
  let seed = 0xCACE in
  Bench_util.heading "cache"
    "Sharded cache: sequential readahead and coalesced dirty write-back";
  Printf.printf
    "  %d threads x %d sequential 4 KiB ops per point, 4 MiB cache, seed %#x\n"
    threads ops_per_thread seed;
  Bench_util.print_row widths header;
  Bench_util.print_row widths (List.map (fun w -> String.make w '-') widths);
  let events = ref 0 in
  let results = ref [] in
  let _, wall_s =
    Bench_util.time_events (fun () ->
        List.iter
          (fun policy ->
            List.iter
              (fun ra ->
                List.iter
                  (fun shards ->
                    List.iter
                      (fun wr_pct ->
                        let o =
                          run_case ~seed ~policy ~ra ~shards ~wr_pct
                            ~ops_per_thread
                        in
                        events := !events + o.events;
                        results :=
                          ((policy, ra, shards, wr_pct), o) :: !results;
                        Bench_util.print_row widths
                          (row ~policy ~ra ~shards ~wr_pct o))
                      [ 0; 25 ])
                  [ 1; 4 ])
              [ false; true ])
          [ "lru_cache"; "arc_cache" ];
        0)
  in
  let results = List.rev !results in
  let base, read_words, write_words = hit_words () in
  let miss_words = miss_words ~base in
  write_json "BENCH_cache.json" results ~read_words ~write_words ~miss_words;
  Bench_util.note
    "readahead detects each thread's stream and fills ahead of the reader:";
  Bench_util.note
    "streaming reads turn from all-miss into mostly-hit at the same capacity;";
  Bench_util.note
    "evicted dirty pages flush as merged adjacent-LBA runs (wb-op/p << 1).";
  Bench_util.note_event_rate ~events:!events ~wall_s;
  (* Acceptance: readahead must beat no-readahead on pure sequential
     reads at equal capacity, for every policy/shard combination. *)
  let find policy ra shards wr_pct =
    List.assoc (policy, ra, shards, wr_pct) results
  in
  List.iter
    (fun policy ->
      List.iter
        (fun shards ->
          let off = find policy false shards 0 in
          let on = find policy true shards 0 in
          Bench_util.claim "cache.readahead_beats_off" (on.kiops > off.kiops)
            "%s shards=%d readahead-on %.1f kIOPS <= off %.1f kIOPS" policy
            shards on.kiops off.kiops)
        [ 1; 4 ])
    [ "lru_cache"; "arc_cache" ];
  (* Acceptance: coalescing keeps write-back device ops per evicted
     dirty page below 1 (one-write-per-page would be exactly 1.0). *)
  List.iter
    (fun ((policy, ra, shards, wr_pct), (o : outcome)) ->
      Bench_util.claim "cache.writeback_coalesces"
        (wr_pct = 0 || o.wb_ops_per_page < 1.0)
        "%s ra=%b shards=%d wr%%=%d write-back ops per page %.2f >= 1.0"
        policy ra shards wr_pct o.wb_ops_per_page)
    results;
  (* Allocation guards: a hit allocates only its simulated CPU waits
     and the returned size, set at the measured 10 and 8 words; a miss
     also forwards, and its admit and eviction allocate nothing. *)
  Bench_util.claim "cache.hit_words"
    (Bench_util.words_ok
       (read_words <= read_hit_budget && write_words <= write_hit_budget))
    "cache hit path at %.2f words per read hit (budget %g), %.2f per write \
     absorb (budget %g)"
    read_words read_hit_budget write_words write_hit_budget;
  Bench_util.claim "cache.miss_words"
    (Bench_util.words_ok (miss_words <= miss_budget))
    "cache miss path at %.2f words per read miss (budget %g)" miss_words
    miss_budget;
  (* Determinism: identical seeds must give byte-identical rows
     (including the event-count fingerprint). *)
  let a = run_case ~seed ~policy:"lru_cache" ~ra:true ~shards:4 ~wr_pct:25
      ~ops_per_thread
  in
  let b = run_case ~seed ~policy:"lru_cache" ~ra:true ~shards:4 ~wr_pct:25
      ~ops_per_thread
  in
  let r ~o = row ~policy:"lru_cache" ~ra:true ~shards:4 ~wr_pct:25 o in
  let same = r ~o:a = r ~o:b in
  Bench_util.claim "cache.deterministic" same
    "rows differ across identical runs";
  if same then
    Bench_util.note "determinism: two seed-%#x lru/ra/4-shard runs matched" seed
