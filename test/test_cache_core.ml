(* Tests for the shared sharded cache engine (Cache_core): equivalence
   of the shards=1 configuration with a plain LRU-with-dirty-tracking
   reference model, the readahead window ramp, faulted prefetch fills,
   coalesced write-back, ARC ghost-list invariants under readahead
   traffic, and the worker_max_inflight runtime plumbing. *)

open Lab_sim
open Lab_core
open Lab_mods

let in_sim ?(ncores = 8) f =
  let m = Machine.create ~ncores () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let mk_req m ?(uid = 0) ?(thread = 0) payload =
  Request.make ~id:1 ~pid:1 ~uid ~thread ~stack_id:1 ~now:(Machine.now m) payload

let ctx_of m ~forward =
  {
    Labmod.machine = m;
    thread = 0;
    forward;
    forward_async = (fun r k -> k (forward r));
  }

let block kind ~lba ~bytes =
  Request.Block
    { Request.b_kind = kind; b_lba = lba; b_bytes = bytes; b_sync = false }

(* A small single-shard write-back configuration for the unit tests;
   fields are overridden per test. *)
let small_config ?(capacity_pages = 8) ?(nshards = 1) ?(readahead = false)
    ?(wb_high = 4) ?(wb_low = 1) () =
  {
    (Cache_core.config_of_attrs ~name:"test_cache" []) with
    Cache_core.capacity_pages;
    nshards;
    readahead;
    wb_high;
    wb_low;
  }

(* Forward hook that records every downstream write's pages. *)
let recording_forward written (r : Request.t) =
  (match r.Request.payload with
  | Request.Block { b_kind = Request.Write; b_lba; b_bytes; _ } ->
      for p = b_lba to b_lba + ((b_bytes - 1) / 4096) do
        Hashtbl.replace written p ()
      done
  | _ -> ());
  Request.Done

(* ------------------------------------------------------------------ *)
(* shards=1 equivalence with a reference model                         *)
(* ------------------------------------------------------------------ *)

(* The reference: a plain LRU (most-recent-first list) with a dirty
   set, mirroring the engine's semantics for a single shard with
   readahead off — demand reads admit clean (clearing any dirty bit),
   writes admit dirty, evicted dirty pages are eventually written
   back. Only externally observable outcomes are modelled: hit/miss
   counts, the resident dirty set, and the SET of pages ever written
   back (the engine dedups within a flush, so multiplicity is not
   comparable). *)
module Model = struct
  type t = {
    capacity : int;
    mutable order : int list;  (* most recent first *)
    dirty : (int, unit) Hashtbl.t;
    written : (int, unit) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    {
      capacity;
      order = [];
      dirty = Hashtbl.create 16;
      written = Hashtbl.create 16;
      hits = 0;
      misses = 0;
    }

  let mem t p = List.mem p t.order

  let touch t p =
    if mem t p then t.order <- p :: List.filter (fun q -> q <> p) t.order
    else begin
      t.order <- p :: t.order;
      if List.length t.order > t.capacity then begin
        let rec split acc = function
          | [ v ] -> (List.rev acc, v)
          | x :: rest -> split (x :: acc) rest
          | [] -> assert false
        in
        let keep, victim = split [] t.order in
        t.order <- keep;
        if Hashtbl.mem t.dirty victim then begin
          Hashtbl.remove t.dirty victim;
          Hashtbl.replace t.written victim ()
        end
      end
    end

  let pages ~lba ~npages = List.init npages (fun i -> lba + i)

  let write t ~lba ~npages =
    List.iter
      (fun p ->
        touch t p;
        Hashtbl.replace t.dirty p ())
      (pages ~lba ~npages)

  let read t ~lba ~npages =
    let ps = pages ~lba ~npages in
    if List.for_all (mem t) ps then begin
      t.hits <- t.hits + 1;
      List.iter (touch t) ps
    end
    else begin
      t.misses <- t.misses + 1;
      (* A demand fill admits every page of the request clean — also
         the already-resident ones (the engine's admit path clears the
         dirty bit without a write-back, mirrored here). *)
      List.iter
        (fun p ->
          touch t p;
          Hashtbl.remove t.dirty p)
        ps
    end

  let dirty_sorted t =
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) t.dirty [])

  let written_sorted t =
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) t.written [])
end

let sorted_uniq tbl =
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) tbl [])

(* Random single-threaded trace: (is_write, lba in a small region,
   npages in 1..2). *)
let trace_gen =
  QCheck.(
    list_of_size Gen.(int_range 1 120)
      (triple bool (int_range 0 30) (int_range 1 2)))

let prop_single_shard_matches_model =
  QCheck.Test.make ~count:150
    ~name:"shards=1 engine == LRU reference (hits, misses, dirty, writeback)"
    trace_gen
    (fun ops ->
      in_sim (fun m ->
          let capacity = 8 in
          let core =
            Cache_core.create ~policy:Cache_core.lru_policy
              (small_config ~capacity_pages:capacity ())
          in
          let model = Model.create ~capacity in
          let written = Hashtbl.create 64 in
          let ctx = ctx_of m ~forward:(recording_forward written) in
          List.iter
            (fun (is_write, lba, npages) ->
              let bytes = npages * 4096 in
              let payload =
                block (if is_write then Request.Write else Request.Read) ~lba
                  ~bytes
              in
              ignore (Cache_core.operate core ctx (mk_req m payload));
              if is_write then Model.write model ~lba ~npages
              else Model.read model ~lba ~npages)
            ops;
          (* Drain so every evicted dirty page reaches [written]. *)
          ignore (Cache_core.operate core ctx (mk_req m (Request.Control 0)));
          Cache_core.hits core = model.Model.hits
          && Cache_core.misses core = model.Model.misses
          && Cache_core.dirty_resident core = Model.dirty_sorted model
          && sorted_uniq written = Model.written_sorted model
          && Cache_core.live_pages core = List.length model.Model.order))

(* ------------------------------------------------------------------ *)
(* Readahead                                                           *)
(* ------------------------------------------------------------------ *)

let test_readahead_ramp () =
  in_sim (fun m ->
      let core =
        Cache_core.create ~policy:Cache_core.lru_policy
          (small_config ~capacity_pages:1024 ~readahead:true ~wb_high:32
             ~wb_low:8 ())
      in
      let ctx = ctx_of m ~forward:(fun _ -> Request.Done) in
      for lba = 0 to 19 do
        let r =
          Cache_core.operate core ctx
            (mk_req m (block Request.Read ~lba ~bytes:4096))
        in
        if not (Request.is_ok r) then Alcotest.failf "read %d failed" lba
      done;
      (* The first read cold-starts the stream, the second establishes
         sequentiality and opens the window; everything after is served
         from prefetched pages. *)
      Alcotest.(check int) "misses" 2 (Cache_core.misses core);
      Alcotest.(check int) "hits" 18 (Cache_core.hits core);
      Alcotest.(check int) "readahead hits" 18 (Cache_core.readahead_hits core);
      Alcotest.(check bool) "window issued ahead" true
        (Cache_core.readahead_issued core >= 18))

let test_readahead_separate_streams () =
  in_sim (fun m ->
      let core =
        Cache_core.create ~policy:Cache_core.lru_policy
          (small_config ~capacity_pages:1024 ~readahead:true ~wb_high:32
             ~wb_low:8 ())
      in
      let ctx = ctx_of m ~forward:(fun _ -> Request.Done) in
      (* Two interleaved sequential streams from one pid: without the
         stream hint they destroy each other's sequentiality; with it
         both ramp. *)
      for i = 0 to 15 do
        List.iter
          (fun (stream, base) ->
            let req =
              mk_req m (block Request.Read ~lba:(base + i) ~bytes:4096)
            in
            req.Request.hint_stream <- Some stream;
            ignore (Cache_core.operate core ctx req))
          [ (1, 0); (2, 10_000) ]
      done;
      Alcotest.(check int) "two cold misses per stream" 4
        (Cache_core.misses core);
      Alcotest.(check int) "the rest are hits" 28 (Cache_core.hits core))

let test_faulted_prefetch_not_admitted () =
  in_sim (fun m ->
      let core =
        Cache_core.create ~policy:Cache_core.lru_policy
          (small_config ~capacity_pages:1024 ~readahead:true ~wb_high:32
             ~wb_low:8 ())
      in
      (* Prefetch-tagged fills fail at the device; demand reads are
         served fine. *)
      let forward (r : Request.t) =
        if r.Request.prefetch then Request.failed_errno "EIO" "injected"
        else Request.Done
      in
      let ctx = ctx_of m ~forward in
      for lba = 0 to 9 do
        ignore
          (Cache_core.operate core ctx
             (mk_req m (block Request.Read ~lba ~bytes:4096)))
      done;
      (* No faulted fill was admitted, so no read ever hits. *)
      Alcotest.(check int) "all demand reads miss" 10 (Cache_core.misses core);
      Alcotest.(check int) "no hits from faulted fills" 0
        (Cache_core.hits core);
      Alcotest.(check int) "no readahead hits" 0
        (Cache_core.readahead_hits core);
      Alcotest.(check bool) "prefetches were attempted" true
        (Cache_core.readahead_issued core > 0);
      Alcotest.(check int) "every prefetched page wasted"
        (Cache_core.readahead_issued core)
        (Cache_core.readahead_wasted core);
      (* Only the demand-read pages are resident. *)
      Alcotest.(check int) "live pages = demand reads" 10
        (Cache_core.live_pages core))

(* ------------------------------------------------------------------ *)
(* Coalesced write-back                                                *)
(* ------------------------------------------------------------------ *)

let test_writeback_coalesces_adjacent () =
  in_sim (fun m ->
      let core =
        Cache_core.create ~policy:Cache_core.lru_policy
          (small_config ~capacity_pages:256 ~wb_high:32 ~wb_low:8 ())
      in
      let downstream_ops = ref 0 in
      let downstream_pages = ref 0 in
      let forward (r : Request.t) =
        (match r.Request.payload with
        | Request.Block { b_kind = Request.Write; b_bytes; _ } ->
            incr downstream_ops;
            downstream_pages := !downstream_pages + (b_bytes / 4096)
        | _ -> ());
        Request.Done
      in
      let ctx = ctx_of m ~forward in
      (* 300 sequential dirty pages into a 256-page cache: pages 0..43
         are evicted dirty, in LBA order. *)
      for lba = 0 to 299 do
        ignore
          (Cache_core.operate core ctx
             (mk_req m (block Request.Write ~lba ~bytes:4096)))
      done;
      ignore (Cache_core.operate core ctx (mk_req m (Request.Control 0)));
      Alcotest.(check int) "44 dirty pages evicted" 44
        (Cache_core.dirty_evictions core);
      Alcotest.(check int) "all 44 pages written back" 44 !downstream_pages;
      (* Adjacent evictions merge: the watermark flush covers 24 pages
         in one op, the drain the remaining 20 in another. *)
      Alcotest.(check int) "merged into 2 device ops" 2 !downstream_ops;
      Alcotest.(check int) "engine counted the same ops" 2
        (Cache_core.flush_ops core);
      Alcotest.(check int) "engine counted the same pages" 44
        (Cache_core.flush_pages core);
      Alcotest.(check int) "log empty after drain" 0
        (Cache_core.dirty_backlog core))

(* ------------------------------------------------------------------ *)
(* Sharded mod-level behaviour (through the LabMod factories)          *)
(* ------------------------------------------------------------------ *)

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

let test_sharded_lru_mod () =
  in_sim (fun m ->
      let labmod =
        Lru_cache.factory () ~uuid:"lru4"
          ~attrs:
            [
              ("capacity_mb", Yamlite.Int 1);
              ("shards", Yamlite.Int 4);
              ("readahead", Yamlite.Bool true);
            ]
      in
      (* One sequential stream: 200 pages spans 4 chunks, so several
         shards see traffic. *)
      for lba = 0 to 199 do
        ignore (drive m labmod (mk_req m (block Request.Read ~lba ~bytes:4096)))
      done;
      let core = Option.get (Lru_cache.core labmod) in
      Alcotest.(check int) "4 shards" 4 (Cache_core.nshards core);
      Alcotest.(check int) "every access counted" 200
        (Cache_core.hits core + Cache_core.misses core);
      Alcotest.(check bool) "readahead turned the stream into hits" true
        (Cache_core.hits core > 150);
      (* The per-shard counters cover all shards and sum to the
         aggregate. *)
      let shard_counters = Lru_cache.shard_counter_list labmod in
      Alcotest.(check int) "3 counters per shard" 12
        (List.length shard_counters);
      let sum suffix =
        List.fold_left
          (fun acc (k, v) ->
            if String.length k > String.length suffix
               && String.sub k
                    (String.length k - String.length suffix)
                    (String.length suffix)
                  = suffix
            then acc + v
            else acc)
          0 shard_counters
      in
      Alcotest.(check int) "shard hits sum to aggregate"
        (Cache_core.hits core) (sum "_hits");
      Alcotest.(check int) "shard misses sum to aggregate"
        (Cache_core.misses core) (sum "_misses"))

let test_arc_ghost_lists_under_readahead () =
  in_sim (fun m ->
      let labmod =
        Arc_cache.factory () ~uuid:"arc2"
          ~attrs:
            [
              ("capacity_mb", Yamlite.Int 1);
              ("shards", Yamlite.Int 2);
              ("readahead", Yamlite.Bool true);
            ]
      in
      (* Sequential readahead traffic over 3x the cache, then a re-read
         of a recent window to hit the ghost lists. *)
      for lba = 0 to 767 do
        ignore (drive m labmod (mk_req m (block Request.Read ~lba ~bytes:4096)))
      done;
      for lba = 700 to 767 do
        ignore (drive m labmod (mk_req m (block Request.Read ~lba ~bytes:4096)))
      done;
      Alcotest.(check bool) "stream mostly hit" true (Arc_cache.hits labmod > 0);
      let shards = Arc_cache.arc_shards labmod in
      Alcotest.(check int) "one ARC per shard" 2 (Array.length shards);
      Array.iteri
        (fun i a ->
          let cap = Arc_cache.Arc.capacity a in
          let live = Arc_cache.Arc.live_count a in
          let ghost = Arc_cache.Arc.ghost_count a in
          let p = Arc_cache.Arc.p a in
          Alcotest.(check bool)
            (Printf.sprintf "shard %d: live %d <= cap %d" i live cap)
            true (live <= cap);
          Alcotest.(check bool)
            (Printf.sprintf "shard %d: live+ghost %d <= 2*cap+1" i (live + ghost))
            true
            (live + ghost <= (2 * cap) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "shard %d: 0 <= p %d <= cap" i p)
            true
            (p >= 0 && p <= cap))
        shards)

(* ------------------------------------------------------------------ *)
(* Pinned schedule                                                     *)
(* ------------------------------------------------------------------ *)

(* Four concurrent clients on a 4-shard write-back LRU cache with
   readahead and a low write-back watermark, plus a write-through twin,
   over a downstream that takes device-like time and fails writes that
   touch pages 200..203 or 900..903. Forwards run in spawned processes,
   as in [Exec]:
   - client 0 streams 80 one-page reads: readahead ramps, its reads
     ride in-flight fills, and the window crosses into shard 1;
   - client 1 reads and writes ranges that cross 64-page chunks (two
     and three shards);
   - client 2 writes 96 pages onto shard 3, whose 64-page share evicts
     them dirty into watermark flushes (one fails), then re-reads two
     evicted pages;
   - client 3 writes through the twin and hits the device fault.
   A final Control drains the write-back logs. Every completion and
   downstream op with its instant, the event count and the per-shard
   counters are pinned, so a change to the cache's schedule shows here
   event for event. No attribute sets the watermarks, so the caches are
   engines built from a config and driven as [lru_cache]'s operate
   drives its engine. *)
let pinned_cache_scenario () =
  let m = Machine.create ~ncores:4 () in
  let e = m.Machine.engine in
  let log = Buffer.create 8192 in
  let forward (r : Request.t) =
    match r.Request.payload with
    | Request.Block { b_kind; b_lba; b_bytes; _ } ->
        Engine.wait (6_000.0 +. (Stdlib.float_of_int b_bytes /. 4.0));
        let write = b_kind = Request.Write in
        Printf.bprintf log "%s%d+%d%s@%.0f;"
          (if write then "W" else "R")
          b_lba (b_bytes / 4096)
          (if r.Request.prefetch then "p" else "")
          (Machine.now m);
        let touches lo = b_lba <= lo + 3 && b_lba + (b_bytes / 4096) > lo in
        if write && (touches 200 || touches 900) then
          Request.failed_errno "EIO" "injected"
        else Request.Done
    | _ -> Request.Done
  in
  let cache uuid ~write_through =
    Cache_core.create ~policy:Cache_core.lru_policy ~instance:uuid
      {
        (small_config ~capacity_pages:256 ~nshards:4 ~readahead:true ~wb_high:4
           ~wb_low:1 ())
        with
        Cache_core.cfg_name = Lru_cache.name;
        write_through;
      }
  in
  let wb = cache "pin-wb" ~write_through:false in
  let wt = cache "pin-wt" ~write_through:true in
  let next_id = ref 0 in
  let run core ~th ~tag ?stream payload =
    incr next_id;
    let req =
      Request.make ~id:!next_id ~pid:(th + 1) ~uid:0 ~thread:th ~stack_id:1
        ~now:(Machine.now m) payload
    in
    req.Request.hint_stream <- stream;
    let ctx =
      {
        Labmod.machine = m;
        thread = th;
        forward;
        forward_async = (fun r k -> Engine.spawn e (fun () -> k (forward r)));
      }
    in
    let res = Cache_core.operate core ctx req in
    Printf.bprintf log "c%d.%s:%s@%.0f;" th tag
      (match res with
      | Request.Size n -> string_of_int n
      | Request.Done -> "done"
      | Request.Failed _ -> "failed"
      | _ -> "other")
      (Machine.now m)
  in
  let rd core ~th ~tag ?stream lba pages =
    run core ~th ~tag ?stream (block Request.Read ~lba ~bytes:(pages * 4096))
  in
  let wr core ~th ~tag lba pages =
    run core ~th ~tag (block Request.Write ~lba ~bytes:(pages * 4096))
  in
  Machine.spawn m (fun () ->
      let all_done = Engine.join 4 in
      let client body =
        Engine.spawn e (fun () ->
            body ();
            Engine.arrive all_done)
      in
      client (fun () ->
          for i = 0 to 79 do
            rd wb ~th:0 ~tag:(Printf.sprintf "r%d" i) ~stream:0 i 1;
            Engine.wait 1_500.0
          done);
      client (fun () ->
          for i = 0 to 5 do
            (match i mod 3 with
            | 0 -> rd wb ~th:1 ~tag:(Printf.sprintf "x%d" i) 60 8
            | 1 -> wr wb ~th:1 ~tag:(Printf.sprintf "y%d" i) 124 8
            | _ -> rd wb ~th:1 ~tag:(Printf.sprintf "z%d" i) 250 81);
            Engine.wait 3_000.0
          done);
      client (fun () ->
          for i = 0 to 47 do
            let lba = if i < 32 then 192 + (2 * i) else 448 + (2 * (i - 32)) in
            wr wb ~th:2 ~tag:(Printf.sprintf "w%d" i) lba 2;
            Engine.wait 500.0
          done;
          rd wb ~th:2 ~tag:"back0" 192 1;
          rd wb ~th:2 ~tag:"back1" 194 1);
      client (fun () ->
          for i = 0 to 7 do
            wr wt ~th:3 ~tag:(Printf.sprintf "t%d" i) (896 + i) 1;
            Engine.wait 2_000.0
          done;
          rd wt ~th:3 ~tag:"tread" 896 8);
      Engine.await all_done;
      run wb ~th:0 ~tag:"drain" (Request.Control 0));
  Machine.run m;
  (* Sorted pages as "a-b" runs of adjacent pages. *)
  let runs pages =
    let rec go acc = function
      | [] -> List.rev acc
      | p :: rest -> (
          match acc with
          | (a, b) :: tl when p = b + 1 -> go ((a, p) :: tl) rest
          | _ -> go ((p, p) :: acc) rest)
    in
    String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) (go [] pages))
  in
  let counters core =
    String.concat " "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (Cache_core.counter_list core @ Cache_core.shard_counter_list core))
    ^ " dirty=" ^ runs (Cache_core.dirty_resident core)
  in
  ( Buffer.contents log,
    Engine.events_executed e,
    Machine.now m,
    counters wb,
    counters wt )

let test_pinned_cache_schedule () =
  let log, events, now, wb, wt = pinned_cache_scenario () in
  (* Values captured while the cache path still built page lists and
     a closure per shard visit. *)
  if Digest.to_hex (Digest.string log) <> "f3b9ae0e664f47a4782b7a57992c159d"
  then Alcotest.failf "completions or downstream ops changed:\n%s" log;
  Alcotest.(check int) "events_executed" 1337 events;
  Alcotest.(check string) "final time" "635929.200" (Printf.sprintf "%.3f" now);
  Alcotest.(check string) "write-back counters"
    "hits=77 misses=9 writeback_failures=8 readahead_issued=148 \
     readahead_hits=69 readahead_wasted=30 dirty_evictions=38 flush_ops=11 \
     flush_pages=38 shard0_hits=62 shard0_misses=4 shard0_evictions=0 \
     shard1_hits=15 shard1_misses=1 shard1_evictions=4 shard2_hits=0 \
     shard2_misses=0 shard2_evictions=0 shard3_hits=0 shard3_misses=4 \
     shard3_evictions=34 dirty=124-131,226-249,448-479"
    wb;
  Alcotest.(check string) "write-through counters"
    "hits=1 misses=0 writeback_failures=0 readahead_issued=0 \
     readahead_hits=0 readahead_wasted=0 dirty_evictions=0 flush_ops=0 \
     flush_pages=0 shard0_hits=0 shard0_misses=0 shard0_evictions=0 \
     shard1_hits=0 shard1_misses=0 shard1_evictions=0 shard2_hits=1 \
     shard2_misses=0 shard2_evictions=0 shard3_hits=0 shard3_misses=0 \
     shard3_evictions=0 dirty=900-903"
    wt

(* ------------------------------------------------------------------ *)
(* worker_max_inflight plumbing                                        *)
(* ------------------------------------------------------------------ *)

let test_run_config_worker_max_inflight () =
  (match Lab_runtime.Run_config.parse "workers: 2\nworker_max_inflight: 4" with
  | Ok c ->
      Alcotest.(check int) "parsed" 4 c.Lab_runtime.Runtime.worker_max_inflight
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Lab_runtime.Run_config.parse "workers: 2" with
  | Ok c ->
      Alcotest.(check int) "default" 16
        c.Lab_runtime.Runtime.worker_max_inflight
  | Error e -> Alcotest.failf "parse failed: %s" e

let () =
  Alcotest.run "cache_core"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_single_shard_matches_model ] );
      ( "readahead",
        [
          Alcotest.test_case "window ramp" `Quick test_readahead_ramp;
          Alcotest.test_case "separate streams" `Quick
            test_readahead_separate_streams;
          Alcotest.test_case "faulted fill dropped" `Quick
            test_faulted_prefetch_not_admitted;
        ] );
      ( "writeback",
        [
          Alcotest.test_case "coalesces adjacent" `Quick
            test_writeback_coalesces_adjacent;
        ] );
      ( "sharded-mods",
        [
          Alcotest.test_case "lru shards=4" `Quick test_sharded_lru_mod;
          Alcotest.test_case "arc ghost lists" `Quick
            test_arc_ghost_lists_under_readahead;
          Alcotest.test_case "pinned cache schedule" `Quick
            test_pinned_cache_schedule;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "worker_max_inflight config" `Quick
            test_run_config_worker_max_inflight;
        ] );
    ]
