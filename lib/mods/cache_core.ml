(* Sharded cache engine shared by the LRU and ARC cache LabMods:
   per-shard indexes and locks, sequential readahead with a ramping
   window, and watermark-triggered coalesced dirty write-back. The
   replacement policy is a per-shard record of closures supplied by the
   wrapping LabMod. *)

open Lab_sim
open Lab_core
module Metrics = Lab_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

type policy = {
  pol_mem : int -> bool;
  pol_touch : int -> bool;
  pol_evicted : unit -> int list;
  pol_live : unit -> int;
}

type policy_factory = capacity:int -> policy

let lru_policy ~capacity =
  let lru = Lru.create ~capacity () in
  let last = ref [] in
  {
    pol_mem = (fun p -> Lru.mem lru p);
    pol_touch =
      (fun p ->
        last := [];
        if Lru.mem lru p then begin
          ignore (Lru.find lru p);
          true
        end
        else begin
          (match Lru.put lru p () with
          | Some (v, ()) -> last := [ v ]
          | None -> ());
          false
        end);
    pol_evicted = (fun () -> !last);
    pol_live = (fun () -> Lru.length lru);
  }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  cfg_name : string;
  capacity_pages : int;
  page_bytes : int;
  nshards : int;
  write_through : bool;
  readahead : bool;
  ra_min : int;
  ra_max : int;
  wb_high : int;
  wb_low : int;
  wb_max_batch : int;
}

let config_of_attrs ~name attrs =
  let geti key default =
    Option.value ~default (Option.bind (List.assoc_opt key attrs) Yamlite.get_int)
  in
  let getb key default =
    Option.value ~default
      (Option.bind (List.assoc_opt key attrs) Yamlite.get_bool)
  in
  let page_bytes = 4096 in
  let ra_min = Stdlib.max 1 (geti "ra_min_pages" 4) in
  let wb_high = Stdlib.max 1 (geti "wb_high" 32) in
  {
    cfg_name = name;
    capacity_pages =
      Stdlib.max 1 (geti "capacity_mb" 64 * 1024 * 1024 / page_bytes);
    page_bytes;
    nshards = Stdlib.max 1 (geti "shards" 1);
    write_through = getb "write_through" false;
    readahead = getb "readahead" false;
    ra_min;
    ra_max = Stdlib.max ra_min (geti "ra_max_pages" 64);
    wb_high;
    wb_low = Stdlib.min (wb_high - 1) (Stdlib.max 0 (geti "wb_low" 8));
    wb_max_batch = Stdlib.max 1 (geti "wb_max_batch" 64);
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type shard = {
  sh_id : int;
  pol : policy;
  lock : Semaphore.t;
  dirty : (int, unit) Hashtbl.t;  (* resident dirty pages *)
  dirty_log : int Queue.t;  (* evicted dirty pages awaiting flush *)
  prefetched : (int, unit) Hashtbl.t;  (* admitted by readahead, unaccessed *)
  mutable sh_hits : int;
  mutable sh_misses : int;
  mutable sh_evictions : int;
}

type stream = { mutable next_page : int; mutable window : int }

type t = {
  cfg : config;
  shards : shard array;
  streams : (int, stream) Hashtbl.t;
  ra_inflight : (int, unit Waitq.t) Hashtbl.t;  (* page -> fill arrival *)
  hit_count : Metrics.counter;
  miss_count : Metrics.counter;
  wb_failures : Metrics.counter;
  ra_issued : Metrics.counter;
  ra_hits : Metrics.counter;
  ra_wasted : Metrics.counter;
  dirty_evicted : Metrics.counter;
  flush_op_count : Metrics.counter;
  flush_page_count : Metrics.counter;
}

(* [?metrics] attaches the engine's counters to a registry under
   "mod.<instance>." ([?instance] defaults to the config name, which is
   the wrapping LabMod's module name — pass the uuid for per-instance
   metrics). Detached counters otherwise; behaviour is identical. *)
let create ~policy ?metrics ?timeseries ?instance cfg =
  let inst = Option.value instance ~default:cfg.cfg_name in
  (* Probe instantiations (stack validation, `labstor_cli mods`) use the
     reserved "__probe__" uuid and must not pollute the registry. *)
  let metrics = if inst = "__probe__" then None else metrics in
  let timeseries = if inst = "__probe__" then None else timeseries in
  let counter k =
    Metrics.counter ?reg:metrics (Printf.sprintf "mod.%s.%s" inst k)
  in
  let per_shard =
    Stdlib.max 1 ((cfg.capacity_pages + cfg.nshards - 1) / cfg.nshards)
  in
  let t =
  {
    cfg;
    shards =
      Array.init cfg.nshards (fun i ->
          {
            sh_id = i;
            pol = policy ~capacity:per_shard;
            lock = Semaphore.create 1;
            dirty = Hashtbl.create 256;
            dirty_log = Queue.create ();
            prefetched = Hashtbl.create 64;
            sh_hits = 0;
            sh_misses = 0;
            sh_evictions = 0;
          });
    streams = Hashtbl.create 16;
    ra_inflight = Hashtbl.create 64;
    hit_count = counter "hits";
    miss_count = counter "misses";
    wb_failures = counter "writeback_failures";
    ra_issued = counter "readahead_issued";
    ra_hits = counter "readahead_hits";
    ra_wasted = counter "readahead_wasted";
    dirty_evicted = counter "dirty_evictions";
    flush_op_count = counter "flush_ops";
    flush_page_count = counter "flush_pages";
  }
  in
  (* Dirty-log depth is the write-back pressure signal; exposing it as a
     sampled series shows the high/low watermark sawtooth over time. *)
  (match timeseries with
  | Some ts ->
      Lab_obs.Timeseries.add_series ts
        (Printf.sprintf "mod.%s.dirty_backlog" inst)
        (fun _now ->
          Stdlib.float_of_int
            (Array.fold_left
               (fun acc sh -> acc + Queue.length sh.dirty_log)
               0 t.shards))
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let pages_of ~page_bytes lba bytes =
  let first = lba and last = lba + ((bytes - 1) / page_bytes) in
  List.init (last - first + 1) (fun i -> first + i)

(* Pages map to shards in 64-page chunks, not singly: adjacent pages
   must share a shard so a readahead run or a write-back batch is
   shard-local and stays mergeable into one downstream op. *)
let chunk_shift = 6

let shard_of t page = t.shards.((page lsr chunk_shift) mod t.cfg.nshards)

(* Group a request's pages by shard, groups in ascending shard order so
   concurrent requests always visit shards in the same order. A
   one-page request (the common case) is its own single group. *)
let group_by_shard t pages =
  match pages with
  | [ p ] -> [ (shard_of t p, pages) ]
  | _ ->
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun p ->
          let sh = shard_of t p in
          match Hashtbl.find_opt tbl sh.sh_id with
          | Some (_, acc) -> acc := p :: !acc
          | None -> Hashtbl.replace tbl sh.sh_id (sh, ref [ p ]))
        pages;
      List.sort
        (fun ((a : shard), _) (b, _) -> compare a.sh_id b.sh_id)
        (Hashtbl.fold
           (fun _ (sh, acc) gs -> (sh, List.rev !acc) :: gs)
           tbl [])

(* Enter a shard: serialize on its lock and pay the per-shard service
   cost. With one shard every worker funnels through here; with many
   the same total work spreads across independent locks. *)
let with_shard ctx sh f =
  Semaphore.acquire sh.lock;
  let machine = ctx.Labmod.machine in
  Machine.compute machine ~thread:ctx.Labmod.thread
    machine.Machine.costs.Costs.cache_shard_ns;
  Fun.protect ~finally:(fun () -> Semaphore.release sh.lock) f

(* ------------------------------------------------------------------ *)
(* Dirty bookkeeping + coalesced write-back                            *)
(* ------------------------------------------------------------------ *)

(* Route the most recent touch's evictions (call under the shard lock,
   once per touch — policies only remember the last eviction). *)
let note_evictions t sh =
  List.iter
    (fun v ->
      if Hashtbl.mem sh.prefetched v then begin
        Hashtbl.remove sh.prefetched v;
        Metrics.incr t.ra_wasted
      end;
      if Hashtbl.mem sh.dirty v then begin
        Hashtbl.remove sh.dirty v;
        Queue.add v sh.dirty_log;
        sh.sh_evictions <- sh.sh_evictions + 1;
        Metrics.incr t.dirty_evicted
      end)
    (sh.pol.pol_evicted ())

let consume_prefetched t sh ~demand_read p =
  if Hashtbl.mem sh.prefetched p then begin
    Hashtbl.remove sh.prefetched p;
    if demand_read then Metrics.incr t.ra_hits
  end

(* Merge sorted distinct pages into (start, length) runs of adjacent
   pages, each at most [max_batch] long. *)
let runs_of_pages pages ~max_batch =
  match pages with
  | [] -> []
  | p0 :: rest ->
      let runs, last =
        List.fold_left
          (fun (runs, (s, len)) p ->
            if p = s + len && len < max_batch then (runs, (s, len + 1))
            else ((s, len) :: runs, (p, 1)))
          ([], (p0, 1))
          rest
      in
      List.rev (last :: runs)

(* Cache-internal I/O (readahead fills, write-back) is not part of any
   client request's critical path: it must not inherit the template's
   trace flow, or its module/device spans would be mis-attributed. *)
let derived_block template op =
  let io = { template with Request.payload = Request.Block op } in
  io.Request.hint_stream <- None;
  io.Request.prefetch <- false;
  io.Request.trace <- None;
  io

(* Point event on the traced request's timeline (hit/miss markers). *)
let trace_instant ctx (req : Request.t) name =
  match req.Request.trace with
  | Some fl ->
      Lab_obs.Trace.instant fl ~name ~tid:ctx.Labmod.thread
        ~now:(Machine.now ctx.Labmod.machine)
  | None -> ()

let write_back_run t ctx ~template (start_page, len) =
  Metrics.incr t.flush_op_count;
  Metrics.incr ~by:len t.flush_page_count;
  let io =
    derived_block template
      {
        Request.b_kind = Request.Write;
        b_lba = start_page;
        b_bytes = len * t.cfg.page_bytes;
        b_sync = false;
      }
  in
  ctx.Labmod.forward_async io (fun r ->
      if not (Request.is_ok r) then Metrics.incr ~by:len t.wb_failures)

(* Flush the shard's dirty log down to [target] entries: pop, sort,
   dedup (a page can be evicted twice between flushes), merge into
   adjacent runs, one downstream write per run. *)
let flush_log t ctx sh ~template ~target =
  if Queue.length sh.dirty_log > target then begin
    let n = Queue.length sh.dirty_log - target in
    let popped = List.init n (fun _ -> Queue.pop sh.dirty_log) in
    List.iter
      (write_back_run t ctx ~template)
      (runs_of_pages
         (List.sort_uniq compare popped)
         ~max_batch:t.cfg.wb_max_batch)
  end

let maybe_flush t ctx sh ~template =
  if Queue.length sh.dirty_log >= t.cfg.wb_high then
    flush_log t ctx sh ~template ~target:t.cfg.wb_low

let drain t ctx ~template =
  Array.iter (fun sh -> flush_log t ctx sh ~template ~target:0) t.shards

(* ------------------------------------------------------------------ *)
(* Readahead                                                           *)
(* ------------------------------------------------------------------ *)

let stream_of t req =
  let key =
    match req.Request.hint_stream with Some s -> s | None -> req.Request.pid
  in
  match Hashtbl.find_opt t.streams key with
  | Some s -> s
  | None ->
      let s = { next_page = Stdlib.min_int; window = 0 } in
      Hashtbl.replace t.streams key s;
      s

(* Issue prefetch reads for [start .. start+count-1], skipping resident
   and already-in-flight pages, merged into contiguous runs. Fills are
   admitted clean in the completion callback — and dropped entirely
   when the downstream read failed (a faulted fill has no data). *)
let issue_readahead t ctx ~template ~start ~count =
  let candidates =
    List.filter
      (fun p ->
        (not (Hashtbl.mem t.ra_inflight p))
        && not ((shard_of t p).pol.pol_mem p))
      (List.init count (fun i -> start + i))
  in
  List.iter
    (fun (s, len) ->
      let run_pages = List.init len (fun i -> s + i) in
      List.iter
        (fun p -> Hashtbl.replace t.ra_inflight p (Waitq.create ()))
        run_pages;
      Metrics.incr ~by:len t.ra_issued;
      let io =
        derived_block template
          {
            Request.b_kind = Request.Read;
            b_lba = s;
            b_bytes = len * t.cfg.page_bytes;
            b_sync = false;
          }
      in
      io.Request.prefetch <- true;
      ctx.Labmod.forward_async io (fun r ->
          let ok = Request.is_ok r in
          List.iter
            (fun p ->
              if ok then begin
                let sh = shard_of t p in
                with_shard ctx sh (fun () ->
                    let machine = ctx.Labmod.machine in
                    Machine.compute machine ~thread:ctx.Labmod.thread
                      machine.Machine.costs.Costs.cache_insert_ns;
                    if not (sh.pol.pol_touch p) then
                      Hashtbl.replace sh.prefetched p ();
                    note_evictions t sh);
                maybe_flush t ctx sh ~template
              end
              else Metrics.incr t.ra_wasted;
              (* Wake demand readers only after the page is admitted
                 (or definitively dropped), so their residency re-check
                 sees the outcome. *)
              match Hashtbl.find_opt t.ra_inflight p with
              | Some wq ->
                  Hashtbl.remove t.ra_inflight p;
                  ignore (Waitq.wake_all wq ())
              | None -> ())
            run_pages))
    (runs_of_pages candidates ~max_batch:t.cfg.ra_max)

(* Sequential-stream detection on demand reads: a read continuing
   exactly at the stream's last end ramps the window (ra_min, doubling,
   capped at ra_max) and prefetches it; anything else resets the
   window. Prefetch-tagged reads never re-trigger readahead, so tiered
   caches do not cascade. *)
let track_and_prefetch t ctx req ~first ~last =
  if t.cfg.readahead && not req.Request.prefetch then begin
    let s = stream_of t req in
    if first = s.next_page then begin
      s.window <-
        (if s.window = 0 then t.cfg.ra_min
         else Stdlib.min t.cfg.ra_max (s.window * 2));
      s.next_page <- last + 1;
      issue_readahead t ctx ~template:req ~start:(last + 1) ~count:s.window
    end
    else begin
      s.window <- 0;
      s.next_page <- last + 1
    end
  end

(* Park until every in-flight fill among [pages] has arrived. *)
let wait_for_fills t pages =
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.ra_inflight p with
      | Some wq ->
          let slot = ref None in
          Waitq.park wq slot
      | None -> ())
    pages

(* ------------------------------------------------------------------ *)
(* The data path                                                       *)
(* ------------------------------------------------------------------ *)

let operate t ctx req =
  match req.Request.payload with
  | Request.Block { b_sync = true; _ } ->
      (* Force-unit-access traffic (journal/flush writes) bypasses the
         cache and goes straight to the device. *)
      ctx.Labmod.forward req
  | Request.Block { b_kind; b_lba; b_bytes; b_sync = false } -> (
      let machine = ctx.Labmod.machine in
      let costs = machine.Machine.costs in
      let copy = Costs.copy_cost costs b_bytes in
      let pages = pages_of ~page_bytes:t.cfg.page_bytes b_lba b_bytes in
      let npages = Stdlib.float_of_int (List.length pages) in
      let first = List.hd pages in
      let last = first + List.length pages - 1 in
      let groups = group_by_shard t pages in
      let home = shard_of t first in  (* shard charged with the hit/miss *)
      (* Insert/refresh [ps] in [sh]; dirty_of decides the dirty bit. *)
      let admit_group ~dirty ~demand_read (sh, ps) =
        with_shard ctx sh (fun () ->
            Machine.compute machine ~thread:ctx.Labmod.thread
              (costs.Costs.cache_insert_ns
              *. Stdlib.float_of_int (List.length ps));
            List.iter
              (fun p ->
                ignore (sh.pol.pol_touch p);
                consume_prefetched t sh ~demand_read p;
                if dirty then Hashtbl.replace sh.dirty p ()
                else Hashtbl.remove sh.dirty p;
                note_evictions t sh)
              ps);
        maybe_flush t ctx sh ~template:req
      in
      match b_kind with
      | Request.Write ->
          Machine.compute machine ~thread:ctx.Labmod.thread copy;
          if t.cfg.write_through then begin
            (* Copy in + insert clean, then persist synchronously. *)
            List.iter (admit_group ~dirty:false ~demand_read:false) groups;
            let result = ctx.Labmod.forward req in
            (* Device fault: the cache copy is now the only good copy;
               mark it dirty so eviction retries the persist. *)
            if not (Request.is_ok result) then
              List.iter
                (fun (sh, ps) ->
                  with_shard ctx sh (fun () ->
                      List.iter
                        (fun p ->
                          if sh.pol.pol_mem p then
                            Hashtbl.replace sh.dirty p ())
                        ps))
                groups;
            result
          end
          else begin
            (* Write-back: absorbed here; the data reaches the device
               when its pages are evicted (or the log is drained). *)
            List.iter (admit_group ~dirty:true ~demand_read:false) groups;
            Request.Size b_bytes
          end
      | Request.Read ->
          Machine.compute machine ~thread:ctx.Labmod.thread
            (costs.Costs.cache_lookup_ns *. npages);
          let resident_under_locks () =
            List.for_all
              (fun ((sh : shard), ps) ->
                with_shard ctx sh (fun () ->
                    List.for_all (fun p -> sh.pol.pol_mem p) ps))
              groups
          in
          let serve_hit () =
            List.iter
              (fun ((sh : shard), ps) ->
                with_shard ctx sh (fun () ->
                    List.iter
                      (fun p ->
                        ignore (sh.pol.pol_touch p);
                        consume_prefetched t sh ~demand_read:true p;
                        note_evictions t sh)
                      ps);
                maybe_flush t ctx sh ~template:req)
              groups;
            Machine.compute machine ~thread:ctx.Labmod.thread copy;
            Request.Size b_bytes
          in
          let demand_miss () =
            Metrics.incr t.miss_count;
            home.sh_misses <- home.sh_misses + 1;
            trace_instant ctx req "cache_miss";
            let result = ctx.Labmod.forward req in
            (* Never admit a page whose fill failed: a faulted read left
               no data to cache, and admitting it would serve garbage on
               the next (hit) access. *)
            if Request.is_ok result then begin
              Machine.compute machine ~thread:ctx.Labmod.thread copy;
              List.iter (admit_group ~dirty:false ~demand_read:false) groups
            end;
            result
          in
          let result =
            if resident_under_locks () then begin
              Metrics.incr t.hit_count;
              home.sh_hits <- home.sh_hits + 1;
              trace_instant ctx req "cache_hit";
              serve_hit ()
            end
            else begin
              (* When every missing page already has a prefetch fill in
                 flight, ride that fill instead of issuing a duplicate
                 downstream read. *)
              let missing =
                List.filter (fun p -> not ((shard_of t p).pol.pol_mem p)) pages
              in
              if
                (not req.Request.prefetch)
                && missing <> []
                && List.for_all (fun p -> Hashtbl.mem t.ra_inflight p) missing
              then begin
                wait_for_fills t missing;
                if
                  List.for_all (fun p -> (shard_of t p).pol.pol_mem p) pages
                then begin
                  (* The fill arrived: served from cache after a short
                     wait, like Linux waiting on a locked page. *)
                  Metrics.incr t.hit_count;
                  home.sh_hits <- home.sh_hits + 1;
                  trace_instant ctx req "cache_hit";
                  serve_hit ()
                end
                else demand_miss () (* fill faulted or already evicted *)
              end
              else demand_miss ()
            end
          in
          if not req.Request.prefetch then
            track_and_prefetch t ctx req ~first ~last;
          result)
  | Request.Control _ ->
      (* fsync-like hook: flush every shard's write-back log, then let
         the control message continue downstream. *)
      drain t ctx ~template:req;
      ctx.Labmod.forward req
  | Request.Posix _ | Request.Kv _ ->
      Request.Failed (t.cfg.cfg_name ^ ": expects block requests")

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let hits t = Metrics.value t.hit_count

let misses t = Metrics.value t.miss_count

let writeback_failures t = Metrics.value t.wb_failures

let readahead_issued t = Metrics.value t.ra_issued

let readahead_hits t = Metrics.value t.ra_hits

let readahead_wasted t = Metrics.value t.ra_wasted

let dirty_evictions t = Metrics.value t.dirty_evicted

let flush_ops t = Metrics.value t.flush_op_count

let flush_pages t = Metrics.value t.flush_page_count

let readahead_accuracy t =
  if readahead_issued t = 0 then 0.0
  else
    Stdlib.float_of_int (readahead_hits t)
    /. Stdlib.float_of_int (readahead_issued t)

let avg_flush_batch t =
  if flush_ops t = 0 then 0.0
  else Stdlib.float_of_int (flush_pages t) /. Stdlib.float_of_int (flush_ops t)

let nshards t = t.cfg.nshards

let live_pages t =
  Array.fold_left (fun acc sh -> acc + sh.pol.pol_live ()) 0 t.shards

let dirty_resident t =
  List.sort compare
    (Array.fold_left
       (fun acc sh -> Hashtbl.fold (fun p () l -> p :: l) sh.dirty acc)
       [] t.shards)

let dirty_backlog t =
  Array.fold_left (fun acc sh -> acc + Queue.length sh.dirty_log) 0 t.shards

let counter_list t =
  [
    ("hits", hits t);
    ("misses", misses t);
    ("writeback_failures", writeback_failures t);
    ("readahead_issued", readahead_issued t);
    ("readahead_hits", readahead_hits t);
    ("readahead_wasted", readahead_wasted t);
    ("dirty_evictions", dirty_evictions t);
    ("flush_ops", flush_ops t);
    ("flush_pages", flush_pages t);
  ]

let shard_counter_list t =
  List.concat_map
    (fun sh ->
      [
        (Printf.sprintf "shard%d_hits" sh.sh_id, sh.sh_hits);
        (Printf.sprintf "shard%d_misses" sh.sh_id, sh.sh_misses);
        (Printf.sprintf "shard%d_evictions" sh.sh_id, sh.sh_evictions);
      ])
    (Array.to_list t.shards)
