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
  pol_evicted : unit -> int;
  pol_live : unit -> int;
}

type policy_factory = capacity:int -> policy

let lru_policy ~capacity =
  let lru = Lru.create ~capacity () in
  let last = ref (-1) in
  {
    pol_mem = (fun p -> Lru.mem lru p);
    pol_touch =
      (fun p ->
        last := -1;
        Lru.touch lru p
        || begin
             last := Lru.put_evict lru p ();
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
  wb_high : int;
  wb_low : int;
}

(* A readahead window starts at [ra_min] pages and doubles up to
   [ra_max] (Linux-style 4 -> 64); a write-back run merges at most
   [wb_max_batch] pages. *)
let ra_min = 4

let ra_max = 64

let wb_max_batch = 64

let attr_table =
  Keys.
    [
      int "capacity_mb" (fun c mb ->
          { c with capacity_pages = Stdlib.max 1 (mb * 1024 * 1024 / c.page_bytes) });
      int "shards" (fun c n -> { c with nshards = Stdlib.max 1 n });
      bool "write_through" (fun c write_through -> { c with write_through });
      bool "readahead" (fun c readahead -> { c with readahead });
    ]

let config_of_attrs ~name attrs =
  Keys.decode attr_table
    {
      cfg_name = name;
      capacity_pages = 64 * 1024 * 1024 / 4096;
      page_bytes = 4096;
      nshards = 1;
      write_through = false;
      readahead = false;
      wb_high = 32;
      wb_low = 8;
    }
    attrs

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type shard = {
  sh_id : int;
  pol : policy;
  lock : Semaphore.t;
  dirty : unit Itbl.t;  (* resident dirty pages *)
  dirty_log : int Queue.t;  (* evicted dirty pages awaiting flush *)
  prefetched : unit Itbl.t;  (* admitted by readahead, unaccessed *)
  mutable sh_hits : int;
  mutable sh_misses : int;
  mutable sh_evictions : int;
}

type stream = { mutable next_page : int; mutable window : int }

type t = {
  cfg : config;
  shards : shard array;
  streams : stream Itbl.t;
  ra_inflight : Waitq.t Itbl.t;  (* page -> fill arrival *)
  mutable ra_free : Waitq.t list;  (* drained queues, for reuse *)
  hit_count : Metrics.counter;
  miss_count : Metrics.counter;
  wb_failures : Metrics.counter;
  ra_issued : Metrics.counter;
  ra_hits : Metrics.counter;
  ra_wasted : Metrics.counter;
  dirty_evicted : Metrics.counter;
  flush_op_count : Metrics.counter;
  flush_page_count : Metrics.counter;
  (* The burst [charge] runs, staged right before each call; shared by
     every thread, as nothing between a stage and its call waits. *)
  burst : float array;
}

(* [env]'s registry gets the engine's counters under "mod.<instance>."
   ([?instance] defaults to the config name, which is the wrapping
   LabMod's module name — pass the uuid for per-instance metrics).
   Detached counters otherwise; behaviour is identical. *)
let create ~policy ?(env = Mod_util.detached) ?instance cfg =
  let inst = Option.value instance ~default:cfg.cfg_name in
  let env = Mod_util.for_instance env ~uuid:inst in
  let counter k =
    Metrics.counter ?reg:env.Mod_util.metrics (Printf.sprintf "mod.%s.%s" inst k)
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
            dirty = Itbl.create 128;
            dirty_log = Queue.create ();
            prefetched = Itbl.create 32;
            sh_hits = 0;
            sh_misses = 0;
            sh_evictions = 0;
          });
    streams = Itbl.create 8;
    ra_inflight = Itbl.create 32;
    ra_free = [];
    hit_count = counter "hits";
    miss_count = counter "misses";
    wb_failures = counter "writeback_failures";
    ra_issued = counter "readahead_issued";
    ra_hits = counter "readahead_hits";
    ra_wasted = counter "readahead_wasted";
    dirty_evicted = counter "dirty_evictions";
    flush_op_count = counter "flush_ops";
    flush_page_count = counter "flush_pages";
    burst = [| 0.0 |];
  }
  in
  (* Dirty-log depth is the write-back pressure signal; exposing it as a
     sampled series shows the high/low watermark sawtooth over time. *)
  (match env.Mod_util.timeseries with
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

(* A request covers the page range [first .. last]. Pages map to shards
   in 64-page chunks, not singly: adjacent pages must share a shard so
   a readahead run or a write-back batch is shard-local and stays
   mergeable into one downstream op. *)
let chunk_shift = 6

let chunk_pages = 1 lsl chunk_shift

let shard_of t page = t.shards.((page lsr chunk_shift) mod t.cfg.nshards)

let last_page t ~first ~bytes = first + ((bytes - 1) / t.cfg.page_bytes)

(* The first chunk at or after [c] that maps to shard [s]. *)
let first_chunk_on t s c =
  let n = t.cfg.nshards in
  c + ((s - (c mod n) + n) mod n)

(* Pages of [first .. last] on the shard that owns chunk [c0], the
   range's first chunk on that shard; [cl] is the range's last chunk. *)
let pages_on t ~first ~last ~c0 ~cl =
  let count = ref 0 and c = ref c0 in
  while !c <= cl do
    let lo = Stdlib.max first (!c lsl chunk_shift) in
    let hi = Stdlib.min last ((!c lsl chunk_shift) + chunk_pages - 1) in
    count := !count + (hi - lo + 1);
    c := !c + t.cfg.nshards
  done;
  !count

(* Enter a shard: serialize on its lock and pay the per-shard service
   cost. With one shard every worker funnels through here; with many
   the same total work spreads across independent locks. Every [enter]
   is paired with a [leave] on each exit path. Nothing in between can
   raise: [Cpu.compute], the policies and [Itbl] operations do not,
   and the engine never discontinues a process. *)
let charge t ctx =
  Machine.compute_cell ctx.Labmod.machine ~thread:ctx.Labmod.thread t.burst 0

let costs ctx = ctx.Labmod.machine.Machine.costs

let enter t ctx sh =
  Semaphore.acquire sh.lock;
  t.burst.(0) <- (costs ctx).Costs.cache_shard_ns;
  charge t ctx

let leave sh = Semaphore.release sh.lock

(* ------------------------------------------------------------------ *)
(* Dirty bookkeeping + coalesced write-back                            *)
(* ------------------------------------------------------------------ *)

(* Route the most recent touch's eviction (call under the shard lock,
   once per touch — policies only remember the last eviction). *)
let note_evictions t sh =
  let v = sh.pol.pol_evicted () in
  if v >= 0 then begin
    if Itbl.mem sh.prefetched v then begin
      Itbl.remove sh.prefetched v;
      Metrics.incr t.ra_wasted
    end;
    if Itbl.mem sh.dirty v then begin
      Itbl.remove sh.dirty v;
      Queue.add v sh.dirty_log;
      sh.sh_evictions <- sh.sh_evictions + 1;
      Metrics.incr t.dirty_evicted
    end
  end

let consume_prefetched t sh ~demand_read p =
  if Itbl.mem sh.prefetched p then begin
    Itbl.remove sh.prefetched p;
    if demand_read then Metrics.incr t.ra_hits
  end

(* Cache-internal I/O (readahead fills, write-back) is not part of any
   client request's critical path: it must not inherit the template's
   trace flow, or its module/device spans would be mis-attributed. *)
let derived_block template op =
  let io = { template with Request.payload = Request.Block op } in
  io.Request.hint_stream <- None;
  io.Request.prefetch <- false;
  io.Request.trace <- None;
  io

let write_back_run t ctx ~template start_page len =
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
   adjacent runs of at most [wb_max_batch] pages, one downstream write
   per run. *)
let flush_log t ctx sh ~template ~target =
  let n = Queue.length sh.dirty_log - target in
  if n > 0 then begin
    let pages = Array.make n 0 in
    for i = 0 to n - 1 do
      pages.(i) <- Queue.pop sh.dirty_log
    done;
    Array.sort Int.compare pages;
    let start = ref pages.(0) and len = ref 1 in
    for i = 1 to n - 1 do
      let p = pages.(i) in
      if p <> pages.(i - 1) then
        if p = !start + !len && !len < wb_max_batch then incr len
        else begin
          write_back_run t ctx ~template !start !len;
          start := p;
          len := 1
        end
    done;
    write_back_run t ctx ~template !start !len
  end

let maybe_flush t ctx sh ~template =
  if Queue.length sh.dirty_log >= t.cfg.wb_high then
    flush_log t ctx sh ~template ~target:t.cfg.wb_low

let drain t ctx ~template =
  Array.iter (fun sh -> flush_log t ctx sh ~template ~target:0) t.shards

(* ------------------------------------------------------------------ *)
(* Shard visits                                                        *)
(* ------------------------------------------------------------------ *)

(* What a visit does to each page of the range on the shard. *)
type action =
  | Resident  (* check residency (no promotion); stop at the first miss *)
  | Admit_clean  (* insert or refresh, clear the dirty bit *)
  | Admit_dirty  (* insert or refresh, set the dirty bit *)
  | Serve  (* a demand hit: refresh, consume the prefetch mark *)
  | Mark_dirty  (* set the dirty bit on resident pages *)

(* Apply [action] to one page (under the shard lock); false only for a
   non-resident page under [Resident]. *)
let page_action t sh action p =
  match action with
  | Resident -> sh.pol.pol_mem p
  | Mark_dirty ->
      if sh.pol.pol_mem p then Itbl.replace sh.dirty p ();
      true
  | Admit_clean | Admit_dirty | Serve ->
      ignore (sh.pol.pol_touch p);
      consume_prefetched t sh ~demand_read:(action = Serve) p;
      (match action with
      | Admit_dirty -> Itbl.replace sh.dirty p ()
      | Admit_clean -> Itbl.remove sh.dirty p
      | _ -> ());
      note_evictions t sh;
      true

(* The range's pages on one shard, in ascending order: chunk [c0], then
   every [nshards]-th chunk up to [cl]. Stops at the first false page. *)
let visit_pages t sh action ~first ~last ~c0 ~cl =
  let ok = ref true and c = ref c0 in
  while !ok && !c <= cl do
    let lo = Stdlib.max first (!c lsl chunk_shift) in
    let hi = Stdlib.min last ((!c lsl chunk_shift) + chunk_pages - 1) in
    let p = ref lo in
    while !ok && !p <= hi do
      ok := page_action t sh action !p;
      incr p
    done;
    c := !c + t.cfg.nshards
  done;
  !ok

(* Visit every shard the range touches, in ascending shard id so
   concurrent requests always take shard locks in the same order, each
   once under its lock. Admits charge the insert cost per page on the
   shard; admits and hits may trigger a write-back flush after the
   lock is released. A [Resident] visit stops at the first shard with
   a non-resident page and returns false. *)
let visit_shards t ctx req action ~first ~last =
  let n = t.cfg.nshards in
  let cf = first lsr chunk_shift and cl = last lsr chunk_shift in
  let s0, s1 = if cf = cl then (cf mod n, cf mod n) else (0, n - 1) in
  let ok = ref true and s = ref s0 in
  while !ok && !s <= s1 do
    let c0 = first_chunk_on t !s cf in
    if c0 <= cl then begin
      let sh = t.shards.(!s) in
      enter t ctx sh;
      (match action with
      | Admit_clean | Admit_dirty ->
          t.burst.(0) <-
            (costs ctx).Costs.cache_insert_ns
            *. Stdlib.float_of_int (pages_on t ~first ~last ~c0 ~cl);
          charge t ctx
      | Resident | Serve | Mark_dirty -> ());
      ok := visit_pages t sh action ~first ~last ~c0 ~cl;
      leave sh;
      match action with
      | Admit_clean | Admit_dirty | Serve -> maybe_flush t ctx sh ~template:req
      | Resident | Mark_dirty -> ()
    end;
    incr s
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Readahead                                                           *)
(* ------------------------------------------------------------------ *)

let stream_of t req =
  let key =
    match req.Request.hint_stream with Some s -> s | None -> req.Request.pid
  in
  match Itbl.find t.streams key with
  | s -> s
  | exception Not_found ->
      let s = { next_page = Stdlib.min_int; window = 0 } in
      Itbl.replace t.streams key s;
      s

(* A fill's completion: admit each page clean on success, or drop it
   (a faulted fill has no data), then wake the page's demand readers —
   only after the page is admitted or dropped, so their residency
   re-check sees the outcome. *)
let fill_arrived t ctx ~template ~start ~len r =
  let ok = Request.is_ok r in
  for p = start to start + len - 1 do
    if ok then begin
      let sh = shard_of t p in
      enter t ctx sh;
      t.burst.(0) <- (costs ctx).Costs.cache_insert_ns;
      charge t ctx;
      if not (sh.pol.pol_touch p) then Itbl.replace sh.prefetched p ();
      note_evictions t sh;
      leave sh;
      maybe_flush t ctx sh ~template
    end
    else Metrics.incr t.ra_wasted;
    match Itbl.find t.ra_inflight p with
    | wq ->
        Itbl.remove t.ra_inflight p;
        ignore (Waitq.wake_all wq);
        t.ra_free <- wq :: t.ra_free
    | exception Not_found -> ()
  done

let resident t p = (shard_of t p).pol.pol_mem p

let ra_candidate t p = (not (Itbl.mem t.ra_inflight p)) && not (resident t p)

(* Issue prefetch reads for [start .. start+count-1], skipping resident
   and already-in-flight pages, merged into contiguous runs of at most
   [ra_max] pages. [forward_async] only schedules a fill, so no page's
   state changes while the runs are cut. *)
let issue_readahead t ctx ~template ~start ~count =
  let stop = start + count - 1 in
  let p = ref start in
  while !p <= stop do
    if ra_candidate t !p then begin
      let s = !p in
      while !p <= stop && !p - s < ra_max && ra_candidate t !p do
        let wq =
          match t.ra_free with
          | wq :: rest ->
              t.ra_free <- rest;
              wq
          | [] -> Waitq.create ()
        in
        Itbl.replace t.ra_inflight !p wq;
        incr p
      done;
      let len = !p - s in
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
      ctx.Labmod.forward_async io (fill_arrived t ctx ~template ~start:s ~len)
    end
    else incr p
  done

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
        (if s.window = 0 then ra_min else Stdlib.min ra_max (s.window * 2));
      s.next_page <- last + 1;
      issue_readahead t ctx ~template:req ~start:(last + 1) ~count:s.window
    end
    else begin
      s.window <- 0;
      s.next_page <- last + 1
    end
  end

(* When every non-resident page of the range has a prefetch fill in
   flight, park until each of those fills has arrived and return true;
   otherwise return false at once, without waiting. *)
let ride_fills t ~first ~last =
  let missing = ref 0 and riding = ref true and p = ref first in
  while !riding && !p <= last do
    if not (resident t !p) then begin
      incr missing;
      riding := Itbl.mem t.ra_inflight !p
    end;
    incr p
  done;
  !riding && !missing > 0
  && begin
       (* Only the pages missing now are waited for, even if a resident
          one is evicted and refetched while this reader is parked. *)
       let waited = Bytes.make (last - first + 1) '\000' in
       for p = first to last do
         if not (resident t p) then Bytes.set waited (p - first) '\001'
       done;
       for p = first to last do
         if Bytes.get waited (p - first) = '\001' then
           match Itbl.find t.ra_inflight p with
           | wq -> Waitq.park wq
           | exception Not_found -> ()
       done;
       true
     end

(* ------------------------------------------------------------------ *)
(* The data path                                                       *)
(* ------------------------------------------------------------------ *)

let serve_hit t ctx req ~home ~first ~last ~bytes =
  Metrics.incr t.hit_count;
  home.sh_hits <- home.sh_hits + 1;
  Hooks.cache ctx req ~hit:true;
  ignore (visit_shards t ctx req Serve ~first ~last);
  Costs.stage_copy_cost (costs ctx) bytes t.burst 0;
  charge t ctx;
  Request.Size bytes

let demand_miss t ctx req ~home ~first ~last ~bytes =
  Metrics.incr t.miss_count;
  home.sh_misses <- home.sh_misses + 1;
  Hooks.cache ctx req ~hit:false;
  let result = ctx.Labmod.forward req in
  (* Never admit a page whose fill failed: a faulted read left no data
     to cache, and admitting it would serve garbage on the next (hit)
     access. *)
  if Request.is_ok result then begin
    Costs.stage_copy_cost (costs ctx) bytes t.burst 0;
    charge t ctx;
    ignore (visit_shards t ctx req Admit_clean ~first ~last)
  end;
  result

(* Hit and miss are charged to the range's first (home) shard. *)
let read t ctx req ~first ~last ~bytes =
  t.burst.(0) <-
    (costs ctx).Costs.cache_lookup_ns *. Stdlib.float_of_int (last - first + 1);
  charge t ctx;
  let home = shard_of t first in
  if visit_shards t ctx req Resident ~first ~last then
    serve_hit t ctx req ~home ~first ~last ~bytes
  else if (not req.Request.prefetch) && ride_fills t ~first ~last then begin
    (* The fills arrived: served from cache after a short wait, like
       Linux waiting on a locked page — unless one faulted or its page
       was already evicted. *)
    let all = ref true and p = ref first in
    while !all && !p <= last do
      all := resident t !p;
      incr p
    done;
    if !all then serve_hit t ctx req ~home ~first ~last ~bytes
    else demand_miss t ctx req ~home ~first ~last ~bytes
  end
  else demand_miss t ctx req ~home ~first ~last ~bytes

let operate t ctx req =
  match req.Request.payload with
  | Request.Block { b_sync = true; _ } ->
      (* Force-unit-access traffic (journal/flush writes) bypasses the
         cache and goes straight to the device. *)
      ctx.Labmod.forward req
  | Request.Block { b_kind = Request.Write; b_lba; b_bytes; b_sync = false } ->
      let first = b_lba and last = last_page t ~first:b_lba ~bytes:b_bytes in
      Costs.stage_copy_cost (costs ctx) b_bytes t.burst 0;
      charge t ctx;
      if t.cfg.write_through then begin
        (* Copy in + insert clean, then persist synchronously. *)
        ignore (visit_shards t ctx req Admit_clean ~first ~last);
        let result = ctx.Labmod.forward req in
        (* Device fault: the cache copy is now the only good copy; mark
           it dirty so eviction retries the persist. *)
        if not (Request.is_ok result) then
          ignore (visit_shards t ctx req Mark_dirty ~first ~last);
        result
      end
      else begin
        (* Write-back: absorbed here; the data reaches the device when
           its pages are evicted (or the log is drained). *)
        ignore (visit_shards t ctx req Admit_dirty ~first ~last);
        Request.Size b_bytes
      end
  | Request.Block { b_kind = Request.Read; b_lba; b_bytes; b_sync = false } ->
      let first = b_lba and last = last_page t ~first:b_lba ~bytes:b_bytes in
      let result = read t ctx req ~first ~last ~bytes:b_bytes in
      if not req.Request.prefetch then track_and_prefetch t ctx req ~first ~last;
      result
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
       (fun acc sh -> Itbl.fold (fun p () l -> p :: l) sh.dirty acc)
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
