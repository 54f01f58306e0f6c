(** Shared sharded cache engine behind the [lru_cache] and [arc_cache]
    LabMods.

    The replacement policy stays pluggable (a {!policy} record built per
    shard); everything else — sharding, sequential readahead, and
    coalesced dirty write-back — lives here once instead of being
    copy-pasted per policy.

    {b Sharding.} Pages are spread over [shards] independent shards in
    64-page chunks (adjacent pages share a shard, so readahead runs and
    write-back batches stay shard-local). Each shard has its own index,
    lock, dirty state and stats; a request pays
    {!Lab_sim.Costs.cache_shard_ns} per shard it enters, serialized on
    the shard's lock — concurrent workers contend on one structure with
    [shards = 1] and spread out with more.

    {b Readahead.} Demand reads are tracked per stream
    ([Request.hint_stream], falling back to the pid). A read continuing
    exactly where the stream's last one ended ramps the prefetch window
    4 pages → doubling → 64 pages (Linux-style) and
    issues the window downstream as merged prefetch-tagged reads. Fills
    are admitted clean on success and {e dropped} on failure (a faulted
    fill is never admitted, same rule as demand fills). A demand read
    whose missing pages are all being prefetched parks on the in-flight
    fill instead of issuing a duplicate device read.

    {b Write-back.} Evicted dirty pages accumulate in a per-shard dirty
    log; when the log reaches [wb_high] entries it is flushed down to
    [wb_low], sorted and merged into adjacent-LBA runs (at most 64
    pages each), one downstream write per run — instead
    of one write per evicted page. A [Control] request drains every
    log (an fsync-like hook) and is then forwarded. *)

open Lab_core

(** {2 Replacement policy} *)

type policy = {
  pol_mem : int -> bool;  (** is the page resident? (no promotion) *)
  pol_touch : int -> bool;
      (** record an access (promote or admit); true when the page was
          already resident. May evict. *)
  pol_evicted : unit -> int;
      (** the page evicted by the most recent [pol_touch], or -1 *)
  pol_live : unit -> int;  (** resident page count *)
}

type policy_factory = capacity:int -> policy
(** Called once per shard with the shard's capacity share. *)

val lru_policy : policy_factory

(** {2 Configuration} *)

type config = {
  cfg_name : string;  (** LabMod name, for error messages *)
  capacity_pages : int;  (** total, split evenly across shards *)
  page_bytes : int;
  nshards : int;
  write_through : bool;
  readahead : bool;
  wb_high : int;  (** dirty-log length that triggers a flush *)
  wb_low : int;  (** flush drains the log down to this length *)
}

val config_of_attrs : name:string -> (string * Yamlite.t) list -> config
(** The cache LabMods' attributes, decoded by {!Keys.decode}:
    [capacity_mb] (default 64, at least one 4 KiB page), [shards]
    (default 1, at least 1), [write_through] (false) and [readahead]
    (false). [wb_high] is 32 and [wb_low] 8; callers that build a
    config directly may set them.
    @raise Keys.Refused on any other key or a mistyped value. *)

(** {2 The engine} *)

type t

val create :
  policy:policy_factory ->
  ?env:Mod_util.env ->
  ?instance:string ->
  config -> t
(** [env]'s registry gets the engine's counters under
    ["mod.<instance>."] ([?instance] defaults to the config name);
    without one the counters are detached but behave identically.
    [env]'s sampler additionally gets a
    ["mod.<instance>.dirty_backlog"] occupancy probe. The env goes
    through {!Mod_util.for_instance}, so a ["__probe__"] instance
    registers neither. *)

val operate : t -> Labmod.ctx -> Request.t -> Request.result

(** {2 Counters}

    One accessor set shared by both cache LabMods. *)

val hits : t -> int

val misses : t -> int

val readahead_issued : t -> int
(** Pages submitted as prefetch fills. *)

val readahead_hits : t -> int
(** Prefetched pages later served to a demand read. *)

val readahead_wasted : t -> int
(** Prefetched pages evicted unaccessed, plus fills dropped on a
    downstream failure. *)

val dirty_evictions : t -> int
(** Dirty pages evicted into the write-back log. *)

val flush_ops : t -> int
(** Merged write-back operations issued downstream. *)

val flush_pages : t -> int
(** Pages covered by those operations ([flush_pages / flush_ops] is the
    average flush batch; coalescing works when [flush_ops < flush_pages]). *)

val readahead_accuracy : t -> float
(** [readahead_hits / readahead_issued] (0 when nothing was issued). *)

val avg_flush_batch : t -> float

val nshards : t -> int

val live_pages : t -> int

val dirty_resident : t -> int list
(** Resident dirty pages, sorted (for equivalence tests). *)

val dirty_backlog : t -> int
(** Evicted dirty pages still waiting in the logs. *)

val counter_list : t -> (string * int) list
(** Aggregate counters as labelled pairs, for reporting. *)

val shard_counter_list : t -> (string * int) list
(** Per-shard hits/misses/evictions as labelled pairs. *)
