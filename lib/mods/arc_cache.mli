(** ARC (Adaptive Replacement Cache) page-cache LabMod.

    The paper motivates "exotic" cache policies (e.g. ML-driven
    eviction) as LabMods; ARC is the classic self-tuning policy
    (Megiddo & Modha, FAST'03): it balances a recency list (T1) against
    a frequency list (T2) using ghost lists (B1/B2) of recently evicted
    keys, adapting the target split [p] to the workload — resistant to
    scans that flush plain LRU.

    Drop-in interchangeable with [lru_cache] in any LabStack (same
    module type, same attributes), demonstrating LabMod
    interchangeability. *)

open Lab_core

val name : string

val factory :
  ?metrics:Lab_obs.Metrics.t ->
  ?timeseries:Lab_obs.Timeseries.t ->
  unit ->
  Registry.factory
(** [?metrics] registers the cache counters under ["mod.<uuid>."];
    [?timeseries] adds the ["mod.<uuid>.dirty_backlog"] sampler probe.

    Attributes (see {!Cache_core.config_of_attrs}): [capacity_mb]
    (default 64), [write_through] (false), [shards] (1), [readahead]
    (false). The ARC policy runs per shard, each with its own adaptive
    target. *)

val core : Labmod.t -> Cache_core.t option
(** The underlying engine, for counter inspection. *)

val hits : Labmod.t -> int

val misses : Labmod.t -> int

val writeback_failures : Labmod.t -> int
(** Pages whose write-back run completed with a failure. As with
    [lru_cache], a read miss whose downstream fill fails is never
    admitted into the cache. *)

val counter_list : Labmod.t -> (string * int) list
(** Aggregate engine counters as labelled pairs
    (see {!Cache_core.counter_list}). *)

val shard_counter_list : Labmod.t -> (string * int) list
(** Per-shard hits/misses/evictions as labelled pairs. *)

(** The pure ARC structure, exposed for property tests. *)
module Arc : sig
  type t

  val create : capacity:int -> t

  val mem : t -> int -> bool

  val touch : t -> int -> bool
  (** [touch t key] records an access; true on hit. Adapts [p] and
      evicts per the ARC algorithm on miss. *)

  val evicted : t -> int option
  (** Key evicted by the most recent [touch], if any. *)

  val live_count : t -> int

  val ghost_count : t -> int

  val p : t -> int

  val capacity : t -> int
end

val arc_shards : Labmod.t -> Arc.t array
(** Each shard's ARC structure, for ghost-list invariant tests. *)
