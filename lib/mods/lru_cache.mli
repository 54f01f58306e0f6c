(** LRU page-cache LabMod.

    A thin policy wrapper around {!Cache_core}: the engine provides
    sharding, sequential readahead, and coalesced dirty write-back;
    this module contributes the LRU replacement policy.

    Write-back by default: writes are absorbed and dirty pages reach
    the device only when evicted pages are flushed from the write-back
    log (or on a [Control] drain); the [write_through] attribute
    persists writes synchronously instead. Reads served from cache skip
    the rest of the stack. Force-unit-access requests ([b_sync], e.g.
    journal flushes) always bypass the cache.

    Attributes (see {!Cache_core.config_of_attrs}): [capacity_mb]
    (default 64), [write_through] (false), [shards] (1), [readahead]
    (false). *)

open Lab_core

val name : string

val factory :
  ?metrics:Lab_obs.Metrics.t ->
  ?timeseries:Lab_obs.Timeseries.t ->
  unit ->
  Registry.factory
(** [?metrics] registers the cache counters under ["mod.<uuid>."];
    [?timeseries] adds the ["mod.<uuid>.dirty_backlog"] sampler probe. *)

val core : Labmod.t -> Cache_core.t option
(** The underlying engine, for counter inspection. *)

val hits : Labmod.t -> int

val misses : Labmod.t -> int

val writeback_failures : Labmod.t -> int
(** Pages whose asynchronous write-back run completed with a failure
    (e.g. an injected device fault). Read misses whose fill fails are
    never admitted into the cache; write-through writes that fail leave
    their pages dirty so eviction retries the persist. *)

val counter_list : Labmod.t -> (string * int) list
(** Aggregate engine counters as labelled pairs
    (see {!Cache_core.counter_list}). *)

val shard_counter_list : Labmod.t -> (string * int) list
(** Per-shard hits/misses/evictions as labelled pairs. *)
