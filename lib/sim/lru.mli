(** LRU map from int keys (page indices) with O(1) lookup, insert, and
    eviction. Used by the kernel page cache and the cache LabMods.

    Entries live in flat int arrays of slots (key, and the recency
    links through a sentinel slot), found by an open-addressed index
    with an inline hash. No call allocates except: {!find}, {!remove},
    {!lru} and {!put} allocate the option (and pair) they return; the
    slot arrays double when a new key finds every slot in use (a
    bounded LRU stops at its capacity); and values are stored once per
    slot only after two physically different ones were put, so a
    [unit] LRU never holds a value array. {!touch}, {!mem} and an
    evicting {!put_evict} allocate nothing. *)

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] bounds entry count; omitted means unbounded (no eviction). *)

val length : 'v t -> int

val mem : 'v t -> int -> bool
(** No promotion. *)

val touch : 'v t -> int -> bool
(** Promotes the entry to most-recently-used if present; true when it
    was. One index lookup. *)

val find : 'v t -> int -> 'v option
(** Promotes the entry to most-recently-used. *)

val put : 'v t -> int -> 'v -> (int * 'v) option
(** Inserts or updates (promoting). Returns the evicted LRU entry when
    the capacity was exceeded. *)

val put_evict : 'v t -> int -> 'v -> int
(** {!put} that returns only the evicted key, or -1 when nothing was
    evicted (keys are page indices, so never -1). *)

val remove : 'v t -> int -> 'v option

val lru : 'v t -> (int * 'v) option
(** Least-recently-used entry, if any. *)

val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Iterates from most- to least-recently used. *)
