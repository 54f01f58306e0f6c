(** LRU map from int keys (page indices) with O(1) lookup, insert, and
    eviction. Used by the kernel page cache and the cache LabMods.

    Nodes are linked through a sentinel, so a promotion or an unlink
    allocates nothing: {!touch} and {!mem} never allocate, and {!put}
    allocates only the node and table binding of a new key. *)

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] bounds entry count; omitted means unbounded (no eviction). *)

val length : 'v t -> int

val mem : 'v t -> int -> bool
(** No promotion. *)

val touch : 'v t -> int -> bool
(** Promotes the entry to most-recently-used if present; true when it
    was. One table lookup. *)

val find : 'v t -> int -> 'v option
(** Promotes the entry to most-recently-used. *)

val put : 'v t -> int -> 'v -> (int * 'v) option
(** Inserts or updates (promoting). Returns the evicted LRU entry when
    the capacity was exceeded. *)

val remove : 'v t -> int -> 'v option

val lru : 'v t -> (int * 'v) option
(** Least-recently-used entry, if any. *)

val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Iterates from most- to least-recently used. *)
