(** Generic LRU map with O(1) lookup, insert, and eviction.
    Used by the kernel page cache and the LRU-cache LabMod. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** [capacity] bounds entry count; omitted means unbounded (no eviction). *)

val capacity : ('k, 'v) t -> int option

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** No promotion. *)

val put : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Inserts or updates (promoting). Returns the evicted LRU entry when
    the capacity was exceeded. *)

val remove : ('k, 'v) t -> 'k -> 'v option

val lru : ('k, 'v) t -> ('k * 'v) option
(** Least-recently-used entry, if any. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Iterates from most- to least-recently used. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** MRU-first association list. *)
