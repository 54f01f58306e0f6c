(** Array-backed binary min-heap: the reference order the [Evq]
    property tests compare the event queue against. *)

type ('k, 'v) t

val create : cmp:('k -> 'k -> int) -> unit -> ('k, 'v) t

val length : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit

val peek : ('k, 'v) t -> ('k * 'v) option

val pop : ('k, 'v) t -> ('k * 'v) option
(** Removes and returns the minimum-key entry. Ties are broken
    arbitrarily; callers needing stability must encode a sequence number
    in the key. *)

val clear : ('k, 'v) t -> unit
(** Drops all entries {e and} the backing arrays: cleared (and fully
    drained) heaps retain no references to previously stored keys or
    values, so the GC can reclaim them. *)

val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
(** Non-destructive. *)
