(** The one int-keyed hash table of the request path. Keys and values
    sit in two flat arrays, indexed by an inline multiplicative hash
    with linear probing; a removal shifts the rest of its probe run
    back, so there are no tombstones. Unlike [Hashtbl] (polymorphic or
    [Make (Int)]), a lookup calls no C hash or compare and allocates
    nothing; a new key allocates only at the first binding (the value
    array) and when the table doubles.

    [min_int] is not a key: {!replace} rejects it and no lookup finds
    it. A removed value stays reachable from its bucket until the
    bucket is reused or the table grows. *)

type 'v t

val create : int -> 'v t
(** [create n]: room for [n] bindings before the first growth. *)

val length : 'v t -> int

val mem : 'v t -> int -> bool

val find : 'v t -> int -> 'v
(** @raise Not_found when [k] is not bound. *)

val replace : 'v t -> int -> 'v -> unit
(** Binds [k], replacing any binding it had. *)

val remove : 'v t -> int -> unit
(** No-op when [k] is not bound. *)

val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** In bucket order, which depends on the keys and the table's
    history: sort when the order matters. *)
