(** Dense bitset with constant-time set/clear and de Bruijn
    count-trailing-zeros iteration over the set bits — the same
    occupancy-bitmap trick as {!Evq}'s calendar queue. Scanning costs
    one word read per 32 empty slots, so polling 10,000 mostly-idle
    indices costs about the same as polling 10. *)

type t

val create : int -> t
(** [create n] holds bits [0 .. n-1], all initially clear. *)

val resize : t -> int -> unit
(** Grows capacity to at least [n] bits, preserving existing bits.
    Never shrinks. *)

val set : t -> int -> unit

val clear : t -> int -> unit

val clear_all : t -> unit

val is_empty : t -> bool

val next_set : t -> int -> int
(** [next_set t from] is the smallest set index [>= from], or [-1].
    Reads the words live, so bits set at indices beyond the cursor
    during an iteration are found by that same iteration — the exact
    semantics of a linear array scan, minus visiting empty words. *)
