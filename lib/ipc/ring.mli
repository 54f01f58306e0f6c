(** Bounded ring buffer with power-of-two capacity and masked indices —
    the layout of LabStor's shared-memory submission/completion queues.
    Pure data structure: callers account for the time cost of
    operations. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacity is rounded up to a power of two; must be positive. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_full : 'a t -> bool

val try_push : 'a t -> 'a -> bool

val try_pop : 'a t -> 'a option

val pop_or : 'a t -> 'a -> 'a
(** [pop_or t none] is the oldest entry, popped, or [none] when the
    ring is empty. Allocation-free; the caller tells the two apart by
    physical equality, so [none] must be a value never pushed. *)

val peek : 'a t -> 'a option

val space : 'a t -> int
(** Free slots remaining. *)

val push_n : 'a t -> 'a list -> int
(** Pushes entries in order until the list is exhausted or the ring is
    full; returns how many were pushed. *)

val pop_into : 'a t -> 'a array -> off:int -> max:int -> int
(** [pop_into t dst ~off ~max] pops up to [max] entries in FIFO order
    (fewer if the ring drains) into [dst.(off ...)]; returns how many
    were popped. Allocation-free. The caller should overwrite (or
    dummy-out) the filled prefix after use if ['a] is heap-allocated,
    since [dst] retains the entries. *)

val total_pushed : 'a t -> int
(** Lifetime count of successful pushes (producer index). *)
