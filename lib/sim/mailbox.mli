(** Blocking bounded FIFO channel between simulated processes. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity is unbounded. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val put : 'a t -> 'a -> unit
(** Blocks the calling process while the mailbox is full. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking; false if full. *)

val get : 'a t -> 'a
(** Blocks the calling process while the mailbox is empty. *)

val try_get : 'a t -> 'a option
