(** FIFO queue of parked processes, the building block for blocking
    primitives. A wake carries no value: a woken process reads what it
    waited for from the state it shares with its waker. *)

type t

val create : unit -> t

val length : t -> int

val park : t -> unit
(** [park q] suspends the calling process, enqueueing it on [q] until
    {!wake} or {!wake_all} reaches it. *)

val wake : t -> bool
(** [wake q] resumes the oldest parked process. Returns false if nobody
    was parked. *)

val wake_all : t -> int
(** Wakes every parked process; returns the number woken. *)
