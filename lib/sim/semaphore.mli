(** Counting semaphore for simulated processes; also serves as a mutex
    with [create 1]. FIFO wake-up order. *)

type t

val create : int -> t

val acquire : t -> unit
(** Blocks the calling process until a unit is available. *)

val release : t -> unit

val waiters : t -> int
