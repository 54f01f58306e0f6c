(** Sample statistics for simulation measurements. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100], nearest-rank on the sorted
    sample; [nan] when empty. *)

val clear : t -> unit
