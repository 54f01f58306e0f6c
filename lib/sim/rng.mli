(** Deterministic pseudo-random number generation for simulations.

    A SplitMix64 generator: fast, high quality for non-cryptographic use,
    and trivially splittable so each simulated entity can own an
    independent stream derived from one experiment seed. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state (both produce the same
    subsequent stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples a Zipf-distributed rank in [\[0, n)] with
    skew [theta] (rejection-inversion is overkill here; uses the
    classical CDF-inversion over a precomputed-free approximation). *)
