(** High-resolution histogram: HDR-style log2 majors split into 32
    linear sub-buckets, so a quantile estimate is within 2^-4 of the
    value it stands for, with exact min/max/sum/count kept beside the
    buckets. Values below 32 are exact.

    This is the one source of percentiles in the tree: the metrics
    registry's histograms, {!Latrec}'s recorders, {!Exemplar}'s
    adaptive threshold, the device service times, the workload
    generators and the experiments all use it. Values are
    nanoseconds; non-finite or negative observations clamp to 0, and
    values past the int range (≥ 2^62) share the last bucket. Buckets
    are allocated up to the highest index observed so far, so an idle
    histogram costs a few words. *)

type t

val create : unit -> t
val observe : t -> float -> unit
(** Allocates nothing once the buckets have grown to cover the value. *)

val clear : t -> unit
(** Forget every observation in place: zero the buckets (keeping their
    size, so a cleared histogram does not re-grow) and reset count,
    sum, min and max. *)

val count : t -> int
val sum : t -> float
val mean : t -> float

val min_value : t -> float
(** Exact smallest observation (0.0 when empty). *)

val max_value : t -> float
(** Exact largest observation (0.0 when empty). *)

val quantile : t -> float -> float
(** [quantile h q] for [q] in [0,1]; nearest-rank over the buckets,
    clamped into the exact [min,max] envelope. 0.0 when empty. *)

val buckets : t -> (float * int) list
(** Non-empty buckets in ascending order, as (inclusive upper bound,
    count). *)
