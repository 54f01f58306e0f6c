(** Continuous-profiling sampler: named probes recorded into fixed-size
    ring buffers at a periodic simulated-time tick.

    The sampler is passive — it owns no clock and schedules nothing.
    The owner drives {!tick} from a simulated-time source (in LabStor,
    the {!Lab_sim.Engine} tick hook, which fires between events and is
    invisible to the event heap); when profiling is disabled no sampler
    is constructed at all, so the zero-overhead-when-off guarantee
    holds by construction.

    Probes must only {e read} simulation state. A probe closure may
    keep private state, e.g. the previous cumulative busy count, to
    report per-interval deltas. Non-finite probe values are clamped to
    0 at record time. *)

type t

type probe = float -> float
(** Called with the sample instant (simulated ns); returns the value to
    record. Must not wait, compute, or schedule. *)

val create : ?capacity:int -> period:float -> unit -> t
(** [capacity] (default 4096) is the per-series ring size: once full,
    the oldest sample is overwritten. [period] is the intended sampling
    period in simulated ns (recorded in the export; the owner's tick
    source enforces it). @raise Invalid_argument if either is <= 0. *)

val add_series : t -> string -> probe -> unit
(** Registers a named probe (dotted names, same convention as
    {!Metrics}). Series may be added at any time — components created
    mid-run (queue pairs, cache instances) self-register.
    @raise Invalid_argument on a duplicate name. *)

val tick : t -> now:float -> unit
(** Samples every probe once at instant [now]. *)

val ticks : t -> int
(** Number of ticks fired so far. *)

val series_names : t -> string list
(** Sorted. *)

val samples : t -> string -> (float * float) list
(** [(time, value)] pairs of the named series, oldest first (at most
    [capacity] of them); empty for unknown names. *)

(** {1 Summaries} *)

type stat = {
  st_name : string;
  st_count : int;  (** samples currently held *)
  st_mean : float;
  st_max : float;
  st_last : float;  (** most recent sample, 0 when empty *)
}

val stats : t -> stat list
(** One summary per series, sorted by name — the sampler table
    [labstor_cli run] prints. *)

(** {1 Export} *)

val to_json : t -> string
(** JSON object [{"period_ns":…,"ticks":…,"series":[{"name":…,
    "samples":[[t,v],…]},…]}]; series sorted by name, fixed-format
    floats — byte-stable for equal sampler states. *)

val empty_json : string
(** The export of a sampler that never existed (profiling disabled). *)
