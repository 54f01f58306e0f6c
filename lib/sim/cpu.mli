(** CPU core model.

    A machine is a set of cores. A simulated thread occupies a core only
    for the duration of each compute burst; the core is a FIFO resource.
    When a core switches between distinct threads a context-switch cost
    is charged and counted — so a thread with a dedicated core never
    pays switches, which is the mechanism behind several LabStor
    results. *)

type t

type thread_id = int

val create : ?costs:Costs.t -> ncores:int -> unit -> t

val ncores : t -> int

val compute : t -> thread:thread_id -> float -> unit
(** [compute t ~thread ns] occupies the thread's core (its affinity;
    default: thread id mod ncores) for [ns] (plus a context switch if
    the core last ran a different thread). Must be called from a
    simulated process. Allocates only the wait's continuation, but the
    caller boxes [ns]; see {!compute_cell}. *)

val compute_cell : t -> thread:thread_id -> float array -> int -> unit
(** [compute_cell t ~thread cells i] is [compute t ~thread cells.(i)]
    without boxing the burst: same bursts, same schedule. [cells.(i)]
    is read before the call can suspend, so a caller may restage the
    cell for another burst as soon as this one has started. *)

val pin : t -> thread:thread_id -> core:int -> unit
(** Sets the thread's core affinity for subsequent unpinned bursts. *)

val context_switches : t -> int
(** Total context switches across all cores since the last reset. *)

val busy_ns : t -> float
(** Total busy nanoseconds across all cores since the last reset. *)

val busy_ns_of_core : t -> int -> float

val busy_ns_upto : t -> int -> now:float -> float
(** Busy nanoseconds of one core accumulated strictly up to [now]:
    unlike {!busy_ns_of_core} (which charges a whole burst the moment
    it starts), the portion of an in-flight burst beyond [now] is
    excluded. Two calls bracketing a sampling interval therefore yield
    the exact busy time {e within} that interval — the per-core
    utilization-timeline primitive. *)

val utilization : t -> elapsed:float -> float
(** Busy fraction of the whole machine over [elapsed] ns: in [0,1]. *)

val reset_stats : t -> unit
