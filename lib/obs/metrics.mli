(** Unified metrics registry: named counters, gauges and {!Hist}
    histograms (log2 majors x 32 linear sub-buckets, exact min/max)
    that every subsystem registers into, replacing bespoke per-module
    counter structs with one queryable tree.

    Dotted names express the hierarchy ("ipc.qp3.doorbell_rings",
    "mod.lru.hits", "device.nvme.bytes_read").  Recording never touches
    simulated time — instruments are plain mutable records — so wiring
    metrics into a component cannot perturb a deterministic run. *)

type t
(** A registry: a flat map from dotted name to instrument. *)

val create : unit -> t

(** {1 Counters} *)

type counter
(** Monotonic integer counter.  A counter handle obtained without a
    registry ([counter "x"]) is "detached": it records normally but is
    invisible to export — this lets library code instrument
    unconditionally. *)

val counter : ?reg:t -> string -> counter
(** [counter ~reg name] interns (get-or-creates) the named counter in
    [reg]; without [~reg] it returns a fresh detached counter.
    @raise Invalid_argument if [name] exists with a different kind. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int
val set_value : counter -> int -> unit

(** {1 Gauges} *)

val gauge_fn : t -> string -> (unit -> float) -> unit
(** [gauge_fn reg name f] registers a read-through gauge: [f] is called
    at export time.  Re-registering a name replaces the callback. *)

(** {1 Histograms} *)

type histogram = Hist.t
(** A registry histogram is a plain {!Hist.t}: record with
    {!Hist.observe}, read with {!Hist.quantile} and friends. *)

val histogram : ?reg:t -> string -> histogram
(** Interned like {!counter}; detached without [~reg]. *)

(** {1 Export} *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** exact extreme, not bucket-quantized; 0 when empty *)
  hs_max : float;
  hs_p50 : float;
  hs_p99 : float;
  hs_p999 : float;
  hs_buckets : (float * int) list;  (** (bucket upper bound, count) *)
}

type value = V_counter of int | V_gauge of float | V_histogram of hist_snapshot

val to_list : t -> (string * value) list
(** Snapshot of every instrument, sorted by name (deterministic).
    Gauge callbacks returning non-finite values are clamped to 0 at
    read time. *)

val to_jsonl : t -> string
(** One JSON object per line, sorted by name; floats are fixed-format
    and non-finite values are clamped to 0, so equal registry states
    export byte-identical snapshots. *)
