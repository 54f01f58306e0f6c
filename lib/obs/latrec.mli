(** Coordinated-omission-safe latency recording.

    A recorder timestamps each request at its {e scheduled} arrival —
    the instant the open-loop arrival process intended it to exist —
    not at the moment the generator got around to sending it, and keeps
    the CO-corrected distribution (completed − scheduled) next to the
    naive one (completed − sent) plus the injection lag between them.
    Below saturation the two agree; past the knee the corrected tail
    diverges by exactly the queueing delay closed-loop measurement
    hides. All three distributions are {!Hist} histograms.

    Everything is plain arithmetic on caller-supplied timestamps: no
    clocks, no engine events, so recording cannot perturb a
    deterministic run. *)

module Hist = Hist
(** Re-export of the shared {!Hist}, so existing callers of
    [Latrec.Hist] keep working. *)

type t

val create : ?late_threshold_ns:float -> unit -> t
(** [late_threshold_ns] (default 1µs): injection lag above this counts
    the request as a late injection. *)

val record : t -> scheduled:float -> sent:float -> completed:float -> ok:bool -> unit
(** Record one request: [scheduled] is the arrival process's intended
    injection time, [sent] when the generator actually dispatched it,
    [completed] when the response arrived. A wrapper over
    {!record_cells}. *)

val record_cells :
  t -> float array -> scheduled:int -> sent:int -> completed:int -> ok:bool -> unit
(** [record_cells t cells ~scheduled ~sent ~completed ~ok] is {!record}
    with the three timestamps read from [cells] at those indices, so a
    caller that stamps the clock into cells boxes no float. *)

val drop : t -> unit
(** Count an arrival the harness shed (backlog cap hit) instead of
    injecting. Dropped arrivals appear in no histogram — that they had
    to be shed at all is the signal. *)

val dropped : t -> int
val late : t -> int

val lag : t -> Hist.t
(** sent − scheduled: how far the generator fell behind its schedule. *)

val corrected_quantile : t -> float -> float
val naive_quantile : t -> float -> float
val lag_mean_ns : t -> float
val lag_max_ns : t -> float

(** Service-level objectives: a latency target plus a throughput floor
    turned into error-budget arithmetic. Requests over the target are
    "bad"; windows that served fewer ops than the floor demanded burn
    budget for the unserved demand. *)
module Slo : sig
  type t

  val create :
    ?reg:Metrics.t ->
    name:string ->
    ?p99_target_ns:float ->
    ?floor_ops_s:float ->
    ?error_budget:float ->
    ?window_ns:float ->
    unit ->
    t
  (** [p99_target_ns = 0] disables the latency objective;
      [floor_ops_s = 0] disables the floor. [error_budget] (default
      0.01) is the allowed bad fraction; [window_ns] (default 100ms)
      is the burn-rate window. With [?reg], gauges
      ["slo.<name>.budget_remaining"] and ["slo.<name>.burn_rate"]
      are registered and travel with every metrics export. *)

  val observe : t -> latency_ns:float -> now:float -> unit

  val tick : t -> now:float -> unit
  (** Rotate windows without an observation (e.g. before reading the
      gauges at the end of an idle period). *)

  val budget_remaining : t -> float
  (** 1.0 = budget untouched, 0.0 = exhausted, negative = overdrawn. *)

  val burn_rate : t -> float
  (** Last complete window's bad fraction over the allowed fraction;
      1.0 = burning exactly at budget. Cumulative until a window
      completes. *)

  val floor_deficit : t -> float
  val name : t -> string

  val set_on_roll : t -> (now:float -> burn:float -> unit) -> unit
  (** Install a window-close hook, called once per closed burn window
      with the window's end time and burn rate (an idle gap closes —
      and reports — every intervening empty window). The flight
      recorder rides this to log SLO rolls and trigger black-box
      dumps on [burn > 1]. *)
end
