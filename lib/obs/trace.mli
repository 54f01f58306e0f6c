(** Span tracer over simulated time.

    Collects Chrome-trace-event spans and instants stamped with
    simulated-time nanoseconds.  Each traced request carries a {!flow}
    handle; the telescoping stage API ({!open_stage}/{!close_stage})
    closes one stage and opens the next at the same instant, so a
    request's stage durations sum exactly to its root "request" span.

    With an attached {!Exemplar} store the tracer also captures
    retroactively: every request gets a pooled flow whose spans are
    recorded into a fixed-capacity buffer, offered to the store at
    {!finish} (the top-K slowest survive with full anatomy) and
    recycled — zero allocation in steady state. Only sampled flows
    additionally emit Chrome events.

    Tracing never schedules engine events or charges simulated compute
    time, and with sampling and capture off every instrumentation site
    reduces to a single option check — the tracer is invisible to a
    run's timing. *)

type ev = {
  ev_name : string;
  ev_cat : string;  (** "stage" | "mod" | "device" | "request" | "event" *)
  ev_ph : char;  (** 'X' complete span, 'i' instant *)
  ev_ts : float;  (** begin timestamp, simulated ns *)
  ev_dur : float;  (** duration ns (0 for instants) *)
  ev_tid : int;  (** simulated hardware thread *)
  ev_id : int;  (** request id *)
  ev_args : (string * string) list;
}

type t
(** A tracer: sampling knob, optional exemplar store, event buffer and
    flow pool. *)

val create : ?sample:int -> ?exemplars:Exemplar.t -> unit -> t
(** [create ~sample ()] — trace 1-in-[sample] requests by hashed id;
    [sample <= 0] (the default) disables Chrome-event tracing.
    [exemplars] attaches a tail-exemplar store and turns on
    stage capture for {e every} request (see {!Exemplar}). *)

val exemplars : t -> Exemplar.t option
val sampled : t -> id:int -> bool
(** Deterministic: [sample > 0] and a multiplicative hash of [id] is
    [0 mod sample]. The hash decorrelates sampling from id allocation
    strides (batched/per-client id blocks would alias a bare modulus
    and bias the cohort). *)

(** {1 Flows} *)

type flow
(** Per-request trace context: request id, root begin time, at most
    one currently-open stage, and the stage-capture buffer. Pooled:
    recycled at {!finish}, so a flow must not be touched after its
    request completes. *)

val start : t -> id:int -> float array -> int -> flow option
(** [start t ~id cells i] starts a flow whose root begins at
    [cells.(i)]. [None] unless the id is sampled or capture is on, and
    then the time is never read, so an untraced start boxes nothing.
    The result is stored in [Request.trace] and travels with the
    request. *)

val span :
  ?args:(string * string) list ->
  flow -> name:string -> cat:string -> tid:int -> t0:float -> t1:float -> unit
(** Emit a complete span [t0, t1] (sampled flows) and record it into
    the capture buffer (capture on). *)

val instant : ?args:(string * string) list -> flow -> name:string -> tid:int -> now:float -> unit
(** Emit a point event (cache hit/miss, sched merge, ...). *)

val open_stage : flow -> name:string -> now:float -> unit
(** Record the begin of the named stage; replaces any open stage. *)

val close_stage : flow -> tid:int -> now:float -> unit
(** Emit the open stage as a span ending [now]; no-op when none open. *)

val finish : flow -> tid:int -> now:float -> unit
(** Close any open stage, emit the root "request" span covering the
    flow's begin to [now] (sampled flows), offer the captured stages
    to the exemplar store (capture on), and recycle the flow. The
    flow must not be used afterwards. *)

(** {1 Export} *)

val events : t -> ev list
(** All events in emission order. *)

val event_count : t -> int
val clear : t -> unit

val to_chrome_json : t -> string
(** Chrome trace-event JSON ({["traceEvents"]} array of "X"/"i" events,
    timestamps in microseconds) — loadable in Perfetto / chrome://tracing.
    Byte-stable for equal event sequences. *)
