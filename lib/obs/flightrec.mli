(** Always-on flight recorder with triggered black-box dumps.

    A fixed-size ring of recent encoded events (submissions,
    completions, errno failures, park/wake, scheduler decisions, SLO
    window rolls, injected faults). Recording is a few array stores
    into preallocated columns — no allocation (the time comes in a
    float cell, the rest as ints and a shared string), no engine
    events, no simulated time — so the recorder stays on for every run
    at bounded cost. When a {!val-trigger} fires the ring is serialized
    into a black-box dump explaining what the system was doing just
    before; {!Platform.export} writes the retained dumps to
    [out/blackbox.json]. *)

type kind =
  | Submit  (** client handed a request to the runtime *)
  | Complete  (** request settled (ok or failed; arg = 0 ok / 1 failed) *)
  | Errno  (** request failed with the errno in [tag] *)
  | Deadline  (** client-side deadline miss *)
  | Park  (** a worker (or the scheduler's QoS gate) went to sleep *)
  | Wake  (** ... and woke up; arg = requests seen while parked *)
  | Slo_roll  (** an SLO burn window closed; arg = burn rate × 1000 *)
  | Fault  (** the device fault plan injected the fault in [tag] *)
  | Sched  (** scheduler decision (merge/join); arg = absorbed count *)
  | Trigger  (** a dump trigger itself; [tag] is the reason *)

type t

val create : ?max_dumps:int -> cap:int -> unit -> t
(** Ring of [cap] events. A run without a recorder holds none (an
    option), so there is no disabled recorder: [cap <= 0] raises
    [Invalid_argument]. [max_dumps] (default 4) bounds the dumps
    retained — the first triggers keep their snapshots, later ones
    only count, since a failing run triggers in bursts and the
    earliest context is the diagnostic one. *)

val record :
  t -> kind -> float array -> int -> id:int -> arg:int -> tag:string -> unit
(** [record t kind cells c ~id ~arg ~tag] appends one event at time
    [cells.(c)], overwriting the oldest when full. Allocates nothing.
    [tag] must be a shared/literal string — the recorder never copies
    it; [id] is [-1] and [arg] [0] where the kind carries none. *)

val trigger : t -> reason:string -> float array -> int -> unit
(** [trigger t ~reason cells c] records a {!Trigger} event at time
    [cells.(c)], then snapshots the ring into a retained dump for the
    first trigger of each distinct [reason], up to [max_dumps] dumps
    total. Later triggers only count. *)

val cap : t -> int
val recorded : t -> int
(** Total events ever recorded (the ring holds the last [cap]). *)

val triggers : t -> int
val dumps : t -> string list
(** Retained dumps in trigger order, each a JSON object
    [{"reason","now_ns","events":[...]}]. *)

(** {1 Read-out} *)

type event = {
  e_kind : string;
  e_ts : float;
  e_id : int;
  e_arg : int;
  e_tag : string;
}

val events : t -> event list
(** Current ring contents, oldest first. *)

val to_json : t -> string
(** Byte-stable black-box artifact: counters plus retained dumps. *)
