(** Deterministic fault injection for simulated devices.

    A fault plan is the single authority on {e when} a simulated device
    misbehaves. It combines steady-state probabilities (per device, with
    optional per-queue overrides) with a script of one-shot faults and
    offline windows pinned to absolute simulation times. All randomness
    comes from one SplitMix64 stream owned by the plan, so two runs with
    the same seed and the same submission sequence produce byte-identical
    fault traces — the property the robustness tests and
    [bench/exp_faults.ml] assert.

    The plan is policy-free: it only answers "what happens to this
    command?". Error propagation, retries and degraded-mode routing live
    in {!Lab_device.Device}, the driver LabMods and
    [Lab_runtime.Client]. *)

type fault =
  | Io_error  (** the command fails after its latency stage (media error) *)
  | Transient_timeout of float
      (** the command completes late by this many ns; [infinity] means it
          is lost in the controller and never completes *)
  | Torn_write of int
      (** only this many bytes of the write are persisted; the command
          completes with an error *)

type rates = {
  io_error : float;  (** per-command probability of {!Io_error} *)
  timeout : float;  (** per-command probability of a transient timeout *)
  timeout_delay_ns : float;  (** extra completion delay when one fires *)
  torn_write : float;
      (** per-write-command probability of a torn write; the persisted
          byte count is drawn uniformly from [\[0, bytes)] *)
}

val no_rates : rates
(** All probabilities zero: the plan never injects rate-based faults. *)

type event =
  | Offline of { from_ns : float; until_ns : float; queue : int option }
      (** the device ([queue = None]) or one hardware queue rejects every
          command submitted inside [\[from_ns, until_ns)] *)
  | One_shot of { at_ns : float; queue : int option; fault : fault }
      (** injected into the first matching command submitted at or after
          [at_ns]; consumed once *)

(** What the device should do with one command, decided at submission. *)
type decision =
  | Pass
  | Fail_io
  | Delay of float
  | Torn of int  (** bytes persisted, strictly less than requested *)
  | Reject_offline

type t

val create : ?rates:rates -> ?script:event list -> seed:int -> unit -> t
(** [rates] apply to every hardware queue. The script may be given in
    any order; one-shots are consumed in submission order among
    matching commands. *)

val decide : t -> now:float -> queue:int -> is_write:bool -> bytes:int -> decision
(** Decides the fate of a command of [bytes] bytes submitted at [now] on
    hardware queue [queue]. Records a trace entry and bumps the matching
    counter for every non-{!Pass} decision. *)

val offline : t -> now:float -> queue:int -> bool
(** Whether a scripted offline window covers [queue] at [now]. *)

val offline_windows : t -> (float * float * int option) list
(** The plan's scripted offline windows as [(from_ns, until_ns, queue)]
    triples ([queue = None] meaning the whole device) — the device-loss
    notification hook: {!Lab_device.Device} schedules abort and
    health-watcher events at these boundaries so layered services (the
    volume manager) can react to a leg loss instead of discovering it
    one failed command at a time. *)

(** {2 Observability} *)

val set_observer : t -> (now:float -> queue:int -> label:string -> unit) -> unit
(** Install an injection hook, called once per non-{!Pass} decision
    with a literal category label ([io_error], [timeout], [torn_write],
    [offline_reject]) — the flight recorder rides this to log injected
    faults and trigger black-box dumps. Purely observational: it must
    not perturb the run. *)

val injected : t -> (string * int) list
(** Counter snapshot: [io_error], [timeout], [torn_write],
    [offline_reject]. *)

val injected_total : t -> int

val trace_to_string : t -> string
(** Newline-joined {!trace}; equal seeds and submission sequences give
    byte-identical strings. *)
