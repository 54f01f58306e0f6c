(** Open-loop traffic harness.

    Closed-loop workloads send the next request only after the previous
    one completes, so an overloaded system receives less load and the
    measured latency hides the overload — coordinated omission. This
    harness generates arrivals from a deterministic seeded process
    driven by Engine timers, so the offered schedule is independent of
    how fast the system completes requests; a finite injector pool
    sends them, and a {!Lab_obs.Latrec} recorder measures every
    completion from its {e scheduled} arrival. Below saturation the
    CO-corrected and naive distributions agree; past the knee they
    diverge by the hidden queueing delay. *)

(** Arrival processes. All are deterministic given a seed. *)
type process =
  | Poisson of { rate_ops_s : float }
      (** memoryless arrivals at a constant mean rate *)
  | On_off of { rate_ops_s : float; on_ns : float; off_ns : float }
      (** bursts: Poisson at [rate_ops_s] during ON windows of [on_ns],
          silent for [off_ns] between them *)
  | Diurnal of { mean_ops_s : float; amplitude : float; period_ns : float }
      (** inhomogeneous Poisson with a sinusoidal envelope
          [mean·(1 + amplitude·sin(2πt/period))], sampled exactly by
          Lewis-Shedler thinning; [amplitude] in [0,1] *)
  | Replay of { gaps_ns : int array }
      (** compact trace replay: successive inter-arrival gaps in whole
          ns; the trace loops when exhausted *)

val nominal_rate_ops_s : process -> float
(** The configured long-run mean arrival rate (ops/s): the Poisson
    rate, the on-off rate scaled by duty cycle, the diurnal mean (the
    sinusoid integrates to zero over a period), or the replay trace's
    per-pass rate. *)

type gen
(** A generator: the arrival process plus its seeded stream state. *)

val generator : ?seed:int -> process -> gen
(** @raise Invalid_argument on a malformed process (non-positive rate,
    amplitude outside [0,1], empty or negative-gap trace). *)

val arrivals : ?seed:int -> process -> int -> float array
(** [arrivals proc n]: the first [n] arrival times of a fresh
    generator — the pure stream, no engine involved (for tests and
    offline analysis). *)

(** {2 The harness} *)

type spec = {
  proc : process;
  seed : int;
  total : int;  (** arrivals to generate *)
  injectors : int;  (** concurrent open-loop senders *)
  queue_cap : int;
      (** pending-arrival backlog cap: arrivals past it are shed and
          counted as drops, bounding a saturated run's memory *)
  late_threshold_ns : float;
      (** injection lag above this marks the request late
          (see {!Lab_obs.Latrec.create}) *)
}

val default_spec : spec
(** 50 kops/s Poisson, seed 1, 1000 arrivals, 16 injectors, 4096
    backlog cap, 1µs late threshold. *)

type result = {
  generated : int;
  completed : int;
  succeeded : int;
  dropped : int;
  late : int;
  elapsed_ns : float;
  offered_ops_s : float;  (** what the schedule demanded *)
  achieved_ops_s : float;  (** what the system delivered *)
  recorder : Lab_obs.Latrec.t;
      (** CO-corrected vs naive distributions + injection lag *)
}

val run :
  Lab_sim.Machine.t ->
  spec ->
  submit:(injector:int -> scheduled:float -> bool) ->
  result
(** Runs the harness to completion of all [total] arrivals. [submit]
    performs one blocking request and returns success; it receives the
    arrival's scheduled time to thread through as the request's
    CO-safe origin (e.g. {!Lab_runtime.Client.read_block}'s
    [?scheduled_at]) plus the sending injector's index in
    [0, injectors) — queue-pair completion queues are single-consumer,
    so callers typically key one client per injector off it. Must be
    called from within a simulated process
    (e.g. under {!Lab_labstor.Platform.go}); spawns its own injector
    processes and timer chain, and returns once the last arrival is
    completed or shed.

    @raise Invalid_argument on a non-positive [total], [injectors] or
    [queue_cap], or a malformed process. *)
