(** Discrete-event simulation engine.

    Simulated processes are ordinary OCaml functions run under an effect
    handler. Inside a process, {!wait} advances virtual time and {!park}
    blocks the process in a {!park_cell} until some other process or
    callback {!unpark}s it; {!join} counts arrivals down to one such
    wake-up. The event queue is ordered by (time, sequence number), so
    runs are fully deterministic.

    Virtual time is a [float] count of nanoseconds since simulation
    start. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in nanoseconds. *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn t f] registers process [f] to start at the current time.
    May be called from inside or outside a running process. *)

val spawn_at : t -> float -> (unit -> unit) -> unit
(** [spawn_at t time f] starts [f] at absolute virtual [time]. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t time thunk] runs [thunk] at absolute virtual [time] as
    a plain callback — no effect handler, so [thunk] must not call
    {!wait}/{!park}/{!await}. Cheaper than {!spawn_at} for fire-and-forget
    actions; does not clamp past times (the queue orders them by
    (time, seq) like any other event). *)

val timer : t -> ns:int -> (int -> unit) -> int -> unit
(** [timer t ~ns fn arg] runs [fn arg] after [ns] simulated
    nanoseconds (negative treated as 0). The closure-free hot path:
    with a preallocated [fn], scheduling and dispatch touch only the
    engine's event pool — zero minor-heap allocation, unlike
    {!schedule}/{!wait} which cost a closure / an effect continuation.
    [fn] must not call {!wait}/{!park}/{!await}. *)

val wait : float -> unit
(** [wait d] suspends the calling process for [d] simulated nanoseconds.
    Negative [d] is treated as 0. Must be called from within a process. *)

type park_cell
(** A reusable parking spot, the engine's one way to block a process.
    The cell stores the suspended continuation in place, so a pooled
    cell makes repeated park/unpark cycles free of everything but the
    continuation the effect runtime itself allocates. *)

val make_park_cell : unit -> park_cell

val park : park_cell -> unit
(** [park cell] suspends the calling process into [cell]; the process
    continues when {!unpark} is called. Must be called from within a
    process.
    @raise Invalid_argument if a process is already parked in [cell]
    (one process per cell at a time). *)

val unpark : park_cell -> unit
(** Schedules the process parked in [cell] to continue at its engine's
    current virtual time, at the next (time, seq) key. One-shot per
    park: an empty cell is a no-op. May be called from inside or
    outside a process. *)

val parked : park_cell -> bool
(** True while a process is parked in the cell. *)

val resume_in_place : park_cell -> unit
(** [resume_in_place cell] continues the process parked in [cell] at
    once, inside the current dispatch, and returns when that process
    next waits, parks or ends. No event is queued, so the process runs
    at the dispatching event's place in the (time, seq) order — where
    {!unpark} would queue it behind every event already due at the
    same instant. An empty cell is a no-op.

    Call it only from a {!timer} or poll-chain callback, never from
    inside a process. The intended use is a polling tick that stands
    in for a [wait] loop: the process parks once, a preallocated tick
    re-arms
    its {!chain} with {!arm} while polling would find nothing, and
    resumes the process in place when it would. Each poll is armed
    exactly when the replaced [wait] would have queued its event, so
    it takes the same (time, seq) key and the schedule is unchanged. *)

type join
(** Fork-join over one park cell: spawn [n] processes that each
    {!arrive} once, then {!await} them all. No closure, no effect but
    {!park}'s. *)

val join : int -> join
(** [join n] expects [n] arrivals (negative treated as 0). *)

val arrive : join -> unit
(** The [n]-th arrival {!unpark}s the awaiting process at the next
    (time, seq) key; later ones do nothing. Callable outside a process. *)

val await : join -> unit
(** Parks until the last arrival. Returns at once, with no event, when
    every arrival is in, so [join 0] never blocks. *)

val joined : join -> bool
(** True once every arrival is in. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [await] on a one-arrival join whose {!arrive} is handed to the
    callback. Kept for labbench only; use {!join}. *)

(** {2 Float cells}

    Per-event code that keeps a delay or deadline in a caller-owned
    [float array] hands the array and an index to these, so the value
    and the clock are read and compared inside the engine and no float
    is boxed at a call. *)

val reached : t -> float array -> int -> bool
(** [reached t cells i] is [now t >= cells.(i)]. *)

val set_after : float array -> int -> float -> unit
(** [set_after cells i d] stores the calling process's current virtual
    time plus [d] into [cells.(i)]. Must be called from within a
    process, like {!wait}. *)

val wait_cell : float array -> int -> unit
(** [wait_cell cells i] is [wait cells.(i)] without boxing the delay:
    same event, same (time, seq) key. Must be called from within a
    process. *)

(** {2 Poll chains}

    A spin-poller whose empty polls only re-arm themselves keeps its
    next poll in a chain instead of the event queue. While the chain is
    armed, each poll that comes due before the next queued event is
    elided: it takes the seq its re-arm would have taken, advances by
    the period and counts in {!events_executed}, but nothing runs. So
    the schedule, every tie at an equal instant and the event count are
    those of the queued polls, at a few float and int updates per poll.

    The poller must {!fire} the chain whenever what its poll would test
    may have changed; an elided poll is one its callback would have
    re-armed. *)

type chain

val chain : t -> float array -> chain
(** [chain t cells] is an unarmed chain whose polls are due every
    [cells.(1)] ns (negative treated as 0) until the deadline
    [cells.(0)]. The cells stay the caller's and are read at each
    poll; change them only while the chain is not armed. *)

val arm : chain -> (unit -> unit) -> unit
(** [arm c fn] takes the next seq for a poll at [now +. cells.(1)]
    that runs [fn ()] as a plain callback (like {!schedule}'s), due
    when a [wait cells.(1)] issued now would end. A poll that reaches the
    deadline ([>= cells.(0)]) is queued as an event at once; any
    other stays pending in the chain.
    @raise Invalid_argument if [c] is already armed. *)

val fire : chain -> unit
(** [fire c] queues the pending poll of an armed chain as an event at
    its own (time, seq) key and disarms the chain; no-op when [c] is
    not armed. *)

val polls_elided : t -> int
(** Chained polls elided so far; each also counts in
    {!events_executed}. *)

val run : ?until:float -> t -> unit
(** Executes events until the queue drains or virtual time would exceed
    [until]. Processes still suspended when the queue drains simply never
    continue (this models daemons outliving the experiment). Chained
    polls are elided only up to [until], so events queued between runs
    order against them as against queued polls. *)

val step : t -> bool
(** Executes exactly one queued event, after eliding the chained polls
    due before it; false when nothing is left. With only chains armed,
    they run to their deadline polls and the first of those is the
    event. Lets a caller interleave simulation with a host-side stop
    condition without discarding pending events. *)

val active : t -> bool
(** True while the engine has queued events or an armed chain. *)

val events_executed : t -> int
(** Total event count, each elided poll counted as the event it stands
    for; useful for regression tests on determinism. *)

val set_tick : t -> period:float -> (float -> unit) -> unit
(** Installs the virtual-time sampling hook: [f] is called at every
    multiple of [period] the clock crosses while executing events, with
    the boundary time (and [now] set to it for the call's duration).

    The hook is {e not} an engine event: it never appears in the event
    heap, does not count in {!events_executed}, cannot keep the engine
    alive, and fires only while real events still advance the clock —
    so installing it cannot change a run's event count, event ordering,
    or final virtual time. The callback must only read simulation
    state: calling {!wait}, {!park}, or {!spawn} from it is
    unsupported. One hook per engine; installing replaces the previous
    one. @raise Invalid_argument if [period <= 0]. *)

exception Stopped
(** Raised inside processes that the engine terminates via {!stop_all}. *)

val stop_all : t -> unit
(** Drops all queued events and disarms every chain. Suspended
    processes are abandoned. *)
