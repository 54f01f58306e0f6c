(** The request-lifecycle hooks: the one interface through which the
    client, the workers, the executor and the LabMods report to the
    observability consumers.

    A runtime builds one value from its config: the span tracer (which
    also feeds tail-exemplar capture), the optional flight recorder,
    the optional SLO and the engine whose clock the records carry. Each
    function below is one lifecycle point and fans out to the consumers
    that are on; DESIGN.md §4f tables what each point records. With
    every consumer off a hook is one branch and reads no clock, boxes
    no float and allocates nothing. No hook charges simulated time or
    schedules an event, so no consumer can change a run's timing. *)

type t

val create :
  tracer:Lab_obs.Trace.t ->
  ?blackbox:Lab_obs.Flightrec.t ->
  ?slo:Lab_obs.Latrec.Slo.t ->
  Lab_sim.Engine.t ->
  t
(** With both an SLO and a recorder, each closed SLO window is recorded
    and one burning past its budget triggers a ["slo_burn"] dump. *)

val off : t
(** Every consumer off, for a worker or a factory outside a runtime. *)

val tracer : t -> Lab_obs.Trace.t
val blackbox : t -> Lab_obs.Flightrec.t option

(** {1 Request stages}

    One closes and the next opens at the same instant, so a traced
    request's stages sum exactly to its root span. [submit] starts the
    flow at the scheduled origin (an ["inject_lag"] stage first when
    the request was sent late) with ["submit"] open; [post] opens
    ["queue_wait"], [dispatch] ["dispatch"], [complete] ["complete"]
    and [reap] ["reap"]; [execute] closes the open stage as the stack
    starts to run; [finish] ends the flow and offers its stages to the
    exemplar store. *)

val submit : t -> Request.t -> tid:int -> unit
val post : t -> Request.t -> tid:int -> unit
val dispatch : t -> Request.t -> tid:int -> unit
val execute : t -> Request.t -> tid:int -> unit
val complete : t -> Request.t -> unit
val reap : t -> Request.t -> tid:int -> unit

val finish : t -> Request.t -> tid:int -> Request.result -> unit
(** Also records [Complete], or [Errno]: an ENODEV or ETIMEDOUT
    triggers a dump. *)

val module_stack :
  Lab_obs.Trace.flow -> tid:int -> t0:float -> t1:float -> unit

val module_span :
  Request.t ->
  name:string -> uuid:string -> tid:int -> t0:float -> t1:float -> unit
(** One LabMod hop, on the flow of the request the module saw. *)

(** {1 Events} *)

val device : Request.t -> tid:int -> Lab_device.Device.waiter -> unit
(** A ["device"] span from the completed command's service times. *)

val cache : Labmod.ctx -> Request.t -> hit:bool -> unit

val sched_merge : t -> Labmod.ctx -> Request.t -> absorbed:int -> unit
val sched_join : t -> Labmod.ctx -> Request.t -> unit
(** A [Sched] record and a ["sched_merge"] / ["sched_join"] instant. *)

val park : t -> id:int -> tag:string -> unit
val wake : t -> id:int -> arg:int -> tag:string -> unit
(** A worker (tag ["worker"], [arg] the requests it saw asleep) or the
    scheduler's QoS gate (["qos_gate"]) went to sleep, and woke up. *)

val deadline_miss : t -> id:int -> unit

val latency : t -> float array -> latency:int -> at:int -> unit
(** The SLO observes a client latency [cells.(latency)] that ended at
    [cells.(at)]. *)

val fault_observer :
  t -> (now:float -> queue:int -> label:string -> unit) option
(** Records each fault a device's plan injects and triggers a
    ["fault:<label>"] dump; [None] when no recorder is on. *)
