(** The simulated machine: one engine, one CPU complex, one cost table,
    one root RNG. Threaded through every higher layer. *)

type t = { engine : Engine.t; cpu : Cpu.t; costs : Costs.t; rng : Rng.t }

val create : ?costs:Costs.t -> ?seed:int -> ncores:int -> unit -> t

val now : t -> float

val run : ?until:float -> t -> unit

val spawn : t -> (unit -> unit) -> unit

val compute : t -> thread:Cpu.thread_id -> float -> unit
(** Charge CPU time on the thread's core. *)

val compute_cell : t -> thread:Cpu.thread_id -> float array -> int -> unit
(** [compute t ~thread cells.(i)] without boxing the burst: the twin of
    {!Engine.wait_cell}. The cell is read before any suspension, so
    per-event code can keep one staging cell per module and share it
    across processes: stage, then call, with nothing in between that
    waits. *)
