(** Dummy LabMod for the live-upgrade experiment (Table I): processes
    control messages with a configurable CPU cost and counts them; its
    transferable state is "a few bytes of pointers". The [tag]
    identifies the code version so tests can observe an upgrade taking
    effect while the message count survives. *)

open Lab_core

val factory : ?op_ns:float -> ?tag:string -> unit -> Registry.factory
(** Attribute [op_ns] overrides the per-message CPU cost. *)

val messages : Labmod.t -> int

val tag : Labmod.t -> string
