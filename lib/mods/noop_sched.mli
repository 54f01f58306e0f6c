(** No-Op I/O scheduler LabMod: keys each request to the hardware queue
    of the core it originated on, nothing more — the paper's baseline
    scheduling policy. *)

open Lab_core

val factory : nqueues:int -> Registry.factory
