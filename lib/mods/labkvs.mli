(** LabKVS: the paper's example key-value store LabMod. Same design as
    LabFS (log-structured metadata, per-worker block allocation) with
    put/get/delete semantics: one operation creates the key and stores
    its value, versus the open-modify-close sequence POSIX requires —
    the mechanism behind the LABIOS experiment (Figure 9b). *)

open Lab_core

val factory : total_blocks:int -> nworkers:int -> Registry.factory
(** Blocks are 4 KiB. *)

val key_count : Labmod.t -> int

val mem : Labmod.t -> string -> bool
