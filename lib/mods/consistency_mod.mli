(** Tunable-consistency LabMod.

    Modes (attribute [mode], or switched live by a Control request with
    payload 0/1/2):
    - [relaxed]: writes pass through; caches may absorb them;
    - [ordered]: writes are serialized — one in flight downstream;
    - [durable]: writes are tagged force-unit-access so they bypass
      caches and reach the device before completing. *)

open Lab_core

type mode = Relaxed | Ordered | Durable

val factory : Registry.factory

val mode : Labmod.t -> mode option

val mode_name : mode -> string

val writes_seen : Labmod.t -> int
