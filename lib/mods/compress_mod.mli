(** Compression LabMod (active storage, §III-B): transparently
    compresses write payloads before they continue towards storage and
    decompresses on the read path. Simulated payloads carry sizes, so
    the module charges calibrated CPU time (a ZLIB-class 0.625 ns/B —
    a 32 MiB buffer costs the ~20 ms the paper reports) and shrinks the
    downstream request by the configured ratio; {!Lz77} is the real
    algorithm backing the model.

    Attribute: [ratio] (default 0.5). Decompression costs 0.2 ns/B. *)

open Lab_core

val factory : Registry.factory

val bytes_saved : Labmod.t -> int
(** Device traffic avoided so far. *)
