(** Kernel Driver LabMod: submits block I/O straight into the kernel's
    multi-queue hardware dispatch queues ([submit_io_to_hctx]),
    bypassing the upper block layer and the interrupt path — the
    worker/client polls for completion. Honors a scheduler LabMod's
    [hint_hctx] steering decision. *)

open Lab_core

val factory : blk:Lab_kernel.Blk.t -> Registry.factory
