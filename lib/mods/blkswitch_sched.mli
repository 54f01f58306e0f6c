(** blk-switch I/O scheduler LabMod (after Hwang et al., integrated as
    the paper's §IV scheduler case study): reserves a fraction of the
    hardware queues for latency-critical (small) requests and steers
    each class to its least-loaded queue, eliminating head-of-line
    blocking behind bulk transfers.

    With a positive [merge_window_ns] attribute the scheduler also
    merges adjacent requests: the first request of a contiguous run
    waits out the window collecting same-direction neighbours headed
    for the same hardware queue, forwards one combined block op, and
    splits the completion (or torn-write error) back per-request.

    Factory attribute: [merge_window_ns] (float, default 0 = merging
    off — the classic single-request path). A merged op carries at
    most 262144 bytes (one full device command) and 64 requests.

    With a {!Lab_ipc.Tenant} table in the factory env, requests stamped
    with a tenant index pass the weighted deficit-round-robin dispatch
    stage before steering (latency-class requests bypass it). Per-op
    cost is O(1) in registered tenants and allocation-free. *)

open Lab_core

val name : string

val merged_ops : Labmod.t -> int
(** Merged device ops dispatched so far (batches that absorbed at least
    one follower). *)

val absorbed_reqs : Labmod.t -> int
(** Requests absorbed into merged ops as followers (excludes leaders). *)

val factory : ?env:Mod_util.env -> nqueues:int -> unit -> Registry.factory
(** [env]'s registry gets the merge counters under ["mod.<uuid>."], its
    QoS table attaches the multi-tenant DRR dispatch stage, and its
    hooks see merge/join decisions and QoS-gate park/wake
    transitions. *)
