(** Span-based bottleneck attribution: folds a finished trace's spans
    into a stack-keyed flamegraph aggregate plus a p50-vs-tail stage
    contrast.

    {b Flamegraph keys.} Each span is keyed by the ";"-joined names of
    its enclosing spans, recovered from timestamps by a containment
    scan (spans of one request are well nested by construction of the
    telescoping stage API). Example keys:
    ["request"], ["request;module_stack"],
    ["request;module_stack;lru_cache;blkswitch_sched;kernel_driver;device"].
    Per key: occurrence count, inclusive (total) ns, and exclusive
    (self) ns — self is total minus the direct children's total, i.e.
    the layer's own software time ({!exclusive} exposes it per span).

    {b Tail attribution.} Requests are ranked by end-to-end latency
    (the root span). The stage means of the tail cohort (e2e >= p99)
    are contrasted against the p50 cohort (e2e <= p50): the stage whose
    mean grows most is where the tail lives.

    Only requests whose root "request" span was emitted participate;
    everything is deterministic and {!to_json} is byte-stable. *)

type node = {
  pf_key : string;  (** ";"-joined stack path *)
  pf_count : int;
  pf_total_ns : float;  (** inclusive *)
  pf_self_ns : float;  (** exclusive: total minus direct children *)
}

type tail_row = {
  tr_stage : string;
  tr_p50_mean_ns : float;  (** stage mean over the p50 cohort *)
  tr_tail_mean_ns : float;  (** stage mean over the tail (>= p99) cohort *)
}

type t = {
  requests : int;  (** requests with a root span *)
  p50_ns : float;  (** end-to-end p50 (nearest rank) *)
  p99_ns : float;
  p50_cohort : int;
  tail_cohort : int;
  p50_e2e_mean_ns : float;
  tail_e2e_mean_ns : float;
  nodes : node list;  (** sorted by key *)
  tail : tail_row list;  (** sorted by stage name *)
}

type span = {
  sp_ev : Trace.ev;
  sp_path : string;  (** ";"-joined names of the enclosing spans and this one *)
  sp_self_ns : float;  (** exclusive: duration minus direct children, >= 0 *)
}

val exclusive : Trace.ev list -> (int * span list) list
(** The containment scan behind every anatomy table: per request that
    has a root "request" span, its complete ('X') spans with their
    flamegraph path and exclusive time, each listed after its
    children. Requests come in a deterministic order. {!of_events},
    Fig 4(a) and the anatomy2 breakdown all read per-layer software
    time from this one fold. *)

val of_events : Trace.ev list -> t
(** Aggregates every complete ('X') span; instants are ignored. *)

val to_json : t -> string
(** JSON object [{"requests":…,"p50_ns":…,"p99_ns":…,"flamegraph":
    […],"tail":{…}}]; keys sorted, fixed-format floats — byte-stable
    for equal aggregates. *)
