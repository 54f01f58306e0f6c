(** Runtime configuration files.

    Trusted users configure the Runtime through one YAML document (the
    paper's deployment model). Each top-level key sets one field of
    {!Runtime.config}, where its meaning and default are documented;
    [profile_period_us] fills [profile_period_ns]. [examples/runtime.yaml]
    sets every obs key, and README's "Runtime configuration" section
    shows it.

    Under [policy:], [kind] is [static], [round_robin] or [dynamic];
    [workers] sizes a static or round-robin policy; the dynamic policy
    reads [max_workers], [threshold] and [lq_cutoff_us]. There is no
    key for [worker_core_base]: {!Platform.boot} derives it from the
    machine shape.

    Missing keys keep {!Runtime.default_config}'s value, and a missing
    [policy] is round-robin over [workers]. Both levels are
    {!Lab_core.Keys} tables, so an unknown key, a key given twice, a
    known key whose value has the wrong type ([workers: eight],
    [busy_poll: 3]) and a [policy:] key the chosen kind does not read
    ([max_workers] under [kind: round_robin]) are each an error naming
    the key. *)

val parse : string -> (Runtime.config, string) result
