(** Runtime configuration files.

    Trusted users configure the Runtime through one YAML document (the
    paper's deployment model). Each top-level key sets one field of
    {!Runtime.config}, where its meaning and default are documented;
    [*_us] keys fill the matching [*_ns] field. This is
    [examples/runtime.yaml]:

    {v
    workers: 8
    busy_poll: false
    admin_period_us: 1000
    worker_spin_us: 5
    trace_sample: 100       # trace 1-in-N requests (0 = off)
    trace_path: out/config_smoke/trace.json
    metrics_path: out/config_smoke/metrics.jsonl
    profile_period_us: 50   # sampler period (0 = profiling off)
    profile_path: out/config_smoke/profile.json
    slo_p99_target_us: 40   # latency objective (0 = no SLO)
    slo_floor_kops: 100     # throughput floor (0 = none)
    slo_error_budget: 0.01
    slo_window_ms: 1
    policy:
      kind: dynamic         # static | round_robin | dynamic
      max_workers: 8
      threshold: 0.2
      lq_cutoff_us: 1000
    v}

    The other keys are [worker_batch_size], [worker_max_inflight],
    [exemplar_k], [exemplar_tail_us], [exemplar_path], [blackbox_cap],
    [blackbox_path], [lvm_rebuild_rate_mbps], [qos_quantum_kb],
    [qos_window_kb], [qos_bypass_kb], [tenant_weight],
    [tenant_rate_mbps], [tenant_burst_kb], [tenant_qcap] and
    [slo_name]. Under [policy:],
    [workers] sizes a static or round-robin policy; the dynamic policy
    reads [max_workers], [threshold] and [lq_cutoff_us]. There is no
    key for [worker_core_base]: {!Platform.boot} derives it from the
    machine shape.

    Missing keys keep {!Runtime.default_config}'s value, and a missing
    [policy] is round-robin over [workers]. An unknown key, at the top
    level or under [policy:], is an error naming the key, and so is a
    known key whose value has the wrong type ([workers: eight],
    [busy_poll: 3]) or a [policy:] key the chosen kind does not read
    ([max_workers] under [kind: round_robin]). Keys and decoders come
    from one table, so a key is accepted exactly when it is decoded. *)

val of_yaml : Lab_core.Yamlite.t -> (Runtime.config, string) result

val parse : string -> (Runtime.config, string) result
