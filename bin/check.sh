#!/bin/sh
# Repo health check: build everything, run every test suite, run the
# experiment smokes (each asserts its own acceptance criteria and exits
# nonzero on violation), then gate the BENCH_*.json artifacts against
# the committed baselines with bench_diff (>10% regression fails).
# Usage: bin/check.sh  (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dead exports =="
# Every val and every optional argument in lib/**/*.mli must have a
# caller outside its own module; lists the ones that do not and fails.
sh bin/dead_exports.sh

echo "== fork-join only through Engine.join =="
# The suspend shim is kept for labbench; only test_sim's two tests of it call it.
bad=$(grep -rl 'Engine\.suspend' lib bench bin test | grep -v '^lib/sim/engine\.mli\{0,1\}$' | grep -v '^test/test_sim\.ml$' || true)
[ -z "$bad" ] && [ "$(grep -c 'Engine\.suspend' test/test_sim.ml)" -le 2 ] \
  || { echo "suspend called outside its two test_sim tests; use Engine.join: $bad"; exit 1; }

echo "== percentiles only through Obs.Hist =="
# Stats survives only as the count/sum shim in lib/labstor/labstor.ml that
# labbench reads; every other caller uses Obs.Hist.
bad=$(grep -rlE '(^|[^A-Za-z0-9_])Stats\.' lib bench bin test examples | grep -v '^lib/labstor/labstor\.ml$' || true)
[ -z "$bad" ] || { echo "Stats used outside the labstor.ml shim; use Obs.Hist: $bad"; exit 1; }

echo "== dune runtest =="
dune runtest

echo "== fault-injection smoke (LABSTOR_SMOKE=1) =="
LABSTOR_SMOKE=1 dune exec bench/main.exe -- faults

echo "== batching smoke (LABSTOR_SMOKE=1) =="
LABSTOR_SMOKE=1 dune exec bench/main.exe -- batching

echo "== cache smoke (--smoke) =="
dune exec bench/main.exe -- cache --smoke
test -s BENCH_cache.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_cache.json BENCH_cache.json

echo "== fig4a anatomy (byte-identical to baseline) =="
# Per-layer exclusive times come from spans; any drift in the table is
# a regression in the tracer, the exclusive-time fold or the stack.
dune exec bench/main.exe -- anatomy | diff bench/baselines/fig4a.txt -

echo "== fig8 schedulers (Table II shape) =="
# Asserts the paper's scheduler shape on L-App average latency:
# isolated averages within 10% of each other, NoOp colocated >= 10x its
# isolated average, blk-switch colocated <= 4x, and every Lab variant
# within 5% of its Linux counterpart; exits nonzero on violation.
dune exec bench/main.exe -- schedulers

echo "== anatomy2 smoke (--smoke) =="
# Asserts per-request stage/e2e reconciliation and zero overhead when
# tracing is off; exits nonzero on violation.
dune exec bench/main.exe -- anatomy2 --smoke
test -s BENCH_anatomy.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_anatomy.json BENCH_anatomy.json

echo "== profile smoke (--smoke) =="
# Asserts dedicated > time-shared worker utilization, byte-identical
# same-seed profile export, and sampler neutrality.
dune exec bench/main.exe -- profile --smoke
test -s BENCH_profile.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_profile.json BENCH_profile.json

echo "== lvm smoke (--smoke) =="
# Asserts mirror availability under single-leg loss, bounded degraded
# p99, rebuild completion (frac = 1.0), journal-replay consistency and
# same-seed determinism; exits nonzero on violation.
dune exec bench/main.exe -- lvm --smoke
test -s BENCH_lvm.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_lvm.json BENCH_lvm.json

echo "== sim smoke (--smoke) =="
# Asserts the pooled timer path stays within 2 minor words/event in
# steady state, the event queue within 2x its fresh size after the
# timer scenario, and that back-to-back runs execute identical event
# sequences; exits nonzero on violation.
dune exec bench/main.exe -- sim --smoke
test -s BENCH_sim.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_sim.json BENCH_sim.json

echo "== qos smoke (--smoke) =="
# Asserts O(1)-in-tenant-count DRR dispatch on the 2-words/op budget,
# weighted fairness, noisy-neighbor read-p99 isolation (<= 1.5x) and
# same-seed determinism; exits nonzero on violation.
dune exec bench/main.exe -- qos --smoke
test -s BENCH_qos.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_qos.json BENCH_qos.json

echo "== load smoke (--smoke) =="
# Asserts CO-corrected p99 agrees with naive within 10% below the knee
# and diverges >= 5x past saturation, monotone achieved throughput,
# and same-seed determinism; exits nonzero on violation. The curve
# arrays in BENCH_load.json are gated per-point (with *_band widening)
# and for monotone-direction preservation by bench_diff.
dune exec bench/main.exe -- load --smoke
test -s BENCH_load.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_load.json BENCH_load.json

echo "== exemplars full size =="
# The full-size overload run: every one of the 6 slowest of its 6,601
# completions must hold an exemplar (plus the same neutrality, dump and
# determinism asserts as the smoke); exits nonzero on violation. Its
# BENCH_exemplars.json is overwritten by the smoke below.
dune exec bench/main.exe -- exemplars > /dev/null

echo "== exemplars smoke (--smoke) =="
# Asserts capture-off runs are byte-identical to no-obs runs (and
# capture-on runs engine-neutral), >= 90% of the slowest 0.1% of
# completions hold exemplars with telescoping stage anatomy, a
# scripted outage leaves an errno:ENODEV black-box dump containing its
# own trigger event, and same-seed reruns are byte-identical; exits
# nonzero on violation.
dune exec bench/main.exe -- exemplars --smoke
test -s BENCH_exemplars.json
dune exec bin/bench_diff.exe -- bench/baselines/BENCH_exemplars.json BENCH_exemplars.json

echo "== labstor_cli metrics smoke =="
dune exec bin/labstor_cli.exe -- metrics --ops 200 --threads 2 > /dev/null
test -s out/metrics.jsonl

echo "== labstor_cli --threads 0 exits at once, nonzero (124 = timeout, a hang) =="
rc=0; timeout 10 dune exec bin/labstor_cli.exe -- metrics --threads 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || { echo "metrics --threads 0 exited $rc"; exit 1; }

echo "== labstor_cli config smoke (examples/runtime.yaml) =="
# Every key of the config file reaches the Runtime: the SLO keys must
# surface as burn-rate gauges in the metrics file the config names.
rm -f out/config_smoke/metrics.jsonl
dune exec bin/labstor_cli.exe -- metrics examples/runtime.yaml --ops 200 --threads 2 > /dev/null
test -s out/config_smoke/metrics.jsonl
grep -q 'slo.client.burn_rate' out/config_smoke/metrics.jsonl

echo "== labstor_cli profile/top smoke =="
dune exec bin/labstor_cli.exe -- profile --ops 200 --threads 2 > /dev/null
test -s out/profile.json
dune exec bin/labstor_cli.exe -- top --ops 200 --threads 2 > /dev/null

echo "== labstor_cli exemplars/blackbox smoke =="
dune exec bin/labstor_cli.exe -- exemplars --ops 200 --threads 2 > /dev/null
test -s out/exemplars.json
dune exec bin/labstor_cli.exe -- blackbox --ops 200 --threads 2 > /dev/null
test -s out/blackbox.json
grep -q '"reason":"errno:ENODEV"' out/blackbox.json

echo "== labstor_cli qos smoke =="
dune exec bin/labstor_cli.exe -- qos --tenants 4 --ops 50 --noisy > /dev/null

echo "== labstor_cli load smoke =="
dune exec bin/labstor_cli.exe -- load --rate 100 --total 500 --slo-p99 100 > /dev/null

echo "check: OK"
