#!/bin/sh
# Repo health check: build everything, run every test suite (test/paper.t
# holds the paper-figure claims), run the experiment smokes (each names
# its failed claims on stderr and exits 1), then gate the BENCH_*.json
# artifacts against the committed baselines with bench_diff (>10%
# regression fails), then run labbench once per workload.
# Usage: bin/check.sh  (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dead exports =="
# Every val, exception and optional argument in lib/**/*.mli must have a
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

echo "== int keys only through Itbl =="
# Int.hash, and so Hashtbl.Make (Int), calls the C caml_hash on every
# lookup; an int-keyed table under lib/ is a Lab_sim.Itbl.
bad=$(grep -rlE 'Hashtbl\.Make *\( *Int *\)|Int\.hash' lib || true)
[ -z "$bad" ] || { echo "Hashtbl.Make (Int) or Int.hash under lib/; use Lab_sim.Itbl: $bad"; exit 1; }

echo "== obs recording only through Hooks =="
# A request-lifecycle point reports to Lab_core.Hooks, which fans out to
# the consumers that are on; nothing else under lib/ records into the
# tracer or the flight recorder itself.
bad=$(grep -rlE '(Trace\.(start|span|instant|open_stage|close_stage|finish)|Flightrec\.(record|trigger))([^A-Za-z0-9_]|$)' lib \
  | grep -v '^lib/obs/' | grep -v '^lib/core/hooks\.mli\{0,1\}$' || true)
[ -z "$bad" ] || { echo "Trace or Flightrec recording outside lib/obs and Lab_core.Hooks; add a Hooks point: $bad"; exit 1; }

echo "== experiment gates only through Bench_util.claim =="
# A failed claim names itself on stderr after the run; an exit inside an
# experiment would skip every claim after it.
bad=$(grep -lE "(^|[^A-Za-z0-9_])exit([^A-Za-z0-9_']|\$)" bench/exp_*.ml || true)
[ -z "$bad" ] || { echo "exit called in an experiment; use Bench_util.claim: $bad"; exit 1; }

echo "== README shows examples/runtime.yaml as it is =="
# README's "Runtime configuration" yaml block is the example file below
# its comment header, so the two cannot drift.
readme_yaml=$(mktemp)
awk '/^## Runtime configuration/ { s = 1 } s && /^```yaml$/ { y = 1; next } y && /^```$/ { exit } y' \
  README.md > "$readme_yaml"
rc=0; sed -n '/^[^#]/,$p' examples/runtime.yaml | diff -u "$readme_yaml" - || rc=$?
rm -f "$readme_yaml"
[ "$rc" -eq 0 ] || { echo "README's runtime yaml block differs from examples/runtime.yaml"; exit 1; }

echo "== dune runtest =="
dune runtest

# gate EXP JSON [--smoke]: run one experiment, which prints each failed
# claim on stderr and exits 1, then diff its JSON against the committed
# baseline (JSON "-": none to diff).
gate() {
  exp=$1 json=$2
  shift 2
  echo "== $exp${1:+ $*} =="
  dune exec bench/main.exe -- "$exp" "$@"
  [ "$json" = - ] && return
  test -s "$json"
  dune exec bin/bench_diff.exe -- "bench/baselines/$json" "$json"
}

gate faults - --smoke
gate batching - --smoke
gate cache BENCH_cache.json --smoke
gate anatomy2 BENCH_anatomy.json --smoke
gate profile BENCH_profile.json --smoke
gate lvm BENCH_lvm.json --smoke
gate sim BENCH_sim.json --smoke
gate qos BENCH_qos.json --smoke
gate load BENCH_load.json --smoke
# Full size: its BENCH_exemplars.json is overwritten by the smoke below.
gate exemplars -
gate exemplars BENCH_exemplars.json --smoke

echo "== labbench (every workload, seed 1, 1 s) =="
# The repo benchmark checks itself: it exits 1 when one of its checks
# failed (same-seed rounds must reproduce sim_*, events and minor words
# exactly) and 2 when it crashed or did not build.
for w in fs-mixed blk-hot blk-open; do
  rc=0; python3 labbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 > /dev/null || rc=$?
  [ "$rc" -eq 0 ] || { echo "labbench --workload $w exited $rc"; exit 1; }
done

echo "== labstor_cli validate (every stack YAML under examples/) =="
for f in examples/*.yaml; do
  [ "$f" = examples/runtime.yaml ] && continue
  dune exec bin/labstor_cli.exe -- validate "$f" > /dev/null
done

echo "== labstor_cli run smoke (obs stack, examples/runtime.yaml, 2 ms outage) =="
# One run turns every obs feature on: each artifact the config names
# must be non-empty, the SLO keys must surface as burn-rate gauges in
# the metrics file, and the outage must leave an ENODEV black-box dump.
rm -rf out/config_smoke
dune exec bin/labstor_cli.exe -- run --stack examples/obs_stack.yaml \
  --config examples/runtime.yaml --offline-ms 2 --ops 200 --threads 2 > /dev/null
for a in trace.json profile.json exemplars.json blackbox.json metrics.jsonl; do
  test -s "out/config_smoke/$a" || { echo "run wrote no out/config_smoke/$a"; exit 1; }
done
grep -q 'slo.client.burn_rate' out/config_smoke/metrics.jsonl
grep -q '"reason":"errno:ENODEV"' out/config_smoke/blackbox.json

echo "== labstor_cli --threads 0 exits at once, nonzero (124 = timeout, a hang) =="
rc=0; timeout 10 dune exec bin/labstor_cli.exe -- run --stack examples/obs_stack.yaml \
  --config examples/runtime.yaml --offline-ms 2 --threads 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || { echo "run --threads 0 exited $rc"; exit 1; }

echo "check: OK"
