#!/usr/bin/env bash
# Build and run the full test suite three times: a normal RelWithDebInfo
# build, a warnings-as-errors build (-DSDF_WERROR=ON), and an ASan+UBSan
# build (-DSDF_SANITIZE=ON), each in its own build tree. Also smoke-tests
# the observability exports (stats JSON invariants, trace well-formedness,
# same-seed byte identity) via tools/validate_stats.py, the cluster
# workload (same-seed determinism + degraded-mode zero-loss), the
# open-loop overload workload (typed sheds, fail-slow hedging/breaker),
# the production_day example, sdfsim's rejection of bad input and the
# fault campaign under the sanitizers.
# The RPC retry ladder (timeouts, retries, late responses) has its own
# smoke: same-seed, heap-vs-calendar and under the sanitizers.
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== normal build =="
cmake -B build -S . > /dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j "$@")

echo "== observability smoke =="
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
./build/tools/sdfsim --device=sdf --workload=write --duration=0.5 \
    --stats-json="$obs_tmp/a.json" --stats-csv="$obs_tmp/a.csv" \
    --trace="$obs_tmp/a.trace.json" > /dev/null
./build/tools/sdfsim --device=sdf --workload=write --duration=0.5 \
    --stats-json="$obs_tmp/b.json" --stats-csv="$obs_tmp/b.csv" > /dev/null
cmp "$obs_tmp/a.json" "$obs_tmp/b.json"   # Same seed => byte-identical.
cmp "$obs_tmp/a.csv" "$obs_tmp/b.csv"
python3 tools/validate_stats.py "$obs_tmp/a.json" \
    --trace="$obs_tmp/a.trace.json" --channels=44
./build/tools/sdfsim --device=sdf --workload=randread --request=8k \
    --duration=0.3 --stats-json="$obs_tmp/r.json" > /dev/null
python3 tools/validate_stats.py "$obs_tmp/r.json"
# The fault campaign: channel stalls are the one path where callback-free
# resource occupancy (the simulator's horizon) outlasts every real event.
./build/tools/sdfsim --workload=faults --stats-json="$obs_tmp/f1.json" \
    --trace="$obs_tmp/f1.trace.json" > /dev/null
./build/tools/sdfsim --workload=faults --stats-json="$obs_tmp/f2.json" \
    --trace="$obs_tmp/f2.trace.json" > /dev/null
cmp "$obs_tmp/f1.json" "$obs_tmp/f2.json"  # Same seed => byte-identical.
cmp "$obs_tmp/f1.trace.json" "$obs_tmp/f2.trace.json"

echo "== cluster smoke =="
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --stats-json="$obs_tmp/c1.json" > /dev/null
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --stats-json="$obs_tmp/c2.json" > /dev/null
cmp "$obs_tmp/c1.json" "$obs_tmp/c2.json"  # Same seed => byte-identical.
python3 tools/validate_stats.py "$obs_tmp/c1.json" --check-phases
# Degraded mode: kill a node mid-run; exit is nonzero on any lost ack.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 > /dev/null

echo "== recovery smoke =="
# Permanent node loss + anti-entropy: nonzero exit on lost acks or any
# key left under-replicated after the pass.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 --rebalance > /dev/null
# Rolling restart: stop at T/3, recover + rebalance at 2T/3.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --restart-node=1 > /dev/null

echo "== overload smoke =="
# Open-loop storm through the client front door: nonzero exit on any
# lost acked write; storms, sheds, hedges, the distributed trace and the
# windowed series all stay seed-deterministic (byte-identical exports).
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 \
    --stats-json="$obs_tmp/o1.json" --trace="$obs_tmp/o1.trace.json" \
    --stats-series="$obs_tmp/o1.series.json" > /dev/null
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 \
    --stats-json="$obs_tmp/o2.json" --trace="$obs_tmp/o2.trace.json" \
    --stats-series="$obs_tmp/o2.series.json" > /dev/null
cmp "$obs_tmp/o1.json" "$obs_tmp/o2.json"  # Same seed => byte-identical.
cmp "$obs_tmp/o1.trace.json" "$obs_tmp/o2.trace.json"
cmp "$obs_tmp/o1.series.json" "$obs_tmp/o2.series.json"
# Cluster critical-path tiling (client.path.*) + window contiguity.
python3 tools/validate_stats.py "$obs_tmp/o1.json" \
    --trace="$obs_tmp/o1.trace.json" --series="$obs_tmp/o1.series.json" \
    --require-op=client.path.get --require-op=client.path.put --check-phases
# One fail-slow node mid-run; hedged reads + breaker route around it.
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 --fail-slow-factor=4 > /dev/null

echo "== retry-ladder smoke =="
# A 20x fail-slow node with no client deadline: its RPCs outlive the
# transport timeout, so attempts time out, retry with backoff and answer
# late. Same seed => byte-identical stats and series; the ladder must
# really run (summed node*.net.rpc_retries and rpc_late_responses > 0).
for run in 1 2; do
    ./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
        --duration=0.2 --deadline-ms=0 --fail-slow-node=1 \
        --fail-slow-factor=20 --stats-json="$obs_tmp/rl$run.json" \
        --stats-series="$obs_tmp/rl$run.series.json" > /dev/null
done
cmp "$obs_tmp/rl1.json" "$obs_tmp/rl2.json"
cmp "$obs_tmp/rl1.series.json" "$obs_tmp/rl2.series.json"
python3 - "$obs_tmp/rl1.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
def total(name):
    return sum(v for k, v in counters.items()
               if k.startswith("node") and k.endswith(".net." + name))
for name in ("rpc_retries", "rpc_late_responses"):
    if total(name) <= 0:
        sys.exit("retry-ladder smoke: no %s" % name)
PY
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --deadline-ms=0 --fail-slow-node=1 \
    --fail-slow-factor=20 --engine=heap --stats-json="$obs_tmp/rlh.json" \
    --stats-series="$obs_tmp/rlh.series.json" > /dev/null
cmp "$obs_tmp/rl1.json" "$obs_tmp/rlh.json"  # Heap engine == calendar.
cmp "$obs_tmp/rl1.series.json" "$obs_tmp/rlh.series.json"

echo "== ycsb smoke =="
# Skewed phased traffic with range scans through the client front door:
# same seed => byte-identical stats/trace/series; the scan critical path
# (client.path.scan) is attributed, and per-phase counts sum exactly to
# the run totals (--check-phases).
./build/tools/sdfsim --workload=ycsb --profile=e --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=400 --keys=200 \
    --stats-json="$obs_tmp/y1.json" --trace="$obs_tmp/y1.trace.json" \
    --stats-series="$obs_tmp/y1.series.json" > /dev/null
./build/tools/sdfsim --workload=ycsb --profile=e --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=400 --keys=200 \
    --stats-json="$obs_tmp/y2.json" --trace="$obs_tmp/y2.trace.json" \
    --stats-series="$obs_tmp/y2.series.json" > /dev/null
cmp "$obs_tmp/y1.json" "$obs_tmp/y2.json"  # Same seed => byte-identical.
cmp "$obs_tmp/y1.trace.json" "$obs_tmp/y2.trace.json"
cmp "$obs_tmp/y1.series.json" "$obs_tmp/y2.series.json"
python3 tools/validate_stats.py "$obs_tmp/y1.json" \
    --trace="$obs_tmp/y1.trace.json" --series="$obs_tmp/y1.series.json" \
    --require-op=client.path.scan --check-phases
# The storm profile's flash crowd: per-phase accounting over a schedule
# with a hot-range spike (3 labelled series segments).
./build/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
    --replication=2 --duration=0.3 --arrival-rate=40000 \
    --stats-json="$obs_tmp/ystorm.json" > /dev/null
python3 tools/validate_stats.py "$obs_tmp/ystorm.json" --check-phases

echo "== production day example =="
# The diurnal ycsb profile against one node's Store: nonzero exit if the
# preload or any op fails to complete.
./build/examples/production_day > /dev/null

echo "== bad input =="
# Malformed or impossible flags: one stderr line and exit status 2, never
# an uncaught exception, a panic or a silent fallback.
for args in "--nodes=abc" "--workload=cluster --replication=3 --nodes=2" \
        "--workload=ycsb --profile=zzz" "--workload=cluster --device=zzz" \
        "--workload=overload --device=zzz" "--workload=ycsb --device=zzz" \
        "--workload=faults --fault-plan=/nonexistent/plan.txt"; do
    rc=0
    # shellcheck disable=SC2086
    ./build/tools/sdfsim $args > /dev/null 2> "$obs_tmp/bad.err" || rc=$?
    if [ "$rc" -ne 2 ] || [ "$(wc -l < "$obs_tmp/bad.err")" -ne 1 ]; then
        echo "sdfsim $args: exit $rc, expected 2 with one stderr line" >&2
        exit 1
    fi
done

echo "== engine cross-check (heap vs calendar) =="
# The two event engines must produce byte-identical runs: same seed, same
# dispatch order, same stats/trace/series exports. The overload workload
# exercises every scheduling path (device, network retry ladders, client
# hedges, completion ring), so it is the cross-check workload of record.
for eng in heap calendar; do
    ./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
        --duration=0.2 --arrival-rate=60000 --storm=2.0 --engine="$eng" \
        --stats-json="$obs_tmp/x-$eng.json" \
        --trace="$obs_tmp/x-$eng.trace.json" \
        --stats-series="$obs_tmp/x-$eng.series.json" > /dev/null
    ./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
        --duration=0.3 --engine="$eng" \
        --stats-json="$obs_tmp/xc-$eng.json" > /dev/null
    # Fault campaign: stalls end on the horizon, not on a queued event.
    ./build/tools/sdfsim --workload=faults --engine="$eng" \
        --stats-json="$obs_tmp/xf-$eng.json" \
        --trace="$obs_tmp/xf-$eng.trace.json" > /dev/null
    # The ycsb storm adds phased arrivals + cluster scans to the
    # cross-checked surface (per-phase p99s and SLO counters must be
    # byte-identical across engines too).
    ./build/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
        --replication=2 --duration=0.2 --arrival-rate=30000 \
        --engine="$eng" \
        --stats-json="$obs_tmp/xy-$eng.json" \
        --stats-series="$obs_tmp/xy-$eng.series.json" > /dev/null
done
cmp "$obs_tmp/x-heap.json" "$obs_tmp/x-calendar.json"
cmp "$obs_tmp/x-heap.trace.json" "$obs_tmp/x-calendar.trace.json"
cmp "$obs_tmp/x-heap.series.json" "$obs_tmp/x-calendar.series.json"
cmp "$obs_tmp/xc-heap.json" "$obs_tmp/xc-calendar.json"
cmp "$obs_tmp/xf-heap.json" "$obs_tmp/xf-calendar.json"
cmp "$obs_tmp/xf-heap.trace.json" "$obs_tmp/xf-calendar.trace.json"
cmp "$obs_tmp/xy-heap.json" "$obs_tmp/xy-calendar.json"
cmp "$obs_tmp/xy-heap.series.json" "$obs_tmp/xy-calendar.series.json"

echo "== warnings-as-errors build =="
cmake -B build-werror -S . -DSDF_WERROR=ON > /dev/null
cmake --build build-werror -j
(cd build-werror && ctest --output-on-failure -j "$@")

echo "== sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DSDF_SANITIZE=ON > /dev/null
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j "$@")
# The recovery paths (restart scan, rebalance streaming, zombie-store
# detach) under the sanitizers as well.
./build-asan/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 --rebalance > /dev/null
./build-asan/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --restart-node=1 > /dev/null
# The overload path (open-loop engine, client windows/batches/hedges,
# admission sheds, fail-slow deferral) under the sanitizers as well.
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 > /dev/null
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 --no-breaker > /dev/null
# The fault campaign under the sanitizers: channel deaths, stalls and
# corruption on every node's device, router failover and read-repair.
./build-asan/tools/sdfsim --workload=faults > /dev/null
# Both engines under the sanitizers (ctest above runs the default
# calendar engine; this covers the reference heap path too).
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 --engine=heap \
    > /dev/null
# The RPC retry ladder (timeouts, backoff, late responses racing a
# settled attempt) under the sanitizers.
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --deadline-ms=0 --fail-slow-node=1 \
    --fail-slow-factor=20 > /dev/null
# The ycsb storm under the sanitizers: phased arrivals, hot-range skew,
# cluster scan fan-out/merge, and per-phase accounting.
./build-asan/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=30000 > /dev/null
./build-asan/tools/sdfsim --workload=ycsb --profile=e --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=400 --keys=200 \
    > /dev/null

echo "All checks passed."
