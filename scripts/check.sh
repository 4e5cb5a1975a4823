#!/usr/bin/env bash
# Tier-1 verify gate: configure + build + ctest + one throughput bench run.
# Usage: scripts/check.sh [--no-bench]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

run_bench=1
if [[ $# -gt 0 ]]; then
  case "$1" in
    --no-bench) run_bench=0 ;;
    *)
      echo "usage: scripts/check.sh [--no-bench]" >&2
      exit 2
      ;;
  esac
fi

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Scheduler determinism gate: the event-driven dirty-set kernel must be
# cycle-exact against the full sweep on the seeded IP and SoC netlists
# (lockstep fuzz incl. fault campaigns and idle phases).
./build/test_sched_equiv --gtest_brief=1
echo "check.sh: event-driven vs full-sweep equivalence OK"

# Crossbar gate: the sharded crossbar must reproduce every link-trace
# digest pinned in tests/data/xbar_goldens/hashes.txt (fuzz incl.
# injected faults, DECERR traffic, busy->idle->busy transitions, both
# scheduler policies, crossbars wider than 64 ports, responses meeting
# across the port-64 mask word boundary and a reset mid-traffic), every
# pinned digest must be checked, and a mid-burst restore must run
# wire-exact with the uninterrupted netlist.
./build/test_xbar_shard_equiv --gtest_brief=1
echo "check.sh: sharded crossbar vs pinned xbar_goldens OK"

# Topology gate: the SocBuilder elaborations of the Cheshire SoC and the
# IP testbench must reproduce every digest pinned in
# tests/data/soc_goldens/hashes.txt (per-link traces and TMU/system
# outcomes through fault + recovery under both scheduler policies, the
# IP fault trials' outcomes, a two-thread engine campaign), and every
# pinned digest must be checked.
./build/test_soc_desc_equiv --gtest_brief=1
echo "check.sh: builder vs pinned Cheshire/IP-testbench goldens OK"

# Hierarchy gate: the degenerate 1-level cluster wrap (transparent
# bridges) must be cycle-exact against the flat build under both
# schedulers, and hierarchical campaign reports must be byte-identical
# across thread counts with the v2 topology hash recorded.
./build/test_soc_hier_equiv --gtest_brief=1
echo "check.sh: flat vs hierarchical topology equivalence OK"

# Desc schema gate: nested round-trip fuzz + v1 -> v2 migration smoke,
# then the committed canonical desc/spec/slice documents (byte pin +
# round trip) and the mutation sweep over the three JSON decoders.
./build/test_soc_desc_roundtrip --gtest_brief=1
./build/test_serde_docs --gtest_brief=1
echo "check.sh: SocDesc round-trip + v1 migration + canonical documents OK"

# Observability gate: metrics registry / latency probe / scheduler
# profiler units, then the campaign-telemetry determinism contract (v3
# report with probe histograms + eval profile, byte-identical across
# thread counts).
./build/test_obs_metrics --gtest_brief=1
./build/test_obs_campaign --gtest_brief=1
echo "check.sh: observability layer + campaign telemetry OK"

# Tracing gate: tmu-axi-trace-v1 format units (incl. the committed
# fixture byte-pin), record -> replay equivalence on the IP testbench
# and the full Cheshire SoC under both scheduler policies, the
# deterministic Chrome-trace export, and the end-to-end
# record/replay/export example (exit 0 iff the replay reproduced the
# subordinate-side traffic and memory state byte-identically).
./build/test_trace_format --gtest_brief=1
./build/test_trace_replay --gtest_brief=1
./build/test_trace_export --gtest_brief=1
./build/trace_replay > /dev/null
echo "check.sh: trace record/replay/export equivalence OK"

# Distributed-campaign gate: spec/slice round-trip + hash-sensitivity
# fuzz, byte-identical merge for arbitrary shard splits (incl.
# out-of-order and uneven), and dispatcher recovery from crashed, hung
# and garbage-emitting workers (real forked campaign_worker processes).
./build/test_campaign_remote --gtest_brief=1
# End-to-end recovery drill: fork real workers, crash one mid-range and
# make another emit garbage instead of a slice; the example exits
# nonzero unless the merged report comes out byte-identical to the
# serial in-process run.
TMU_CAMPAIGN_WORKER=./build/campaign_worker \
  TMU_WORKER_FAIL=crash@3,corrupt@9 \
  ./build/distributed_campaign > /dev/null
echo "check.sh: distributed-campaign dispatcher recovery OK"

# Snapshot gate: tmu-soc-snapshot-v4 strict-decode rejection paths +
# committed fixture byte-pin, the hier-grid/Cheshire round-trip fuzz, a
# repeated restore into one netlist pinned at zero heap allocations,
# then the cold-vs-fork equivalence contract: a warm-up-heavy campaign
# run via snapshot forking must report byte-identically to the cold run
# (the snapshot_fork example exits nonzero on any divergence).
./build/test_snapshot_format --gtest_brief=1
./build/test_snapshot_roundtrip --gtest_brief=1
./build/test_snapshot_alloc --gtest_brief=1
./build/test_snapshot_fork --gtest_brief=1
./build/snapshot_fork > /dev/null
echo "check.sh: snapshot fork-vs-cold equivalence OK"

# Scaling-bench smoke: the grid SoC sweep must construct and run at
# small sizes with the same traffic counts under both schedulers.
./build/bench_soc_scaling --smoke
echo "check.sh: bench_soc_scaling smoke OK"

# Metrics registry gate: on the 32x24 grid hot path, per-link probes
# writing through registry slots (+ the scheduler profiler) must stay
# within 2% of identical probes writing into local members — the
# registry layer itself adds nothing per increment (override:
# TMU_METRICS_GATE_PCT).
./build/bench_overhead --metrics-gate
echo "check.sh: metrics registry overhead within gate"

if [[ "$run_bench" == 1 ]]; then
  ./build/bench_sim_throughput \
    --benchmark_out=build/sim_throughput.bench.json \
    --benchmark_out_format=json
  echo
  echo "Bench JSON written to build/sim_throughput.bench.json"
  echo "Committed performance record: perfledger/README.md"
fi

echo "check.sh: all green"
