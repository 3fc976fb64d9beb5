#!/usr/bin/env bash
# Repository check: tier-1 tests plus a quick-mode benchmark smoke.
#
#   ./scripts/check.sh          # tests, then benchmarks in quick mode
#   ./scripts/check.sh --full   # tests, then full benchmarks (timing asserts on)
#
# Quick mode sets REPRO_BENCH_QUICK=1, which benchmarks/conftest.py and
# benchmarks/test_bench_engine.py honour by shrinking workloads and
# skipping speedup assertions (documented in ROADMAP.md, Open items).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== contract lint (oracles + reductions + pinned RNG + handlers) =="
python scripts/lint_contracts.py

# Static checkers (configured in pyproject.toml).  CI installs both;
# locally they are optional -- a missing tool is reported, not fatal,
# so the stdlib-only container can still run the full check.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check .
else
    echo "== ruff check == (skipped: ruff not installed)"
fi
if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (analysis + engine) =="
    mypy src/repro/analysis src/repro/engine
else
    echo "== mypy == (skipped: mypy not installed)"
fi

echo "== tier-1 tests =="
python -m pytest -x -q tests

# Docs checks: README snippets must execute against the current API and
# every src/repro/engine module must carry a module docstring.
echo "== docs (README snippets + engine docstrings) =="
python scripts/check_docs.py

# End-to-end service smoke: boots the asyncio decode service on an
# ephemeral port, pushes a mixed decode/coverage/reachability workload
# through a real client session, and verifies one decode response
# bit-identical to the direct engine call (docs/service.md).
echo "== service smoke (asyncio front end) =="
python -m repro.service.loadgen --smoke

BENCH_STAMP="$(mktemp)"
trap 'rm -f "$BENCH_STAMP"' EXIT

if [[ "${1:-}" == "--full" ]]; then
    echo "== benchmarks (full) =="
    python -m pytest -q benchmarks
else
    echo "== benchmarks (quick smoke) =="
    REPRO_BENCH_QUICK=1 python -m pytest -q benchmarks
fi

# Machine-readable perf trajectories, written by
# benchmarks/test_bench_engine.py and benchmarks/test_bench_reach.py
# (quick mode marks the files "quick": true and skips the timing
# assertions):
#   BENCH_sim.json       reference vs opcode-kernel transitions/sec
#   BENCH_faultsim.json  per-fault reference vs batch fault engine + coverage
#   BENCH_reach.json     full vs partial-order-reduced reachability states
#   BENCH_service.json   decode-service requests/s + p50/p99 latency +
#                        coalescing ratio at 1/10/100 concurrent clients
# In --full mode all files must exist and have been rewritten by the
# benchmark run just above -- a missing or stale file means the summary
# test silently stopped running, which should fail loudly here.
for bench_file in BENCH_sim.json BENCH_faultsim.json BENCH_reach.json BENCH_service.json; do
    if [[ ! -f "$bench_file" ]]; then
        if [[ "${1:-}" == "--full" ]]; then
            echo "check.sh: FAIL - $bench_file was not produced" >&2
            exit 1
        fi
        continue
    fi
    if [[ "${1:-}" == "--full" && ! "$bench_file" -nt "$BENCH_STAMP" ]]; then
        echo "check.sh: FAIL - $bench_file is stale (not refreshed by this run)" >&2
        exit 1
    fi
    echo "== benchmark summary ($bench_file) =="
    cat "$bench_file"
done

# The fault-sim summary carries three layer rows appended by the engine
# benchmarks: "collapsed" (static fault collapsing, gated at >=25%
# corpus reduction in full mode), "compile_cache" (repeat campaigns
# must recompute nothing), and "resilience" (healthy-path overhead of
# supervised dispatch, gated <2% in full mode, plus the PoolHealth of a
# chaos-salvaged campaign).  A missing row means that benchmark
# silently stopped running.
if [[ "${1:-}" == "--full" && -f BENCH_faultsim.json ]]; then
    python - <<'EOF'
import json, sys
summary = json.load(open("BENCH_faultsim.json"))
required = ("collapsed", "compile_cache", "resilience")
missing = [key for key in required if key not in summary]
if missing:
    print(f"check.sh: FAIL - BENCH_faultsim.json lacks {missing}", file=sys.stderr)
    sys.exit(1)
row = summary["collapsed"]
print(
    f"collapse: {row['faults']} faults -> {row['simulated']} simulated "
    f"({row['collapse_ratio'] * 100:.1f}% removed, {row['fault_speedup']}x workload); "
    f"compile cache: {summary['compile_cache']['repeat_misses']} repeat misses"
)
row = summary["resilience"]
health = row.get("chaos_health", {})
print(
    f"resilience: supervised dispatch {row['overhead_percent']:+.2f}% overhead "
    f"over {row['chunks']} chunks; chaos salvage identical={row['chaos_identical']} "
    f"(respawns={health.get('respawns')}, retries={health.get('retries')})"
)
EOF
fi

# The service summary must carry all three concurrency levels; a
# missing level means the benchmark silently stopped sweeping.
if [[ "${1:-}" == "--full" && -f BENCH_service.json ]]; then
    python - <<'EOF'
import json, sys
summary = json.load(open("BENCH_service.json"))
levels = summary.get("levels", {})
missing = [level for level in ("1", "10", "100") if level not in levels]
if missing:
    print(f"check.sh: FAIL - BENCH_service.json lacks levels {missing}", file=sys.stderr)
    sys.exit(1)
for level in ("1", "10", "100"):
    row = levels[level]
    print(
        f"service @{level} clients: {row['requests_per_s']} req/s, "
        f"p50 {row['p50_latency_s'] * 1000:.1f} ms, "
        f"p99 {row['p99_latency_s'] * 1000:.1f} ms, "
        f"coalescing {row['coalescing_ratio']}x"
    )
EOF
fi
echo "check.sh: OK"
