#!/usr/bin/env bash
# Repository check: tier-1 tests plus a quick-mode benchmark smoke.
#
#   ./scripts/check.sh                     # tests, then benchmarks in quick mode
#   ./scripts/check.sh --full              # tests, then full benchmarks (timing asserts on)
#   ./scripts/check.sh --update-baselines  # as --full, then copy the fresh
#                                          # BENCH files over the committed ones
#
# Quick mode sets REPRO_BENCH_QUICK=1, which benchmarks/conftest.py and
# benchmarks/test_bench_engine.py honour by shrinking workloads and
# skipping speedup assertions (documented in ROADMAP.md, Open items).
# Benchmarks write their BENCH_*.json files to the gitignored
# .benchmarks/ directory; only --update-baselines touches the committed
# copies at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FULL=0
UPDATE_BASELINES=0
for arg in "$@"; do
    case "$arg" in
        --full) FULL=1 ;;
        --update-baselines) FULL=1; UPDATE_BASELINES=1 ;;
        *) echo "usage: $0 [--full] [--update-baselines]" >&2; exit 2 ;;
    esac
done
export BENCH_DIR=.benchmarks

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

if [[ "$FULL" == 1 ]]; then
    echo "== benchmarks (full) =="
    python -m pytest -q benchmarks
else
    echo "== benchmarks (quick smoke) =="
    REPRO_BENCH_QUICK=1 python -m pytest -q benchmarks
fi

# Machine-readable perf trajectories, written to $BENCH_DIR by
# benchmarks/test_bench_engine.py and benchmarks/test_bench_reach.py
# (quick mode marks the files "quick": true and skips the timing
# assertions):
#   BENCH_sim.json       reference vs opcode-kernel transitions/sec
#   BENCH_faultsim.json  per-fault reference vs batch fault engine + coverage
#   BENCH_reach.json     full vs partial-order-reduced reachability states
# In --full mode all files must exist and have been rewritten by the
# benchmark run just above -- a missing or stale file means the summary
# test silently stopped running, which should fail loudly here.
for bench_name in BENCH_sim.json BENCH_faultsim.json BENCH_reach.json; do
    bench_file="$BENCH_DIR/$bench_name"
    if [[ ! -f "$bench_file" ]]; then
        if [[ "$FULL" == 1 ]]; then
            echo "check.sh: FAIL - $bench_file was not produced" >&2
            exit 1
        fi
        continue
    fi
    if [[ "$FULL" == 1 && ! "$bench_file" -nt "$BENCH_STAMP" ]]; then
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
if [[ "$FULL" == 1 && -f "$BENCH_DIR/BENCH_faultsim.json" ]]; then
    python - <<'EOF'
import json, os, sys
summary = json.load(open(os.path.join(os.environ["BENCH_DIR"], "BENCH_faultsim.json")))
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

# The committed baselines (BENCH_sim.json, BENCH_faultsim.json and
# BENCH_reach.json at the repo root) move only here, from the full run
# just checked above.
if [[ "$UPDATE_BASELINES" == 1 ]]; then
    for bench_name in BENCH_sim.json BENCH_faultsim.json BENCH_reach.json; do
        cp "$BENCH_DIR/$bench_name" "$bench_name"
        echo "== baseline updated: $bench_name =="
    done
fi
echo "check.sh: OK"
