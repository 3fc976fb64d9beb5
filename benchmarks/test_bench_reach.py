"""Reachability: full BFS vs stubborn-set reduction on the RAPPID control spec.

The multi-column control STG (``specs.rappid_control``) is the
state-explosion case from the paper's verification story: the full
marking graph grows exponentially in bytes x columns (66k states at
2x2, past 200k by 4x2), while the partial-order reduced exploration of
:func:`repro.petrinet.reachability.explore` stays near-linear because
the marked-graph structure collapses every stubborn set to a singleton.

Emits ``BENCH_reach.json`` in the gitignored ``.benchmarks/`` directory:

* per feasible size: full and reduced state counts, the reduction
  ratio (gated >= 5x on the multi-column sizes), and best wall-clock
  for each exploration;
* per infeasible size: proof that full BFS blows the state cap while
  the reduced exploration completes and proves deadlock freedom --
  the "verify the full control spec" claim in machine-readable form.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the size sweep and the
state cap so the smoke run stays in seconds; the reduction-ratio gates
stay on (state counts are deterministic, only timings vary).
"""

import json
import os
import time

import pytest

from repro.petrinet.reachability import (
    UnboundedNetError,
    build_reachability_graph,
    explore,
)
from repro.stg import specs

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Sizes (n_bytes, n_columns) where the full graph fits under the cap...
FEASIBLE = [(1, 1), (1, 2), (2, 1)] if QUICK else [(1, 1), (1, 2), (2, 1), (2, 2)]
# ...and sizes where flat BFS provably cannot complete within the budget.
INFEASIBLE = [(4, 2)]
# Paper-scale instance checked reduced-only (no point burning half a
# minute proving the cap blows again at 16x4 when 4x2 already did).
REDUCED_ONLY = [] if QUICK else [(16, 4)]
FULL_CAP = 20_000 if QUICK else 200_000


def _best_of(fn, rounds):
    result, best = None, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_bench_reach_full_vs_reduced(bench_dir):
    rounds = 1 if QUICK else 3
    summary = {"quick": QUICK, "full_cap": FULL_CAP, "cases": {}}

    print()
    for n_bytes, n_columns in FEASIBLE:
        net = specs.rappid_control(n_bytes, n_columns).net
        full, full_s = _best_of(
            lambda: build_reachability_graph(net, max_states=FULL_CAP), rounds
        )
        reduced, reduced_s = _best_of(
            lambda: explore(net, max_states=FULL_CAP), rounds
        )
        # The contract the speed rests on: identical deadlock verdicts.
        assert set(reduced.deadlocks()) == set(full.deadlocks()) == set()
        ratio = len(full) / len(reduced)
        summary["cases"][f"b{n_bytes}_c{n_columns}"] = {
            "full_states": len(full),
            "reduced_states": len(reduced),
            "state_ratio": round(ratio, 1),
            "full_seconds": round(full_s, 4),
            "reduced_seconds": round(reduced_s, 4),
        }
        print(
            f"  rappid_control({n_bytes},{n_columns}): "
            f"full {len(full)} states ({full_s:.3f}s) vs "
            f"reduced {len(reduced)} ({reduced_s:.4f}s) -- {ratio:.1f}x"
        )
        if n_columns >= 2:
            # The perf claim of this layer: on the multi-column control
            # specs the reduction removes at least 5x of the states.
            assert ratio >= 5.0, (
                f"reduction ratio collapsed to {ratio:.1f}x on "
                f"rappid_control({n_bytes},{n_columns})"
            )

    for n_bytes, n_columns in INFEASIBLE:
        net = specs.rappid_control(n_bytes, n_columns).net
        start = time.perf_counter()
        with pytest.raises(UnboundedNetError, match="state cap"):
            build_reachability_graph(net, max_states=FULL_CAP)
        full_s = time.perf_counter() - start
        reduced, reduced_s = _best_of(
            lambda: explore(net, max_states=FULL_CAP), rounds
        )
        assert not reduced.deadlocks()
        summary["cases"][f"b{n_bytes}_c{n_columns}"] = {
            "full_states": None,
            "full_blew_cap_after_seconds": round(full_s, 3),
            "reduced_states": len(reduced),
            "reduced_seconds": round(reduced_s, 4),
            "deadlock_free": True,
        }
        print(
            f"  rappid_control({n_bytes},{n_columns}): full BFS blew the "
            f"{FULL_CAP} cap after {full_s:.2f}s; reduced verified "
            f"deadlock-free in {len(reduced)} states ({reduced_s:.4f}s)"
        )

    for n_bytes, n_columns in REDUCED_ONLY:
        net = specs.rappid_control(n_bytes, n_columns).net
        reduced, reduced_s = _best_of(
            lambda: explore(net, max_states=FULL_CAP), rounds
        )
        assert not reduced.deadlocks()
        summary["cases"][f"b{n_bytes}_c{n_columns}"] = {
            "full_states": None,
            "reduced_states": len(reduced),
            "reduced_seconds": round(reduced_s, 4),
            "deadlock_free": True,
        }
        print(
            f"  rappid_control({n_bytes},{n_columns}): reduced-only, "
            f"deadlock-free in {len(reduced)} states ({reduced_s:.4f}s)"
        )

    out_path = bench_dir / "BENCH_reach.json"
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
