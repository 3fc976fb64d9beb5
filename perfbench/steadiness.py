"""Steadiness report: run workloads repeatedly, print each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads decode sim]

Runs ``run.py --trace 0`` ``--runs`` times per workload, for the
``run_seconds`` of ``BENCHMARK.json`` and each time with another seed
(``--first-seed``, then the next ones), visiting the workloads
round-robin so that slow drift of the host spreads over all of
them.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound in ``BENCHMARK.json``, and marks each spread that reaches a third
of its bound (the target) or the bound itself (a failure).  ``setup_s``
has no spread requirement, only its median must repeat.  The exit code
is 0 when every spread stays within its bound and no op failed -- the
condition two sets of runs of the same code must meet -- and the last
line names every metric above the target.  The raw values go to
``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT
from run import WORKLOADS, load_spec


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}

    results = {workload: [] for workload in args.workloads}
    for run in range(args.runs):
        for workload in args.workloads:
            result = run_once(workload, args.first_seed + run)
            results[workload].append(result)
            print(f"{workload} seed {args.first_seed + run}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{result['wall_s']:.1f} s wall", flush=True)

    accepted, above_target = True, []
    print(f"\n{'workload':9} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        accepted &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            note = ""
            if name != "setup_s" and spread >= bound:
                accepted, note = False, "  OUT OF BOUND"
            elif name != "setup_s" and spread >= bound / 3:
                above_target.append(f"{workload}/{name}")
                note = "  above bound/3"
            print(f"{workload:9} {name:16} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {bound:6.2f}{note}")
        wall = sum(r["wall_s"] for r in runs) / len(runs)
        print(f"{workload:9} mean wall time per run {wall:.1f} s, "
              f"failed ops {sum(r['failed'] for r in runs)}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as handle:
        json.dump(results, handle, indent=1)
    if not accepted:
        print("not steady: a spread reaches its bound, or an op failed")
    elif above_target:
        print("within every bound; above the bound/3 target: " + ", ".join(above_target))
    else:
        print("steady: every spread below a third of its bound")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
