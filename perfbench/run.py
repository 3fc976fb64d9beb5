"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload decode --seed 1 --trace 0

Workloads: ``decode``, ``sim``, ``faults``, ``service`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written under ``perfbench/out/``.

A run starts ``PROCESSES`` fresh worker processes one after the other.
Each sets the workload up (imports, inputs, one warm-up op); ``setup_s``
is the median of their set-up times, each timed from process start until
the worker reports ready.  Untraced, each worker then measures its share
of ``--seconds`` and the ops of all of them are pooled, so neither one
process's luck nor one stretch of host load sets the figures.
Traced, only the last worker measures, for the whole ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from common import EXPECT, READY, RESULT, ROOT, median, p90, provenance, worker_env

WORKLOADS = ("decode", "sim", "faults", "service")
PROCESSES = 3
#: Whole-run deadline; a worker still running then is killed.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def start_worker(args, seconds: float, setup_only: bool, known: list, deadline: float):
    """Run one worker; return (set-up seconds, phases, oracle outcomes, result)."""
    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    timer.start()
    setup_s = phases = result = None
    expect, report = known, []
    try:
        process.stdin.write(json.dumps(known))
        process.stdin.close()
        for line in process.stdout:
            if line.startswith(READY):
                setup_s = time.perf_counter() - started
                phases = json.loads(line[len(READY):])
            elif line.startswith(EXPECT):
                expect = json.loads(line[len(EXPECT):])
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                report.append(line)
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or phases is None or (result is None and not setup_only):
        raise RunFailed(f"worker exited with code {code} ({' '.join(command[1:])})")
    return setup_s, phases, expect, result, report


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def catalogue(spec: dict):
    """(end-to-end, per-layer) metric units by name."""
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def pool_results(results: list) -> dict:
    """End-to-end metrics over the ops of every measuring worker."""
    times = [t for result in results for t in result["times"]]
    return {
        "throughput": median([rate for result in results for rate in result["rates"]]),
        "latency_ms": 1000.0 * median(times),
        "latency_tail_ms": 1000.0 * p90(times),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups, phases, results = [], [], []
    known, report = [], []
    spent = 0.0
    try:
        for index in range(PROCESSES):
            measures = not args.trace or index == PROCESSES - 1
            if args.trace:
                seconds = args.seconds
            else:
                # Whole cycles overshoot a worker's share; the next one
                # measures that much less.  Every worker runs one cycle.
                seconds = max(args.seconds * (index + 1) / PROCESSES - spent, 1e-9)
            setup_s, phase, known, result, report = start_worker(
                args, seconds, not measures, known, deadline
            )
            setups.append(setup_s)
            phases.append(phase)
            if measures:
                results.append(result)
                spent += result.get("spent", 0.0)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    end_to_end, per_layer = catalogue(spec)
    if args.trace:
        measured = dict(results[0]["metrics"])
        for phase in ("import_s", "inputs_s", "warmup_s"):
            measured[f"{args.workload}.setup.{phase}"] = statistics.median(
                p[phase] for p in phases
            )
        wanted = per_layer
    else:
        measured = pool_results(results)
        measured["setup_s"] = statistics.median(setups)
        wanted = end_to_end
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        print(f"benchmark failed: metrics missing from BENCHMARK.json: {unknown}",
              file=sys.stderr)
        return 1
    # A layer this workload does not exercise, or whose decision record
    # the program no longer keeps, reads 0 and is listed here.
    absent = sorted(name for name in measured if measured[name] is None)
    bypassed = sorted(name for name in wanted if name not in measured)
    metrics = {
        name: {"value": measured.get(name) or 0, "unit": unit}
        for name, unit in wanted.items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    sys.stdout.writelines(report)
    print("provenance: " + json.dumps(provenance(args.seed, bool(args.trace))))
    print(f"setup_s per process: {[round(s, 4) for s in setups]}")
    print(f"ops: {attempted} attempted over {len(results)} process(es), {failed} failed")
    for result in results:
        for error in result["errors"]:
            print(f"failed op: {error}")
    if args.trace:
        print(f"absent (record not kept by the program): {absent}")
        print(f"not exercised by {args.workload} (reported as 0): {len(bypassed)} metrics")
    print("The model is not validated against silicon; its error against the "
          "paper's figures is covered by benchmarks/test_bench_*.py.")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
