"""One benchmark process: set up a workload, then measure it.

Started by ``run.py``; not meant to be run by hand.  Reads on standard
input the oracle outcomes an earlier process of the same run computed
(JSON, possibly empty), prints ``@ready {...}`` once set-up is done (the
parent times process start to this line as ``setup_s``), then -- unless
``--setup-only`` -- runs the closed-loop measurement, prints
``@expect [...]`` with the oracle outcomes it now knows and
``@result {...}``.  Any other line is a human-readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

from common import EXPECT, READY, RESULT, Mismatch, provenance
from tracing import Tracer

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, spec, tracer):
    """Time one op; check it outside the timed region.

    Returns ``(seconds, work, error)``: ``work`` is the oracle-confirmed
    work done (0 when the op failed) and ``error`` a message or None.
    """
    started = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(spec)
        else:
            with tracer.span(f"{workload.NAME}.op"):
                output = workload.run_traced(spec, tracer)
    except Exception as exc:  # an op that raises counts as failed
        return time.perf_counter() - started, 0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    try:
        if tracer is not None and hasattr(workload, "after_traced_op"):
            workload.after_traced_op(tracer)
        return elapsed, workload.check(spec, output), None
    except Mismatch as exc:
        return elapsed, 0, str(exc)
    except Exception as exc:  # a malformed output is a wrong output
        return elapsed, 0, f"check: {type(exc).__name__}: {exc}"


def measure(workload, seconds: float, traced: bool) -> dict:
    """Closed loop over whole cycles of the workload's op schedule.

    Whole cycles keep the op mix identical from run to run, and each
    cycle's work per second is one throughput sample.  Untraced, the loop
    stops once ``seconds`` of op time are measured.  Traced, it
    alternates untraced and traced cycles until each mode has half of
    ``seconds``; the traced cycles give the per-layer figures and the
    ratio of the two modes' throughputs the tracing overhead.
    """
    tracer = Tracer() if traced else None
    modes = (False, True) if traced else (False,)
    budget = seconds / len(modes)
    spent = {mode: 0.0 for mode in modes}
    times = {mode: [] for mode in modes}
    work = {mode: 0 for mode in modes}
    rates = []  # work per second of each untraced cycle
    errors = []
    index = cycle = 0
    while any(spent[mode] < budget for mode in modes):
        mode = modes[cycle % len(modes)]
        cycle += 1
        if spent[mode] >= budget:
            continue
        cycle_work = cycle_spent = 0.0
        for _ in range(workload.CYCLE):
            if mode:
                tracer.op = index
            elapsed, done, error = run_op(
                workload, workload.spec(index), tracer if mode else None
            )
            index += 1
            times[mode].append(elapsed)
            cycle_spent += elapsed
            cycle_work += done
            if error is not None:
                errors.append(error)
        spent[mode] += cycle_spent
        work[mode] += cycle_work
        if not mode:
            rates.append(cycle_work / cycle_spent)
    result = {"attempted": index, "failed": len(errors), "errors": errors[:5]}
    if not traced:
        result.update(
            times=times[False], rates=rates, spent=spent[False], peak_rss_mb=peak_rss_mb()
        )
        return result
    throughput = {mode: work[mode] / spent[mode] for mode in modes}
    layer = workload.layer_metrics(tracer)
    name = workload.NAME
    layer[f"{name}.trace.overhead"] = throughput[True] / throughput[False] - 1.0
    layer[f"{name}.trace.uncovered_share"] = tracer.uncovered_share(f"{name}.op")
    result["metrics"] = layer
    result["self_time_ms"] = tracer.self_times_ms()
    result["spans"] = tracer.spans
    return result


def write_spans(name: str, seed: int, result: dict) -> str:
    """Write the traced run's spans and self times; return the file path."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "provenance": provenance(seed, traced=True),
                "self_time_ms": result.pop("self_time_ms"),
                "spans": result.pop("spans"),
            },
            handle,
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    known = json.loads(sys.stdin.read() or "[]")

    started = time.perf_counter()
    module = importlib.import_module(f"wl_{args.workload}")
    imported = time.perf_counter()
    workload = module.Workload(args.seed)
    built = time.perf_counter()
    try:
        workload.warmup()
        ready = time.perf_counter()
        phases = {
            "import_s": imported - started,
            "inputs_s": built - imported,
            "warmup_s": ready - built,
        }
        print(READY + json.dumps(phases), flush=True)
        if args.setup_only:
            return 0
        expected = getattr(workload, "expected", {})
        expected.update((tuple(spec), value) for spec, value in known)
        if hasattr(workload, "measure"):
            result = workload.measure(args.seconds, bool(args.trace))
        else:
            result = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    for line in workload.model_lines():
        print(line)
    if args.trace:
        path = write_spans(workload.NAME, args.seed, result)
        print(f"{workload.NAME}: spans written to {os.path.relpath(path)}")
    print(EXPECT + json.dumps([[list(spec), value] for spec, value in expected.items()]))
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
