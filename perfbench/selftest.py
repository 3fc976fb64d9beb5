"""Self-test: a corrupted op output is counted as failed, a true one is not.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/selftest.py [decode sim faults service]

For each op-driven workload it runs one full cycle of the real
measurement loop as is, where no op may fail.  It then runs the same ops
through the loop's per-op step with every output altered after the op
returns: every op must fail and be credited no work.  On ``faults`` a
second alteration flips a single verdict; every jitter-free op, whose
verdicts are all compared with the reference campaign, must then fail.
For ``service`` it runs a short load phase against a real server, alters
one response, and checks that only that response is marked failed.
Exits non-zero on the first surprise.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

from worker import measure, run_op


class Corrupting:
    """A workload whose op outputs are altered before they are checked."""

    def __init__(self, workload, corrupt) -> None:
        self._workload = workload
        self._corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def run(self, spec):
        return self._corrupt(self._workload, spec, self._workload.run(spec))


def _decode(_workload, _spec, result):
    result.issue_times_ps[-1] += 1.0
    return result


def _sim(_workload, _spec, metrics):
    return dataclasses.replace(metrics, cycle_time_ps=metrics.cycle_time_ps + 1e-9)


def _faults(workload, spec, report):
    # Every fault reported undetected: the sampled verdicts disagree.
    faults = list(workload.faults[spec[0]])
    return dataclasses.replace(report, detected_faults=0, undetected=faults)


def _faults_one(workload, spec, report):
    # One verdict flipped: the first detected fault reported undetected.
    undetected = {(fault.net, fault.value) for fault in report.undetected}
    first = next(f for f in workload.faults[spec[0]] if (f.net, f.value) not in undetected)
    return dataclasses.replace(
        report,
        detected_faults=report.detected_faults - 1,
        undetected=list(report.undetected) + [first],
    )


def _always(_spec) -> bool:
    return True


def _jitter_free(spec) -> bool:
    return not spec[1]


#: Per workload: (what is altered, how, which ops must then fail).
CORRUPT = {
    "decode": [("last issue time", _decode, _always)],
    "sim": [("cycle time", _sim, _always)],
    "faults": [
        ("every verdict", _faults, _always),
        # Jittered ops check a sample of verdicts, which may miss one flip.
        ("one verdict", _faults_one, _jitter_free),
    ],
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def check_op_workload(name: str) -> None:
    workload = importlib.import_module(f"wl_{name}").Workload(seed=1)
    try:
        honest = measure(workload, 1e-9, traced=False)
        expect(honest["failed"] == 0 and honest["attempted"] == workload.CYCLE,
               f"{name}: {honest['attempted']} true ops, none failed")
        for what, corrupt, must_fail in CORRUPT[name]:
            broken = Corrupting(workload, corrupt)
            specs = [workload.spec(index) for index in range(workload.CYCLE)]
            outcomes = [run_op(broken, spec, None) for spec in specs]
            missed = [spec for spec, (_t, work, error) in zip(specs, outcomes)
                      if must_fail(spec) and (error is None or work)]
            expect(not missed and any(must_fail(spec) for spec in specs),
                   f"{name}: {what} altered, all "
                   f"{sum(map(must_fail, specs))} ops that must fail counted as "
                   f"failed, no work credited")
    finally:
        workload.close()


def check_service() -> None:
    module = importlib.import_module("wl_service")
    workload = module.Workload(seed=1)
    try:
        phase = workload.loop.run_until_complete(workload._phase(0.5, None))
        records = phase["records"]
        records[0]["payload"] = dict(records[0]["payload"], corrupted=True)
        correct = workload._check(phase)
        failed = [r for r in records if r["error"] is not None]
        expect(correct == len(records) - 1 and failed == records[:1],
               f"service: 1 corrupted response of {len(records)} counted as failed")
    finally:
        workload.close()


def main(argv) -> int:
    names = argv or ["decode", "sim", "faults", "service"]
    for name in names:
        check_service() if name == "service" else check_op_workload(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
