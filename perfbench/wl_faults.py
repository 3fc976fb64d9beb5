"""``faults`` workload: stuck-at coverage campaigns on RT FIFO chains.

One op runs ``stuck_at_coverage`` on ``fifo_rt_chain:N`` at 30 ns with a
fresh campaign seed.  A cycle of twenty ops runs six 4-stage, eleven
8-stage and three 16-stage campaigns (a 16-stage campaign takes about
five times an 8-stage one, so few of them keep a run above 100 ops);
one op in four is jittered, which turns off fault collapsing and
trajectory extrapolation.  The median op then falls well inside the
8-stage class and p90 among the deterministic 16-stage campaigns, with
the jittered 16-stage one above it.  The pool policy is left at its
default (auto).  The analysis passes, the
fault-simulation leader pass and drain, and pool dispatch do the work.

Correctness: every op's fault count is checked against
``enumerate_faults``.  A jitter-free campaign's verdicts do not depend on
its seed -- the seed only drives jitter draws -- so every verdict of a
jitter-free op is compared with one full ``_reference_simulate_faults``
campaign per chain length, computed once per run and handed on to the
run's later processes.  A jittered campaign's verdicts change with its
seed, and a whole reference campaign on 16 stages takes several seconds,
so for jittered ops the oracle checks a seeded sample: the first
undetected fault, plus one drawn at random.
"""

from __future__ import annotations

import random

from repro import analysis
from repro.engine import pool
from repro.engine.faultsim import FaultSimEngine
from repro.testability import stuck_at_coverage
from repro.testability.coverage import CoverageReport
from repro.testability.faults import enumerate_faults
from repro.testability.simulation import _reference_simulate_faults

from circuits import fifo_chains
from common import Mismatch, median

DURATION_PS = 30_000.0
#: ``simulate_faults``' event cap.
MAX_EVENTS = 500_000
DELAY_JITTER = 0.10
ENVIRONMENT_JITTER = 0.25
#: One cycle of (stages, jittered) campaigns.
MIX = (
    (4, True), (8, False), (16, False), (8, False), (4, False),
    (8, True), (8, False), (4, False), (16, False), (8, False),
    (4, True), (8, False), (8, False), (16, True), (4, False),
    (8, True), (8, False), (4, False), (8, False), (8, False),
)
#: Random verdicts per jittered op checked against the reference loop.
SAMPLE = 1


def _plain(record):
    """A decision record as a plain dict, or None once it is removed."""
    if record is None:
        return None
    snapshot = getattr(record, "snapshot", None)
    return snapshot() if snapshot else dict(record)


class Workload:
    NAME = "faults"
    #: Ops per full pass over the input mix.
    CYCLE = len(MIX)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.chains = fifo_chains()
        self.faults = {n: enumerate_faults(chain[0]) for n, chain in self.chains.items()}
        self._coverage: dict = {}
        #: Undetected fault indices of the jitter-free reference campaign
        #: by ``(stages,)``; JSON-able, so later processes reuse them.
        self.expected: dict = {}
        self._pending = None
        self.layer: dict = {
            "hits": [],
            "misses": [],
            "faults": [],
            "simulated": [],
            "pooled": [],
            "retries": [],
            "respawns": [],
            "overhead_ms": [],
        }
        self.absent: set = set()

    def spec(self, index: int):
        """(stages, jittered, campaign seed)."""
        return MIX[index % len(MIX)] + (self.seed * 100_000 + index,)

    @staticmethod
    def _jitter(jittered: bool):
        return (DELAY_JITTER, ENVIRONMENT_JITTER) if jittered else (0.0, 0.0)

    def run(self, spec):
        stages, jittered, seed = spec
        netlist, rules, stimuli = self.chains[stages]
        delay_jitter, environment_jitter = self._jitter(jittered)
        return stuck_at_coverage(
            netlist,
            rules,
            stimuli,
            duration_ps=DURATION_PS,
            seed=seed,
            delay_jitter=delay_jitter,
            environment_jitter=environment_jitter,
        )

    def run_traced(self, spec, tracer):
        """``stuck_at_coverage`` split at its analysis and engine calls."""
        stages, jittered, seed = spec
        netlist, rules, stimuli = self.chains[stages]
        delay_jitter, environment_jitter = self._jitter(jittered)
        before = analysis.stats()
        params = analysis.campaign_params(
            rules, stimuli, None, DURATION_PS, MAX_EVENTS, seed,
            delay_jitter, environment_jitter,
        )
        with tracer.span("faults.analysis.compile"):
            analysis.get(netlist, "compile")
        with tracer.span("faults.analysis.golden"):
            signature = analysis.get(netlist, "golden-signature", **params)
        if not jittered:
            # The engine collapses deterministic campaigns only.
            with tracer.span("faults.analysis.collapse"):
                analysis.get(
                    netlist,
                    "collapse",
                    rules=params["rules"],
                    stimuli=params["stimuli"],
                    observables=params["observables"],
                    max_events=params["max_events"],
                    golden_events=signature["events"],
                )
        faults = self.faults[stages]
        engine = FaultSimEngine(
            netlist,
            rules,
            stimuli,
            duration_ps=DURATION_PS,
            max_events=MAX_EVENTS,
            seed=seed,
            delay_jitter=delay_jitter,
            environment_jitter=environment_jitter,
        )
        with tracer.span("faults.engine.sweep"):
            verdicts = engine.run(faults)
        self._record(engine, before)
        self._pending = (engine, faults, verdicts)
        undetected = [f for f, (detected, _) in zip(faults, verdicts) if not detected]
        return CoverageReport(
            circuit=netlist.name,
            total_faults=len(faults),
            detected_faults=len(faults) - len(undetected),
            undetected=undetected,
        )

    def _record(self, engine, before) -> None:
        after = analysis.stats()
        self.layer["hits"].append(after["hits"] - before["hits"])
        self.layer["misses"].append(after["misses"] - before["misses"])
        collapse = getattr(engine, "last_collapse", None)
        if collapse is not None:
            self.layer["faults"].append(collapse["faults"])
            self.layer["simulated"].append(collapse["simulated"])
        decision = _plain(getattr(pool, "LAST_DECISION", None))
        if decision is None:
            self.absent.update(
                ("faults.engine.pooled_ops", "faults.engine.retries", "faults.engine.respawns")
            )
            return
        pooled = bool(decision.get("use_pool"))
        self.layer["pooled"].append(int(pooled))
        health = decision.get("pool_health") if pooled else None
        if pooled and health is None:
            self.absent.update(("faults.engine.retries", "faults.engine.respawns"))
        elif health is not None:
            self.layer["retries"].append(health.get("retries", 0))
            self.layer["respawns"].append(health.get("respawns", 0))

    def after_traced_op(self, tracer) -> None:
        """The same sweep forced in-process, outside the op's span."""
        engine, faults, verdicts = self._pending
        self._pending = None
        try:
            with tracer.span("faults.engine.sweep_inprocess"):
                inprocess = engine.run(faults, use_processes=False)
        finally:
            engine.close()
        if inprocess != verdicts:
            raise Mismatch("faults: in-process sweep disagrees with the auto sweep")
        sweep = tracer.durations_ms("faults.engine.sweep")[-1]
        alone = tracer.durations_ms("faults.engine.sweep_inprocess")[-1]
        self.layer["overhead_ms"].append(sweep - alone)

    def _reference(self, stages: int, jittered: bool, seed: int, faults: list):
        delay_jitter, environment_jitter = self._jitter(jittered)
        netlist, rules, stimuli = self.chains[stages]
        return _reference_simulate_faults(
            netlist,
            rules,
            stimuli,
            faults=faults,
            duration_ps=DURATION_PS,
            seed=seed,
            delay_jitter=delay_jitter,
            environment_jitter=environment_jitter,
        )

    def _undetected_jitter_free(self, stages: int, seed: int) -> set:
        """Undetected faults of the full jitter-free reference campaign."""
        faults = self.faults[stages]
        if (stages,) not in self.expected:
            reference = self._reference(stages, False, seed, faults)
            self.expected[(stages,)] = [
                index for index, result in enumerate(reference) if not result.detected
            ]
        return {(faults[i].net, faults[i].value) for i in self.expected[(stages,)]}

    def check(self, spec, report) -> int:
        """Faults classified, or raise :class:`Mismatch`."""
        stages, jittered, seed = spec
        faults = self.faults[stages]
        if report.total_faults != len(faults):
            raise Mismatch(f"faults {spec}: {report.total_faults} faults, expected {len(faults)}")
        if report.detected_faults + len(report.undetected) != report.total_faults:
            raise Mismatch(f"faults {spec}: detected + undetected != total")
        undetected = {(fault.net, fault.value) for fault in report.undetected}
        if not jittered:
            expected = self._undetected_jitter_free(stages, seed)
            if undetected != expected:
                raise Mismatch(
                    f"faults {spec}: undetected {sorted(undetected ^ expected)} "
                    "differ from _reference_simulate_faults"
                )
        else:
            sample = [f for f in faults if (f.net, f.value) in undetected][:1]
            sample += random.Random(seed).sample(faults, SAMPLE)
            for result in self._reference(stages, jittered, seed, sample):
                if result.detected == ((result.fault.net, result.fault.value) in undetected):
                    raise Mismatch(
                        f"faults {spec}: {result.fault} verdict differs from "
                        f"_reference_simulate_faults ({result.reason})"
                    )
        self._coverage.setdefault((stages, jittered), (seed, report))
        return report.total_faults

    def model_lines(self) -> list:
        """Coverage of the first campaign of each kind."""
        return [
            f"faults model: fifo_rt_chain:{stages} jitter={int(jittered)} seed={seed} "
            f"coverage={report.coverage!r} ({report.detected_faults}/{report.total_faults})"
            for (stages, jittered), (seed, report) in sorted(self._coverage.items())
        ]

    def warmup(self) -> None:
        # The first pooled campaign spawns the worker pool, and the first
        # campaign on each chain compiles it and plans its collapse.  The
        # seed is outside the measured ops' range, so no op finds its
        # golden run cached.
        for stages in self.chains:
            self.run((stages, False, self.seed * 100_000 - 1))

    def layer_metrics(self, tracer) -> dict:
        layer = self.layer
        faults = sum(layer["faults"])
        metrics = {
            "faults.analysis.compile.ms": tracer.median_ms("faults.analysis.compile"),
            "faults.analysis.golden.ms": tracer.median_ms("faults.analysis.golden"),
            "faults.analysis.collapse.ms": tracer.median_ms("faults.analysis.collapse"),
            "faults.analysis.hits": median(layer["hits"]),
            "faults.analysis.misses": median(layer["misses"]),
            "faults.engine.sweep.ms": tracer.median_ms("faults.engine.sweep"),
            "faults.engine.sweep_inprocess.ms": tracer.median_ms(
                "faults.engine.sweep_inprocess"
            ),
            "faults.engine.pool.overhead_ms": median(layer["overhead_ms"]),
            "faults.engine.faults": median(layer["faults"]),
            "faults.engine.simulated": median(layer["simulated"]),
            "faults.engine.simulated_ratio": (
                sum(layer["simulated"]) / faults if faults else None
            ),
            "faults.engine.pooled_ops": (
                sum(layer["pooled"]) / len(layer["pooled"]) if layer["pooled"] else None
            ),
            "faults.engine.retries": sum(layer["retries"]),
            "faults.engine.respawns": sum(layer["respawns"]),
        }
        for name in self.absent:
            metrics[name] = None
        return metrics

    def close(self) -> None:
        pool.shutdown()
