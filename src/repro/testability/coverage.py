"""Stuck-at coverage reporting.

:func:`stuck_at_coverage` drives a full campaign through the batch fault
simulation engine -- the fork-at-first-touch sweep of
:mod:`repro.engine.faultsim` (see :mod:`repro.testability.simulation`)
-- and folds the per-fault verdicts into the coverage percentages of
the paper's Table 2.  Every knob of :func:`~repro.testability.simulation.simulate_faults`
is forwarded -- in particular the campaign ``seed``, so coverage numbers
are reproducible under caller-chosen seeds, and the ``shards`` /
``use_processes`` pool knobs for large campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Netlist
from repro.circuit.simulator import HandshakeRule
from repro.testability.faults import StuckAtFault
from repro.testability.simulation import simulate_faults


@dataclass
class CoverageReport:
    """Summary of a fault-simulation campaign."""

    circuit: str
    total_faults: int
    detected_faults: int
    undetected: List[StuckAtFault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Fraction of faults detected (0..1)."""
        if self.total_faults == 0:
            return 1.0
        return self.detected_faults / self.total_faults

    @property
    def coverage_percent(self) -> float:
        return 100.0 * self.coverage

    def describe(self) -> str:
        lines = [
            f"{self.circuit}: {self.detected_faults}/{self.total_faults} stuck-at "
            f"faults detected ({self.coverage_percent:.1f}%)"
        ]
        for fault in self.undetected[:10]:
            lines.append(f"  undetected: {fault}")
        if len(self.undetected) > 10:
            lines.append(f"  ... and {len(self.undetected) - 10} more")
        return "\n".join(lines)


def stuck_at_coverage(
    netlist: Netlist,
    environment_rules: Sequence[HandshakeRule],
    initial_stimuli: Sequence[Tuple[str, int, float]],
    observables: Optional[Sequence[str]] = None,
    duration_ps: float = 30_000.0,
    faults: Optional[Iterable[StuckAtFault]] = None,
    seed: int = 7,
    delay_jitter: float = 0.0,
    environment_jitter: float = 0.0,
    shards: Optional[int] = None,
    use_processes: Optional[bool] = None,
    collapse: bool = True,
) -> CoverageReport:
    """Run fault simulation and return the coverage report.

    Every knob of :func:`~repro.testability.simulation.simulate_faults`
    is forwarded verbatim:

    * ``seed`` -- campaign seed; coverage numbers are reproducible
      under caller-chosen seeds, and under jitter it seeds each fault
      copy's simulator/environment RNG streams.
    * ``delay_jitter`` / ``environment_jitter`` -- randomise gate
      delays and handshake-rule response times uniformly in
      ``[nominal * (1 - j), nominal * (1 + j)]``.  Jittered campaigns
      run on the batch engine and stay bit-identical to the per-fault
      reference loop, so jittered coverage percentages are exact, not
      sampled approximations of a different estimator.
    * ``shards`` / ``use_processes`` -- worker-pool knobs for large
      campaigns (auto mode keeps small campaigns and single-CPU hosts
      in-process; see :func:`repro.engine.pool.decide`).
    * ``collapse`` -- consult the static fault-collapsing analysis
      before sweeping (the default); verdicts and coverage are
      bit-identical either way, the knob only trades static analysis
      for simulated copies.
    """
    results = simulate_faults(
        netlist,
        environment_rules,
        initial_stimuli,
        faults=faults,
        observables=observables,
        duration_ps=duration_ps,
        seed=seed,
        delay_jitter=delay_jitter,
        environment_jitter=environment_jitter,
        shards=shards,
        use_processes=use_processes,
        collapse=collapse,
    )
    detected = [r for r in results if r.detected]
    undetected = [r.fault for r in results if not r.detected]
    return CoverageReport(
        circuit=netlist.name,
        total_faults=len(results),
        detected_faults=len(detected),
        undetected=undetected,
    )
