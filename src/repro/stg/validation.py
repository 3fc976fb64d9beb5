"""STG well-formedness checks.

Before synthesis, the flow checks that a specification is *implementable*:

* **Boundedness / safeness** of the underlying net.
* **Consistency**: along every firing sequence the transitions of each
  signal strictly alternate between rising and falling, and match the
  declared initial value.
* **Output persistency**: an enabled output (non-input) transition is never
  disabled by the firing of another transition; a violation means the
  implementation would exhibit a hazard even under the speed-independent
  delay model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.petrinet.net import PetriNet
from repro.petrinet.properties import max_bound
from repro.petrinet.reachability import (
    ReachabilityGraph,
    UnboundedNetError,
)
from repro.stg.model import SignalKind, SignalTransitionGraph

# The safeness/deadlock battery and the persistency scan read the same
# full marking graph; resolving it through the analysis manager means one
# enumeration per net, shared between the checks here and repeated
# validations.  The conformance spec index shares it only when its caller
# passes the cached graph as ``spec_graph``.
_VALIDATION_MAX_STATES = 200_000


def _full_graph(net: PetriNet) -> ReachabilityGraph:
    from repro import analysis

    return analysis.get(
        net, "reachability-full", max_states=_VALIDATION_MAX_STATES, bound=None
    )


@dataclass
class ValidationReport:
    """Result of validating an STG specification."""

    bounded: bool = True
    safe: bool = True
    consistent: bool = True
    output_persistent: bool = True
    deadlock_free: bool = True
    consistency_violations: List[str] = field(default_factory=list)
    persistency_violations: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True if the STG passed every check."""
        return (
            self.bounded
            and self.safe
            and self.consistent
            and self.output_persistent
            and self.deadlock_free
            and not self.errors
        )

    def summary(self) -> str:
        flags = [
            ("bounded", self.bounded),
            ("safe", self.safe),
            ("consistent", self.consistent),
            ("output persistent", self.output_persistent),
            ("deadlock free", self.deadlock_free),
        ]
        parts = [f"{name}: {'yes' if value else 'NO'}" for name, value in flags]
        return "; ".join(parts)


def check_consistency(stg: SignalTransitionGraph) -> List[str]:
    """Return a list of consistency violations (empty when consistent).

    Explores the ``(marking, signal code)`` states of ``stg`` through the
    count-tuple core, skipping every transition that fires against the
    current value of its signal.  One violation is reported per such
    (state, transition) pair, in BFS discovery order of the states and
    net order of the transitions.  Raises :class:`UnboundedNetError` when
    more than ``_VALIDATION_MAX_STATES`` states are reachable.
    """
    from repro.engine.marking import NetEncoding
    from repro.stategraph.graph import code_relabel

    violations: List[str] = []

    def record(label, value: int) -> None:
        violations.append(f"transition {label} fires while {label.signal}={value}")

    initial_key, relabel = code_relabel(stg, sorted(stg.signals), record)
    cap_error = UnboundedNetError("state cap exceeded during validation")
    NetEncoding.for_net(stg.net).explore_counts(
        initial_key, _VALIDATION_MAX_STATES, None, cap_error, relabel=relabel
    )
    return violations


def check_output_persistency(stg: SignalTransitionGraph) -> List[str]:
    """Return persistency violations for output/internal signals.

    A violation is reported when a non-input signal transition is enabled in
    a state and becomes disabled after firing some other transition without
    having fired itself.  Read off the full marking graph: a marking's
    out-edges are its enabled transitions, and the victim stays enabled iff
    the aggressor's successor has a victim edge too.
    """
    violations: List[str] = []
    seen_pairs: Set[Tuple[str, str]] = set()

    try:
        graph = _full_graph(stg.net)
    except UnboundedNetError:
        return ["net is unbounded; persistency not checked"]

    edges = graph.edges
    for marking in graph.markings:
        enabled = graph.enabled(marking)
        for victim in enabled:
            victim_label = stg.label_of(victim)
            if victim_label is None:
                continue
            if stg.signal_kind(victim_label.signal) is SignalKind.INPUT:
                continue
            for aggressor in enabled:
                if aggressor == victim:
                    continue
                aggressor_label = stg.label_of(aggressor)
                # Two transitions of the same signal competing is a choice,
                # not a persistency violation.
                if (
                    aggressor_label is not None
                    and aggressor_label.signal == victim_label.signal
                ):
                    continue
                if (edges[(marking, aggressor)], victim) not in edges:
                    key = (str(victim_label), str(aggressor_label))
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        violations.append(
                            f"{victim_label} disabled by firing "
                            f"{aggressor_label if aggressor_label else aggressor}"
                        )
    return violations


def validate_stg(stg: SignalTransitionGraph) -> ValidationReport:
    """Run the full battery of checks and return a :class:`ValidationReport`."""
    report = ValidationReport()
    net = stg.net

    if not stg.signals:
        report.errors.append("STG declares no signals")

    try:
        graph = _full_graph(net)
    except UnboundedNetError as exc:
        report.bounded = False
        report.safe = False
        report.errors.append(str(exc))
        return report

    report.safe = max_bound(net, graph) <= 1

    report.deadlock_free = not graph.deadlocks()

    try:
        report.consistency_violations = check_consistency(stg)
    except UnboundedNetError as exc:
        report.errors.append(str(exc))
        report.consistency_violations = ["unbounded during consistency check"]
    report.consistent = not report.consistency_violations

    report.persistency_violations = check_output_persistency(stg)
    report.output_persistent = not report.persistency_violations
    return report
