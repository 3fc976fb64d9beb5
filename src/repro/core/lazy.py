"""Lazy state graphs: concurrency reduction and early enabling.

Relative timing optimizes circuits through two mechanisms (Section 3 of the
paper):

1. **Concurrency reduction.**  An assumption ``a before b`` removes, from
   every state in which both events are enabled, the interleaving that fires
   ``b`` first.  States that become unreachable enlarge the don't-care set
   for *all* signals.

2. **Early (lazy) enabling.**  A signal may be allowed to become enabled in
   states where the untimed specification keeps it stable, provided the
   other transitions enabled in those states are faster (so the lazy signal
   never actually wins the race).  This adds *local* don't cares that differ
   from signal to signal.

Both are represented by :class:`LazyStateGraph`, which wraps the reduced
state graph, per-signal local don't-care codes, and a record of which
assumption produced each change (used later by back-annotation).  The
reduction itself is :func:`~repro.stategraph.graph.reduce_concurrency`,
the one implementation timing-aware state encoding uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.assumptions import (
    AssumptionSet,
    RelativeTimingAssumption,
)
from repro.stg.model import Direction, SignalTransition
from repro.stategraph.graph import (
    State,
    StateGraph,
    reduce_concurrency,
    transition_event,
)


@dataclass
class RemovedEdge:
    """An interleaving removed by concurrency reduction."""

    state: State
    transition: str
    event: SignalTransition
    assumption: RelativeTimingAssumption


@dataclass
class EarlyEnabling:
    """A local don't-care added for a lazy signal in a specific state."""

    state: State
    signal: str
    direction: Direction
    trigger: SignalTransition
    assumption: RelativeTimingAssumption


@dataclass
class LazyStateGraph:
    """The result of applying relative-timing assumptions to a state graph."""

    original: StateGraph
    reduced: StateGraph
    assumptions: AssumptionSet
    removed_edges: List[RemovedEdge] = field(default_factory=list)
    early_enablings: List[EarlyEnabling] = field(default_factory=list)

    def local_dont_cares(self, signal: str) -> Set[Tuple[int, ...]]:
        """Codes that are local don't cares for ``signal`` due to early enabling."""
        return {
            enabling.state.code
            for enabling in self.early_enablings
            if enabling.signal == signal
        }

    def statistics(self) -> Dict[str, int]:
        return {
            "original_states": len(self.original.states),
            "reduced_states": len(self.reduced.states),
            "removed_edges": len(self.removed_edges),
            "early_enablings": len(self.early_enablings),
        }


def apply_assumptions(
    graph: StateGraph,
    assumptions: AssumptionSet,
    enable_lazy: bool = True,
) -> LazyStateGraph:
    """Apply relative timing assumptions to ``graph``.

    Concurrency reduction is applied for every assumption whose two events
    can be simultaneously enabled.  Early enabling is derived for non-input
    signals whose excitation is triggered by the ``before`` event of an
    assumption: in the state immediately preceding that trigger the signal
    becomes a local don't care.
    """
    orderings = {(a.before, a.after): a for a in assumptions}
    reduced, cut = reduce_concurrency(graph, orderings)
    removed = [
        RemovedEdge(state, transition, ordering[1], orderings[ordering])
        for (state, transition), ordering in cut.items()
    ]

    lazy = LazyStateGraph(
        original=graph,
        reduced=reduced,
        assumptions=assumptions,
        removed_edges=removed,
    )

    if enable_lazy:
        lazy.early_enablings = _derive_early_enablings(reduced, assumptions)
    return lazy


def _derive_early_enablings(
    graph: StateGraph, assumptions: AssumptionSet
) -> List[EarlyEnabling]:
    """Find states where a non-input signal may be enabled early.

    For an assumption ``t before s_dir`` where ``s`` is a non-input signal:
    in any state where ``t`` is enabled and ``s`` is *not yet* excited but
    becomes excited (towards ``dir``) after ``t`` fires, the logic of ``s``
    may already switch in that state -- the race is won by ``t`` by
    assumption.  The state becomes a local don't care for ``s``.
    """
    stg = graph.stg
    non_inputs = set(stg.non_input_signals)
    enablings: List[EarlyEnabling] = []
    for assumption in assumptions:
        before, after = assumption.before, assumption.after
        if after.signal not in non_inputs:
            continue
        for state in graph.states:
            if graph.is_excited(state, after.signal) is not None:
                continue  # already excited; nothing to anticipate
            for transition, target in graph.successors(state):
                event = transition_event(graph.stg, transition)
                if event != before:
                    continue
                if graph.is_excited(target, after.signal) is after.direction:
                    enablings.append(
                        EarlyEnabling(
                            state=state,
                            signal=after.signal,
                            direction=after.direction,
                            trigger=before,
                            assumption=assumption,
                        )
                    )
    return enablings


def early_enable_candidates(graph: StateGraph) -> List[Tuple[SignalTransition, SignalTransition]]:
    """Orderings that would unlock early enabling of non-input signals.

    For every non-input signal transition ``s_dir`` triggered by an event
    ``t`` (i.e. ``t`` is the last event making ``s`` excited), the ordering
    ``t before s_dir`` is a candidate assumption.  The automatic generator
    filters these by its delay-model rules.
    """
    stg = graph.stg
    non_inputs = set(stg.non_input_signals)
    candidates: Set[Tuple[SignalTransition, SignalTransition]] = set()
    for state in graph.states:
        for transition, target in graph.successors(state):
            trigger = transition_event(graph.stg, transition)
            if trigger is None:
                continue
            for signal in non_inputs:
                if trigger.signal == signal:
                    continue
                before_excited = graph.is_excited(state, signal)
                after_excited = graph.is_excited(target, signal)
                if before_excited is None and after_excited is not None:
                    lazy_event = SignalTransition(signal, after_excited)
                    candidates.add((trigger, lazy_event))
    return sorted(candidates, key=lambda pair: (str(pair[0]), str(pair[1])))
