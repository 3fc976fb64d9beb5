"""State encoding: USC/CSC analysis and state-signal insertion.

Complete State Coding (CSC) is the requirement that any two reachable
states sharing the same binary code imply the same next value for every
non-input signal.  Without CSC, no hazard-free logic exists for the
conflicting signal.  The encoding step repairs violations by inserting an
internal *state signal* (the ``x`` of Figure 5 in the paper) whose value
distinguishes the conflicting states.

Insertion is performed on the STG by *splitting causal arcs*: a candidate
pair of arcs ``e1 -> f1`` and ``e2 -> f2`` (with non-input successors) is
rewired to ``e1 -> x+ -> f1`` and ``e2 -> x- -> f2``.  Candidates are
enumerated and validated by rebuilding the state graph; the first candidate
that removes all conflicts while keeping the STG consistent, safe and
deadlock-free wins.  Ties are broken in favour of insertions that add the
fewest states (i.e. lose the least concurrency), which is the
"timing-aware" preference of the paper: the state signal should stay off
the critical path.

Timing-aware encoding (``resolve_csc(timing_aware=True)``) checks the
conflicts of each candidate on its state graph concurrency-reduced under
the orderings the encoding relies on -- the same
:func:`~repro.stategraph.graph.reduce_concurrency` the Relative Timing
engine's lazy state graphs use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.stg.model import (
    Direction,
    SignalKind,
    SignalTransition,
    SignalTransitionGraph,
    StgError,
)
from repro.stategraph.graph import State, StateGraph, StateGraphError, build_state_graph, reduce_concurrency


@dataclass(frozen=True)
class CscConflict:
    """A pair of states with equal codes but different implied behaviour."""

    code: Tuple[int, ...]
    signal: str
    state_a: State
    state_b: State

    def __str__(self) -> str:
        bits = "".join(str(b) for b in self.code)
        return f"CSC conflict on {self.signal!r} at code {bits}"


@dataclass
class InsertionPoint:
    """Record of where a state-signal transition was inserted into the STG.

    The transition is *triggered* by the event ``after`` (a causal place is
    added from ``after`` to the new transition) and *acknowledged* by the
    events in ``before`` (causal places from the new transition to each of
    them), so its firing is observable on every concurrent branch.
    """

    signal: str
    direction: Direction
    after: str
    before: Tuple[str, ...]

    def __str__(self) -> str:
        acks = ", ".join(self.before)
        return (
            f"{self.signal}{self.direction.value} triggered by {self.after}, "
            f"acknowledged by {acks}"
        )


@dataclass
class EncodingResult:
    """Outcome of CSC resolution.

    ``implied_orderings`` is non-empty only for timing-aware encoding: each
    entry ``(before, after)`` is an ordering of a state-signal transition
    against an *input* transition that the encoding relies on instead of a
    structural acknowledgement arc (the circuit must win the race against the
    environment -- the paper's "x before ri" constraint).  The Relative
    Timing flow turns these into assumptions; an untimed flow cannot use a
    timing-aware encoding.
    """

    stg: SignalTransitionGraph
    inserted_signals: List[str] = field(default_factory=list)
    insertion_points: List[InsertionPoint] = field(default_factory=list)
    resolved: bool = True
    remaining_conflicts: List[CscConflict] = field(default_factory=list)
    implied_orderings: List[Tuple[SignalTransition, SignalTransition]] = field(
        default_factory=list
    )
    timing_aware: bool = False


def _code_clashes(graph: StateGraph) -> Iterator[Tuple[State, State]]:
    """Pairs of distinct states sharing a code, grouped by code in state order."""
    by_code: Dict[Tuple[int, ...], List[State]] = {}
    for state in graph.states:
        by_code.setdefault(state.code, []).append(state)
    for states in by_code.values():
        yield from itertools.combinations(states, 2)


def find_usc_conflicts(graph: StateGraph) -> List[Tuple[State, State]]:
    """Pairs of distinct states sharing the same binary code."""
    return list(_code_clashes(graph))


def find_csc_conflicts(graph: StateGraph, signals: Optional[Sequence[str]] = None) -> List[CscConflict]:
    """CSC conflicts for the given signals (default: all non-input signals)."""
    if signals is None:
        signals = graph.stg.non_input_signals
    return [
        CscConflict(a.code, signal, a, b)
        for a, b in _code_clashes(graph)
        for signal in signals
        if graph.next_value(a, signal) != graph.next_value(b, signal)
    ]


def has_csc(graph: StateGraph) -> bool:
    """True if the state graph satisfies Complete State Coding."""
    return not find_csc_conflicts(graph)


# ---------------------------------------------------------------------------
# State signal insertion
# ---------------------------------------------------------------------------

def _acknowledgement_targets(
    stg: SignalTransitionGraph, trigger: str, allow_inputs: bool = False
) -> Tuple[List[str], List[str]]:
    """Events that acknowledge a state transition triggered by ``trigger``.

    The inserted transition must be observed on every branch leaving the
    trigger, otherwise a race on some concurrent branch leaves its value
    ambiguous.  Returns ``(structural, timed)``:

    * ``structural`` -- non-input events that get a causal arc from the new
      transition.  When a branch reaches an input transition (which the
      circuit may not delay) the walk continues to the non-input events that
      follow it.
    * ``timed`` -- only populated when ``allow_inputs`` is true (timing-aware
      encoding): input transitions on branches leaving the trigger.  Instead
      of an arc, the caller records the ordering "state transition before
      this input" as an implied relative-timing assumption.
    """
    net = stg.net

    def successors(transition: str) -> List[str]:
        result: List[str] = []
        for place in net.postset(transition):
            result.extend(net.place_postset(place))
        return result

    structural: List[str] = []
    timed: List[str] = []
    seen: Set[str] = set()
    for successor in successors(trigger):
        frontier = [successor]
        depth = 0
        while frontier and depth < 4:
            next_frontier: List[str] = []
            for candidate in frontier:
                label = stg.label_of(candidate)
                is_input = (
                    label is not None
                    and stg.signal_kind(label.signal) is SignalKind.INPUT
                )
                if not is_input:
                    if candidate not in seen:
                        seen.add(candidate)
                        structural.append(candidate)
                elif allow_inputs:
                    if candidate not in seen:
                        seen.add(candidate)
                        timed.append(candidate)
                else:
                    next_frontier.extend(successors(candidate))
            frontier = next_frontier
            depth += 1
    return structural, timed


def _insert_state_transition(
    stg: SignalTransitionGraph,
    label: SignalTransition,
    trigger: str,
    acknowledgers: Sequence[str],
    already_fired: bool,
) -> Tuple[str, InsertionPoint]:
    """Add a state-signal transition triggered by ``trigger``.

    Adds ``trigger -> label`` and ``label -> ack`` causal places on top of the
    existing structure (no arcs are removed).  When ``already_fired`` is true
    -- the initial signal value says this direction fired most recently -- the
    acknowledgement places are initially marked so the first cycle does not
    deadlock waiting for a transition that will only fire later.
    """
    name = stg.add_transition(label, name=f"{label}^{trigger}")
    marking = stg.net.initial_marking.as_dict()
    stg.connect(trigger, name)
    for acknowledger in acknowledgers:
        ack_place = stg.connect(name, acknowledger)
        if already_fired:
            marking[ack_place] = 1
    stg.set_initial_marking(marking)
    point = InsertionPoint(
        signal=label.signal,
        direction=label.direction,
        after=trigger,
        before=tuple(acknowledgers),
    )
    return name, point


InsertionChoice = Tuple[str, str]
"""Either ``("insert", trigger_transition)`` or ``("relabel", silent_transition)``."""


def _apply_choice(
    candidate: SignalTransitionGraph,
    label: SignalTransition,
    choice: InsertionChoice,
    already_fired: bool,
    allow_inputs: bool,
) -> Tuple[str, InsertionPoint, List[str]]:
    """Realise one direction of the state signal according to ``choice``.

    Returns ``(transition_name, insertion_point, timed_acknowledgers)`` where
    ``timed_acknowledgers`` are input transitions the timing-aware mode relies
    on instead of structural arcs.
    """
    mode, transition = choice
    if mode == "relabel":
        existing = candidate.label_of(transition)
        if existing is not None:
            raise StgError(f"transition {transition!r} is not silent")
        candidate.relabel_transition(transition, label)
        net = candidate.net
        predecessors = tuple(
            producer
            for place in net.preset(transition)
            for producer in net.place_preset(place)
        )
        successors = tuple(
            consumer
            for place in net.postset(transition)
            for consumer in net.place_postset(place)
        )
        point = InsertionPoint(
            signal=label.signal,
            direction=label.direction,
            after=predecessors[0] if predecessors else "(initial)",
            before=successors,
        )
        return transition, point, []
    structural, timed = _acknowledgement_targets(
        candidate, transition, allow_inputs=allow_inputs
    )
    if not structural and not timed:
        raise StgError("insertion trigger has no acknowledgers")
    name, point = _insert_state_transition(
        candidate, label, transition, structural, already_fired
    )
    return name, point, timed


def _build_candidate(
    stg: SignalTransitionGraph,
    signal_name: str,
    rise_choice: InsertionChoice,
    fall_choice: InsertionChoice,
    initial_value: int,
    allow_inputs: bool = False,
) -> Tuple[
    SignalTransitionGraph,
    List[InsertionPoint],
    List[Tuple[SignalTransition, SignalTransition]],
]:
    """Construct a candidate STG with the state signal inserted.

    Returns the candidate, the insertion points, and the implied orderings
    (state-signal transition before input transition) that a timing-aware
    encoding relies upon.
    """
    candidate = stg.copy()
    candidate.declare_internal(signal_name, initial_value)
    rise_label = SignalTransition(signal_name, Direction.RISE)
    fall_label = SignalTransition(signal_name, Direction.FALL)
    rise_name, rise_point, rise_timed = _apply_choice(
        candidate, rise_label, rise_choice, already_fired=(initial_value == 1),
        allow_inputs=allow_inputs,
    )
    fall_name, fall_point, fall_timed = _apply_choice(
        candidate, fall_label, fall_choice, already_fired=(initial_value == 0),
        allow_inputs=allow_inputs,
    )

    # Alternation places between the two state-signal transitions guarantee
    # consistency (strict +/- alternation) by construction, without delaying
    # any other signal.
    marking = candidate.net.initial_marking.as_dict()
    rise_to_fall = candidate.connect(rise_name, fall_name)
    fall_to_rise = candidate.connect(fall_name, rise_name)
    if initial_value == 1:
        marking[rise_to_fall] = 1
    else:
        marking[fall_to_rise] = 1
    candidate.set_initial_marking(marking)

    implied: List[Tuple[SignalTransition, SignalTransition]] = []
    for ack in rise_timed:
        label = candidate.label_of(ack)
        if label is not None:
            implied.append((rise_label, SignalTransition(label.signal, label.direction)))
    for ack in fall_timed:
        label = candidate.label_of(ack)
        if label is not None:
            implied.append((fall_label, SignalTransition(label.signal, label.direction)))
    return candidate, [rise_point, fall_point], implied


def resolve_csc(
    stg: SignalTransitionGraph,
    signal_prefix: str = "x",
    max_signals: int = 3,
    max_states: int = 100_000,
    timing_aware: bool = False,
) -> EncodingResult:
    """Insert state signals until the specification satisfies CSC.

    With ``timing_aware=False`` (the untimed, speed-independent mode) every
    inserted transition is acknowledged by structural arcs only.  With
    ``timing_aware=True`` the inserted transition may instead race an input
    transition; the required ordering (state transition before that input) is
    returned in ``implied_orderings`` and the conflict check is performed on
    the state graph reduced under those orderings -- this is the paper's
    *timing-aware state encoding*, which keeps the state signal off the
    critical path at the price of a relative-timing constraint such as
    ``x+ before ri+``.

    Returns an :class:`EncodingResult`; ``resolved`` is ``False`` when the
    search exhausted its candidates without eliminating every conflict (the
    best attempt so far is still returned).
    """
    current = stg.copy()
    inserted: List[str] = []
    points: List[InsertionPoint] = []
    implied: List[Tuple[SignalTransition, SignalTransition]] = []

    def conflicts_of(graph: StateGraph, orderings) -> List[CscConflict]:
        if timing_aware:
            graph, _cut = reduce_concurrency(graph, orderings)
        return find_csc_conflicts(graph)

    for round_index in range(max_signals):
        graph = build_state_graph(current, max_states=max_states)
        conflicts = conflicts_of(graph, implied)
        if not conflicts:
            return EncodingResult(
                stg=current,
                inserted_signals=inserted,
                insertion_points=points,
                resolved=True,
                implied_orderings=implied,
                timing_aware=timing_aware,
            )

        signal_name = signal_prefix if round_index == 0 else f"{signal_prefix}{round_index}"
        while signal_name in current.signals:
            signal_name += "_"

        best = None
        choices: List[InsertionChoice] = [
            ("insert", name) for name in current.transition_names
        ]
        choices.extend(("relabel", name) for name in current.silent_transitions)
        for rise_choice, fall_choice in itertools.permutations(choices, 2):
            if rise_choice[1] == fall_choice[1]:
                continue
            for initial_value in (0, 1):
                try:
                    candidate, candidate_points, candidate_implied = _build_candidate(
                        current,
                        signal_name,
                        rise_choice,
                        fall_choice,
                        initial_value,
                        allow_inputs=timing_aware,
                    )
                    # bound=1 rejects a candidate at its first unsafe marking.
                    candidate_graph = build_state_graph(
                        candidate, max_states=max_states, bound=1
                    )
                except (StgError, StateGraphError):
                    continue
                if candidate_graph.initial_state is None:
                    continue
                # Reject candidates that introduce deadlocks.
                if any(
                    not candidate_graph.successors(state)
                    for state in candidate_graph.states
                ):
                    continue
                conflicts_left = len(
                    conflicts_of(candidate_graph, implied + candidate_implied)
                )
                # Prefer candidates that resolve the most conflicts with the
                # least added sequencing (fewest acknowledgement arcs), then
                # with the smallest state graph.
                added_arcs = sum(len(p.before) for p in candidate_points)
                score = (conflicts_left, added_arcs, len(candidate_graph.states))
                if best is None or score < best[0]:
                    best = (score, candidate, candidate_points, candidate_implied)
                if score[0] == 0:
                    break
            if best is not None and best[0][0] == 0:
                break

        if best is None:
            return EncodingResult(
                stg=current,
                inserted_signals=inserted,
                insertion_points=points,
                resolved=False,
                remaining_conflicts=conflicts,
                implied_orderings=implied,
                timing_aware=timing_aware,
            )
        _score, current, new_points, new_implied = best
        inserted.append(signal_name)
        points.extend(new_points)
        implied.extend(new_implied)

    graph = build_state_graph(current, max_states=max_states)
    conflicts = conflicts_of(graph, implied)
    return EncodingResult(
        stg=current,
        inserted_signals=inserted,
        insertion_points=points,
        resolved=not conflicts,
        remaining_conflicts=conflicts,
        implied_orderings=implied,
        timing_aware=timing_aware,
    )
