"""State graph construction from STGs.

A *state* is a pair (marking, signal-value vector).  Two distinct states may
share the same binary code -- that is precisely the Unique/Complete State
Coding problem handled in :mod:`repro.stategraph.encoding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.petrinet.net import Marking
from repro.petrinet.reachability import closure
from repro.stg.model import Direction, SignalTransition, SignalTransitionGraph


class StateGraphError(Exception):
    """Raised when a state graph cannot be constructed or queried."""


@dataclass(frozen=True)
class State:
    """A reachable state: Petri net marking plus binary signal values."""

    marking: Marking
    code: Tuple[int, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(str(bit) for bit in self.code)
        return f"State(code={bits}, marking={self.marking!r})"


class StateGraph:
    """Explicit state graph of an STG.

    Attributes
    ----------
    stg:
        The source specification.
    signal_order:
        Fixed ordering of signals used to interpret the binary codes.
    states:
        All reachable states in BFS discovery order.
    """

    def __init__(self, stg: SignalTransitionGraph, signal_order: List[str]) -> None:
        self.stg = stg
        self.signal_order = list(signal_order)
        self._index = {signal: i for i, signal in enumerate(self.signal_order)}
        self.states: List[State] = []
        self.initial_state: Optional[State] = None
        # edges: (state, transition name) -> successor state
        self.edges: Dict[Tuple[State, str], State] = {}
        self._successors: Dict[State, List[Tuple[str, State]]] = {}
        self._predecessors: Dict[State, List[Tuple[str, State]]] = {}

    # -- construction helpers (used by build_state_graph) -------------------------
    def _add_state(self, state: State) -> None:
        self.states.append(state)
        self._successors.setdefault(state, [])
        self._predecessors.setdefault(state, [])

    def _add_edge(self, source: State, transition: str, target: State) -> None:
        self.edges[(source, transition)] = target
        self._successors.setdefault(source, []).append((transition, target))
        self._predecessors.setdefault(target, []).append((transition, source))

    # -- code helpers ---------------------------------------------------------------
    def signal_index(self, signal: str) -> int:
        try:
            return self._index[signal]
        except KeyError as exc:
            raise StateGraphError(f"unknown signal {signal!r}") from exc

    def value(self, state: State, signal: str) -> int:
        """Current value of ``signal`` in ``state``."""
        return state.code[self.signal_index(signal)]

    def code_string(self, state: State) -> str:
        return "".join(str(bit) for bit in state.code)

    # -- topology ---------------------------------------------------------------------
    def successors(self, state: State) -> List[Tuple[str, State]]:
        return list(self._successors.get(state, []))

    def predecessors(self, state: State) -> List[Tuple[str, State]]:
        return list(self._predecessors.get(state, []))

    def enabled_transitions(self, state: State) -> List[str]:
        """Net transition names enabled (having an outgoing edge) in ``state``."""
        return [transition for transition, _target in self._successors.get(state, [])]

    def enabled_labels(self, state: State) -> List[SignalTransition]:
        """Signal transitions enabled in ``state`` (silent transitions omitted)."""
        labels = []
        for transition, _target in self._successors.get(state, []):
            label = self.stg.label_of(transition)
            if label is not None:
                labels.append(label)
        return labels

    def is_excited(self, state: State, signal: str) -> Optional[Direction]:
        """Direction in which ``signal`` is enabled to change in ``state``.

        Returns ``None`` when the signal is stable in this state.
        """
        for label in self.enabled_labels(state):
            if label.signal == signal:
                return label.direction
        return None

    def next_value(self, state: State, signal: str) -> int:
        """The *implied value* of ``signal`` used for logic derivation.

        Equal to the current value unless the signal is excited, in which
        case it is the value after the excitation fires.
        """
        direction = self.is_excited(state, signal)
        if direction is None:
            return self.value(state, signal)
        return 1 if direction is Direction.RISE else 0

    # -- code sets used by logic synthesis ----------------------------------------------
    def reachable_codes(self) -> Set[Tuple[int, ...]]:
        return {state.code for state in self.states}

    def on_set(self, signal: str) -> Set[Tuple[int, ...]]:
        """Codes of states whose implied value of ``signal`` is 1."""
        return {s.code for s in self.states if self.next_value(s, signal) == 1}

    def off_set(self, signal: str) -> Set[Tuple[int, ...]]:
        """Codes of states whose implied value of ``signal`` is 0."""
        return {s.code for s in self.states if self.next_value(s, signal) == 0}

    def states_with_code(self, code: Tuple[int, ...]) -> List[State]:
        return [s for s in self.states if s.code == code]

    # -- misc ------------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __repr__(self) -> str:
        return (
            f"StateGraph(signals={self.signal_order}, states={len(self.states)}, "
            f"edges={len(self.edges)})"
        )

    def copy_without_edges(self, removed: Collection[Tuple[State, str]]) -> "StateGraph":
        """Return a copy of the graph with the given edges removed.

        States left unreachable from the initial state are dropped as well.
        :func:`reduce_concurrency` builds on this.
        """
        reduced = StateGraph(self.stg, self.signal_order)
        if self.initial_state is None:
            return reduced
        kept_edges = {
            key: target for key, target in self.edges.items() if key not in removed
        }
        adjacency: Dict[State, List[State]] = {}
        for (source, _transition), target in kept_edges.items():
            adjacency.setdefault(source, []).append(target)
        reachable = closure([self.initial_state], lambda s: adjacency.get(s, ()))

        reduced.initial_state = self.initial_state
        for state in self.states:
            if state in reachable:
                reduced._add_state(state)
        for (source, transition), target in kept_edges.items():
            if source in reachable and target in reachable:
                reduced._add_edge(source, transition, target)
        return reduced


Ordering = Tuple[SignalTransition, SignalTransition]
"""A ``(before, after)`` pair of events: ``before`` happens first."""


def transition_event(
    stg: SignalTransitionGraph, transition: str
) -> Optional[SignalTransition]:
    """The event ``transition`` fires: its label's signal and direction.

    The occurrence index of the label is dropped, so every occurrence of
    ``a+`` is the same event; silent transitions fire no event (``None``).
    """
    label = stg.label_of(transition)
    if label is None:
        return None
    return SignalTransition(label.signal, label.direction)


def reduce_concurrency(
    graph: StateGraph, orderings: Iterable[Ordering]
) -> Tuple[StateGraph, Dict[Tuple[State, str], Ordering]]:
    """Concurrency-reduce ``graph`` under ``(before, after)`` event orderings.

    In every state where both events of an ordering are enabled, the edges
    firing ``after`` are cut: ``after`` must not fire while ``before`` is
    still pending.  Events are those of :func:`transition_event`, so the
    occurrence index of a label does not matter.  This is the one reduction
    behind the Relative Timing engine's lazy state graphs and timing-aware
    state encoding.

    Returns the reduced graph -- states left unreachable are dropped; the
    graph itself when nothing is cut -- and the cut ``(state, transition)``
    keys of the surviving states, in state order and then ordering order,
    each mapped to the first ordering that cut it.
    """
    orderings = list(orderings)
    event_of = {
        name: transition_event(graph.stg, name) for name in graph.stg.transition_names
    }
    removed: Dict[Tuple[State, str], Ordering] = {}
    for state in graph.states:
        events: Dict[SignalTransition, List[str]] = {}
        for transition, _target in graph._successors[state]:
            event = event_of.get(transition)
            if event is not None:
                events.setdefault(event, []).append(transition)
        for ordering in orderings:
            before, after = ordering
            if before in events and after in events:
                for transition in events[after]:
                    removed.setdefault((state, transition), ordering)
    if not removed:
        return graph, {}
    reduced = graph.copy_without_edges(removed)
    surviving = reduced._successors
    return reduced, {
        key: ordering for key, ordering in removed.items() if key[0] in surviving
    }


def code_relabel(
    stg: SignalTransitionGraph,
    signal_order: List[str],
    on_violation: Callable[[SignalTransition, int], None],
) -> Tuple[Tuple[int, ...], Callable[[int, int], Optional[int]]]:
    """Initial key of ``stg``'s state exploration and its ``relabel`` hook.

    A key is the marking's count tuple plus one trailing slot for the
    signal code, an int with bit ``i`` for ``signal_order[i]``.  The hook
    (for :meth:`~repro.engine.marking.NetEncoding.explore_counts`) returns
    the code after firing transition index ``t``: unchanged for a silent
    transition, with the signal's bit flipped for a labelled one.  A
    labelled transition that fires against the current value of its signal
    is an inconsistency: the hook calls ``on_violation(label, value)``,
    which may raise, and otherwise skips the transition.
    """
    from repro.engine.marking import NetEncoding

    codec = NetEncoding.for_net(stg.net)
    position = {signal: i for i, signal in enumerate(signal_order)}
    # Per transition index: None for silent, else (label, signal bit, rising).
    label_info = [
        None if label is None else (label, 1 << position[label.signal], label.is_rising)
        for label in map(stg.label_of, codec.transition_names)
    ]

    def relabel(t: int, code: int) -> Optional[int]:
        info = label_info[t]
        if info is None:
            return code
        label, bit, rising = info
        if bool(code & bit) == rising:
            on_violation(label, 1 if code & bit else 0)
            return None
        return (code | bit) if rising else (code & ~bit)

    values = stg.initial_state_vector()
    code = sum(1 << i for i, signal in enumerate(signal_order) if values[signal])
    return codec.encode(stg.net.initial_marking) + (code,), relabel


def build_state_graph(
    stg: SignalTransitionGraph,
    max_states: int = 500_000,
    bound: Optional[int] = None,
) -> StateGraph:
    """Construct the full state graph of an STG.

    The BFS is the count-tuple core of :mod:`repro.engine.marking`: each
    key is the marking's token counts with the signal code (one bit per
    signal) riding as one extra trailing slot, stepped by the
    :func:`code_relabel` hook.  :class:`State` objects are materialised
    once per distinct state, in BFS discovery order.

    Raises
    ------
    StateGraphError
        If the STG is inconsistent (a transition fires against the current
        signal value), exploration exceeds ``max_states``, or -- with
        ``bound`` given -- a place exceeds ``bound`` tokens (CSC candidates
        use ``bound=1`` to stop at the first unsafe marking).
    """
    from repro.engine.marking import NetEncoding
    from repro.petrinet.reachability import UnboundedNetError

    signal_order = sorted(stg.signals)
    graph = StateGraph(stg, signal_order)
    num_signals = len(signal_order)
    codec = NetEncoding.for_net(stg.net)

    def inconsistent(label: SignalTransition, value: int) -> None:
        raise StateGraphError(
            f"inconsistent STG: {label} enabled while {label.signal}={value}"
        )

    initial_key, relabel = code_relabel(stg, signal_order, inconsistent)
    cap_error = StateGraphError(f"state graph exceeds {max_states} states")
    try:
        keys, edges = codec.explore_counts(
            initial_key, max_states, bound, cap_error, relabel=relabel
        )
    except UnboundedNetError as exc:
        raise StateGraphError(str(exc)) from exc

    # Materialise State objects in discovery order (decode reads the place
    # slots and ignores the trailing code slot).
    states: List[State] = []
    for key in keys:
        code = tuple((key[-1] >> position) & 1 for position in range(num_signals))
        state = State(codec.decode(key), code)
        states.append(state)
        graph._add_state(state)
    graph.initial_state = states[0]
    transition_names = codec.transition_names
    for source, t, target in edges:
        graph._add_edge(states[source], transition_names[t], states[target])
    return graph
