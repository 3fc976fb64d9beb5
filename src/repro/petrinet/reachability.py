"""Explicit-state reachability analysis for Petri nets.

The Relative Timing synthesis flow (Figure 2 of the paper) starts with
*reachability analysis* of the specification STG.  Two exploration modes
are provided:

* **Full** breadth-first exploration of the marking graph
  (:func:`build_reachability_graph` with the default
  ``reduction=Reduction.FULL``) -- every reachable marking and every
  edge.  This is what state-based synthesis needs: CSC detection and
  state assignment in :mod:`repro.synthesis.speed_independent` must see
  every state, so that flow always requests the full graph.

* **Partial-order reduced** exploration (:func:`explore` /
  ``reduction=Reduction.DEADLOCKS``): at each marking only a *stubborn
  set* of the enabled transitions is fired -- a subset closed under
  static conflict/dependency relations precomputed once per net
  (:class:`_StubbornRelations`).  The reduced graph visits a (often
  exponentially smaller) subset of the markings while provably
  containing **exactly the same deadlock markings** as the full graph,
  which is what the property checks in :mod:`repro.petrinet.properties`
  and the large-specification verification flow actually query.
  Queries that need every marking (``max_bound``, ``is_safe``,
  ``is_live``, ``is_reversible``) refuse reduced graphs with
  :class:`ReductionError` -- see :meth:`ReachabilityGraph.require_full`.

The soundness argument for the deadlock-preserving stubborn sets, the
choice of static relations, and which callers get reduced versus full
graphs are documented in ``docs/reachability.md``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.petrinet.net import Marking, PetriNet, PetriNetError


Node = TypeVar("Node", bound=Hashable)


def closure(seeds: Iterable[Node], neighbours: Callable[[Node], Iterable[Node]]) -> Set[Node]:
    """Every node reachable from ``seeds`` (inclusive) through ``neighbours``.

    ``neighbours(node)`` yields the nodes one step away: successors for a
    forward closure, predecessors for a backward one.  The one breadth-first
    closure behind liveness and reversibility here and the state-graph
    closures of :mod:`repro.stategraph`.
    """
    seen: Set[Node] = set(seeds)
    queue = deque(seen)
    while queue:
        for neighbour in neighbours(queue.popleft()):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


class UnboundedNetError(PetriNetError):
    """Raised when reachability exploration detects an unbounded net."""


class TruncatedExplorationError(PetriNetError):
    """Exploration hit its state cap without proving either verdict.

    Distinct from :class:`UnboundedNetError`: the net may be bounded but
    larger than the cap.  Raised by ``is_bounded`` when
    :func:`check_boundedness` returns :attr:`Boundedness.TRUNCATED`.
    """


class ReductionError(PetriNetError):
    """Raised when a full-graph query is asked of a reduced graph.

    A partial-order reduced graph preserves deadlock markings but not
    the full marking set, so callers that need every marking (bound
    computation, liveness, reversibility, state-graph construction)
    must build with ``reduction=Reduction.FULL``.
    """


class Reduction(str, enum.Enum):
    """Exploration mode of a reachability graph.

    ``FULL`` explores every enabled transition at every marking.
    ``DEADLOCKS`` fires only a stubborn subset per marking; the reduced
    graph contains a subset of the reachable markings but exactly the
    same deadlock markings as the full graph.
    """

    FULL = "full"
    DEADLOCKS = "deadlocks"


@dataclass
class ReachabilityGraph:
    """The marking graph of a Petri net.

    Attributes
    ----------
    net:
        The underlying Petri net.
    markings:
        All explored markings in discovery (BFS) order.
    edges:
        Mapping ``(marking, transition) -> successor marking``.
    reduction:
        The :class:`Reduction` mode the graph was built with.  Derived
        sets (deadlocks, occurrence counts, the membership set, the
        successor index) are cached on first use -- the graph is
        immutable once built, so no invalidation is needed.
    """

    net: PetriNet
    markings: List[Marking] = field(default_factory=list)
    edges: Dict[Tuple[Marking, str], Marking] = field(default_factory=dict)
    reduction: Reduction = Reduction.FULL

    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    @property
    def is_reduced(self) -> bool:
        return self.reduction is not Reduction.FULL

    def require_full(self, operation: str) -> None:
        """Raise :class:`ReductionError` unless this is a full graph.

        Guards queries whose answers are only correct on the complete
        marking set; the reduced graph preserves deadlocks, not bounds
        or cyclic structure.
        """
        if self.is_reduced:
            raise ReductionError(
                f"{operation} needs the full marking graph, but this graph "
                f"was built with reduction={self.reduction.value!r}; rebuild "
                "with reduction=Reduction.FULL"
            )

    def __len__(self) -> int:
        return len(self.markings)

    def __contains__(self, marking: Marking) -> bool:
        return marking in self._marking_set()

    def _marking_set(self) -> Set[Marking]:
        cached = getattr(self, "_cached_set", None)
        if cached is None:
            cached = self._cached_set = set(self.markings)
        return cached

    def _successor_index(self) -> Dict[Marking, List[Tuple[str, Marking]]]:
        cached = getattr(self, "_cached_successors", None)
        if cached is None:
            cached = {}
            for (source, transition), target in self.edges.items():
                cached.setdefault(source, []).append((transition, target))
            self._cached_successors = cached
        return cached

    def successors(self, marking: Marking) -> Iterator[Tuple[str, Marking]]:
        """Yield ``(transition, successor)`` pairs from ``marking``."""
        yield from self._successor_index().get(marking, [])

    def enabled(self, marking: Marking) -> List[str]:
        """Transitions with an explored edge from ``marking``.

        On a reduced graph this is the fired stubborn subset, not the
        full enabled set -- use ``net.enabled_transitions`` for that.
        """
        return [t for t, _target in self._successor_index().get(marking, [])]

    def deadlocks(self) -> List[Marking]:
        """Markings with no outgoing edges (cached after first call).

        Identical between full and deadlock-reduced graphs; that
        equality is the reduction's contract and is pinned by the
        differential suite.
        """
        cached = getattr(self, "_cached_deadlocks", None)
        if cached is None:
            with_successors = {source for (source, _t) in self.edges}
            cached = self._cached_deadlocks = [
                m for m in self.markings if m not in with_successors
            ]
        return list(cached)

    def transition_occurrences(self, transition: str) -> int:
        """Number of edges labelled with ``transition`` (cached counts)."""
        cached = getattr(self, "_cached_occurrences", None)
        if cached is None:
            cached = {}
            for (_m, t) in self.edges:
                cached[t] = cached.get(t, 0) + 1
            self._cached_occurrences = cached
        return cached.get(transition, 0)


def build_reachability_graph(
    net: PetriNet,
    max_states: int = 1_000_000,
    bound: Optional[int] = None,
    reduction: Reduction = Reduction.FULL,
) -> ReachabilityGraph:
    """Explore the reachable markings of ``net``.

    Runs one of the two BFS cores of :mod:`repro.engine.marking`: the
    bitmask core when ``bound == 1`` on a unit-weight, capacity-free net
    with a safe initial marking, the count-tuple core otherwise.

    With the default ``reduction=Reduction.FULL`` every enabled transition
    is fired at every marking; markings and edges come back in the same
    BFS order (and with the same error behaviour) as the retained
    :func:`_reference_build_reachability_graph`.

    With ``reduction=Reduction.DEADLOCKS`` the core fires only a stubborn
    subset of the enabled transitions per marking (see :func:`explore`),
    which preserves the exact deadlock-marking set.

    Parameters
    ----------
    net:
        The Petri net to explore.
    max_states:
        Hard cap on the number of distinct markings; exceeded caps raise
        :class:`UnboundedNetError` since the STGs in this flow are finite.
    bound:
        If given, raise :class:`UnboundedNetError` as soon as any place
        exceeds ``bound`` tokens.  The STG flow uses ``bound=1`` (safe
        nets).  Under reduction the check is one-sided: a raise is
        always a genuine violation, but a violation only reachable via
        pruned interleavings may go unreported -- bound questions need
        the full graph (see ``docs/reachability.md``).
    """
    from repro.engine.marking import EncodingError, NetEncoding

    reduction = Reduction(reduction)
    codec = NetEncoding.for_net(net)
    cap_error = UnboundedNetError(
        f"state cap of {max_states} markings exceeded; "
        "the net is unbounded or too large"
    )
    initial = net.initial_marking
    bits = None
    if bound == 1 and codec.bit_capable:
        try:
            bits = codec.encode_bits(initial)
        except EncodingError:
            pass  # initial marking itself is unsafe: count tuples report it
    select = None
    if reduction is not Reduction.FULL:
        select = _stubborn_selector(net, codec, bits is not None)
    if bits is not None:
        keys, edges = codec.explore_bits(bits, max_states, cap_error, select)
        decode = codec.decode_bits
    else:
        keys, edges = codec.explore_counts(
            codec.encode(initial), max_states, bound, cap_error, select
        )
        decode = codec.decode
    markings = [decode(key) for key in keys]
    graph = ReachabilityGraph(net=net, markings=markings, reduction=reduction)
    transition_names = codec.transition_names
    graph.edges = {
        (markings[source], transition_names[t]): markings[target]
        for source, t, target in edges
    }
    return graph


def _reference_build_reachability_graph(
    net: PetriNet,
    max_states: int = 1_000_000,
    bound: Optional[int] = None,
) -> ReachabilityGraph:
    """Pre-engine BFS over :class:`Marking` objects.

    Kept as the oracle for the differential test suite; behaviour
    (marking order, edge order, raised errors) defines what
    :func:`build_reachability_graph` must reproduce in full mode, and
    what the reduced mode of :func:`explore` must agree with on
    deadlock sets.
    """
    graph = ReachabilityGraph(net=net)
    initial = net.initial_marking
    seen: Set[Marking] = {initial}
    graph.markings.append(initial)
    queue = deque([initial])

    while queue:
        marking = queue.popleft()
        for transition in net.enabled_transitions(marking):
            successor = net.fire(transition, marking)
            if bound is not None:
                for place, count in successor.items():
                    if count > bound:
                        raise UnboundedNetError(
                            f"place {place!r} exceeds bound {bound} "
                            f"after firing {transition!r}"
                        )
            graph.edges[(marking, transition)] = successor
            if successor not in seen:
                if len(seen) >= max_states:
                    raise UnboundedNetError(
                        f"state cap of {max_states} markings exceeded; "
                        "the net is unbounded or too large"
                    )
                seen.add(successor)
                graph.markings.append(successor)
                queue.append(successor)
    return graph


# ---------------------------------------------------------------------------
# Boundedness (tri-state)
# ---------------------------------------------------------------------------


class Boundedness(str, enum.Enum):
    """Verdict of :func:`check_boundedness`."""

    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    TRUNCATED = "truncated"


def check_boundedness(net: PetriNet, limit: int = 4096) -> Boundedness:
    """Decide boundedness with an explicit *unknown* verdict.

    The count-tuple core with a Karp--Miller-style witness as its
    ``discover`` hook: a new marking that strictly covers one of its
    BFS-tree ancestors proves the covering firing sequence can be repeated
    to pump tokens without bound -- ``UNBOUNDED``, regardless of
    ``limit``.  If the state cap is hit without such a witness the verdict is
    ``TRUNCATED`` (the net may be bounded but larger than ``limit``),
    never a silent "unbounded" -- that conflation was the old
    ``is_bounded`` behaviour.
    """
    from repro.engine.marking import NetEncoding

    codec = NetEncoding.for_net(net)
    initial = codec.encode(net.initial_marking)
    keys: List[Tuple[int, ...]] = [initial]
    parent: List[int] = [-1]

    def discover(source: int, successor: Tuple[int, ...]) -> None:
        ancestor = source
        while ancestor != -1:
            candidate = keys[ancestor]
            covered = all(new >= old for new, old in zip(successor, candidate))
            if covered and candidate != successor:
                raise UnboundedNetError("a new marking covers its ancestor")
            ancestor = parent[ancestor]
        parent.append(source)
        keys.append(successor)

    try:
        codec.explore_counts(
            initial, limit, None, TruncatedExplorationError(), discover=discover
        )
    except UnboundedNetError:
        return Boundedness.UNBOUNDED
    except TruncatedExplorationError:
        return Boundedness.TRUNCATED
    return Boundedness.BOUNDED


# ---------------------------------------------------------------------------
# Partial-order reduction: stubborn sets
# ---------------------------------------------------------------------------


class _StubbornRelations:
    """Static conflict/dependency relations of a net, computed once.

    All sets are expressed over the transition indices of the net's
    :class:`~repro.engine.marking.NetEncoding` so the per-marking
    stubborn closure is pure integer work:

    ``interfere[t]``
        Transitions that can disable ``t`` or be disabled by ``t``:
        ``t'`` interferes with ``t`` iff the preset of one intersects
        the set of places the other net-decreases.  This is the D2
        closure seed -- every enabled stubborn member drags its
        interferers into the set so that transitions left outside can
        neither disable nor be disabled by the fired subset.

    ``enablers_by_slot[p]``
        Transitions with a positive net effect on place ``p`` -- the D1
        closure seed: a disabled stubborn member needs more tokens on
        some insufficient input place, and only these transitions can
        provide them.

    Cached per net keyed by its ``_structure_version`` counter, exactly
    like the engine's :class:`~repro.engine.marking.NetEncoding`.
    """

    __slots__ = ("interfere", "enablers_by_slot", "num_transitions")

    def __init__(self, codec) -> None:
        consume = codec.consume
        produce = codec.produce
        num_places = len(codec.place_names)
        count = len(codec.transition_names)
        self.num_transitions = count

        pre_mask: List[int] = []
        dec_mask: List[int] = []
        effects: List[Dict[int, int]] = []
        for t in range(count):
            effect: Dict[int, int] = {}
            pre = 0
            for slot, weight in consume[t]:
                effect[slot] = effect.get(slot, 0) - weight
                pre |= 1 << slot
            for slot, weight in produce[t]:
                effect[slot] = effect.get(slot, 0) + weight
            effects.append(effect)
            pre_mask.append(pre)
            dec = 0
            for slot, delta in effect.items():
                if delta < 0:
                    dec |= 1 << slot
            dec_mask.append(dec)

        self.interfere: List[Tuple[int, ...]] = []
        for t in range(count):
            members = [
                u
                for u in range(count)
                if u != t
                and (pre_mask[u] & dec_mask[t] or pre_mask[t] & dec_mask[u])
            ]
            self.interfere.append(tuple(members))

        enablers: List[List[int]] = [[] for _ in range(num_places)]
        for t in range(count):
            for slot, delta in effects[t].items():
                if delta > 0:
                    enablers[slot].append(t)
        self.enablers_by_slot: List[Tuple[int, ...]] = [
            tuple(ts) for ts in enablers
        ]

    @classmethod
    def for_net(cls, net: PetriNet, codec) -> "_StubbornRelations":
        version = getattr(net, "_structure_version", None)
        cached = getattr(net, "_stubborn_relations", None)
        if cached is not None and version is not None and cached[0] == version:
            return cached[1]
        relations = cls(codec)
        if version is not None:
            net._stubborn_relations = (version, relations)
        return relations


def _stubborn_subset(
    relations: _StubbornRelations,
    enabled: Sequence[int],
    enabled_set: Set[int],
    insufficient_slot,
) -> Sequence[int]:
    """A stubborn subset of ``enabled`` at the current marking.

    Tries every enabled transition as the closure seed and keeps the
    candidate whose enabled part is smallest (ties break towards the
    lowest seed index, so exploration is deterministic); a singleton is
    returned immediately.  The closure rules are the classic
    deadlock-preserving stubborn-set conditions:

    * an *enabled* member pulls in its ``interfere`` set (D2), and
    * a *disabled* member picks its first insufficient input place and
      pulls in that place's ``enablers`` (D1).
    """
    total = len(enabled)
    if total <= 1:
        return enabled
    interfere = relations.interfere
    enablers_by_slot = relations.enablers_by_slot
    best: Sequence[int] = enabled
    for seed in enabled:
        members = {seed}
        stack = [seed]
        enabled_members = 1
        while stack and enabled_members < total:
            t = stack.pop()
            if t in enabled_set:
                additions = interfere[t]
            else:
                additions = enablers_by_slot[insufficient_slot(t)]
            for u in additions:
                if u not in members:
                    members.add(u)
                    if u in enabled_set:
                        enabled_members += 1
                    stack.append(u)
        if enabled_members >= total:
            continue
        candidate = [t for t in enabled if t in members]
        if len(candidate) == 1:
            return candidate
        if len(candidate) < len(best):
            best = candidate
    return best


def _stubborn_selector(net: PetriNet, codec, bits: bool):
    """The ``select`` hook of the exploration cores for ``Reduction.DEADLOCKS``.

    ``bits`` says which keys the hook reads: the bitmask markings of
    ``NetEncoding.explore_bits`` or the count tuples of ``explore_counts``.
    """
    relations = _StubbornRelations.for_net(net, codec)
    transitions = range(len(codec.transition_names))
    need_mask = codec.need_mask
    consume = codec.consume

    def select_bits(marking: int) -> Sequence[int]:
        enabled = [t for t in transitions if marking & need_mask[t] == need_mask[t]]

        def insufficient_slot(t: int) -> int:
            missing = need_mask[t] & ~marking
            return (missing & -missing).bit_length() - 1

        return _stubborn_subset(relations, enabled, set(enabled), insufficient_slot)

    def select_counts(marking: Tuple[int, ...]) -> Sequence[int]:
        enabled = []
        for t in transitions:
            for slot, weight in consume[t]:
                if marking[slot] < weight:
                    break
            else:
                enabled.append(t)

        def insufficient_slot(t: int) -> int:
            for slot, weight in consume[t]:
                if marking[slot] < weight:
                    return slot
            raise AssertionError("transition is enabled")  # pragma: no cover

        return _stubborn_subset(relations, enabled, set(enabled), insufficient_slot)

    return select_bits if bits else select_counts


def explore(
    net: PetriNet,
    max_states: int = 1_000_000,
    bound: Optional[int] = None,
    reduction: Reduction = Reduction.DEADLOCKS,
) -> ReachabilityGraph:
    """:func:`build_reachability_graph` with ``Reduction.DEADLOCKS`` as default.

    At each marking only a stubborn subset of the enabled transitions is
    fired (see :func:`_stubborn_subset`); the graph explores a subset of
    the reachable markings but contains exactly the deadlock markings of
    :func:`_reference_build_reachability_graph` -- the differential
    contract pinned by the test suite.  A raised ``bound`` violation or
    ``max_states`` cap is always genuine, but a violation only reachable
    through pruned interleavings may be missed; use the full graph for
    bound questions.
    """
    return build_reachability_graph(
        net, max_states=max_states, bound=bound, reduction=reduction
    )
