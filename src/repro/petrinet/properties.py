"""Behavioural property checks on Petri nets.

STG-based synthesis requires the underlying net to be *safe* (1-bounded) and
live; deadlocks in the specification translate into controllers that hang.

Two graph regimes back these checks (see ``docs/reachability.md``):

* **Deadlock queries** (``deadlock_markings``, ``is_deadlock_free``) run on
  the partial-order *reduced* graph by default -- the stubborn-set
  exploration preserves the exact deadlock-marking set while visiting far
  fewer states, which is what makes the full RAPPID control specification
  checkable at all.
* **Bound/structure queries** (``max_bound``, ``is_safe``, ``is_live``,
  ``is_reversible``) need every reachable marking; they build full graphs
  and *refuse* a reduced graph passed in (:class:`ReductionError`), so a
  caller can never silently get a wrong bound from a pruned graph.

``is_bounded`` is tri-state underneath: :func:`check_boundedness` separates
a proven-unbounded net (token-pumping cover witness) from one that merely
exceeded the exploration ``limit``; the latter raises
:class:`TruncatedExplorationError` instead of being misreported as
unbounded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.petrinet.net import Marking, PetriNet
from repro.petrinet.reachability import (
    Boundedness,
    ReachabilityGraph,
    Reduction,
    TruncatedExplorationError,
    UnboundedNetError,
    build_reachability_graph,
    check_boundedness,
    closure,
)


def _full_graph(
    net: PetriNet, graph: Optional[ReachabilityGraph], operation: str
) -> ReachabilityGraph:
    if graph is None:
        return build_reachability_graph(net)
    graph.require_full(operation)
    return graph


def max_bound(net: PetriNet, graph: Optional[ReachabilityGraph] = None) -> int:
    """Maximum token count observed on any place over all reachable markings.

    Needs the full marking graph: a reduced exploration can prune exactly
    the interleaving that maximises some place's count.
    """
    graph = _full_graph(net, graph, "max_bound")
    bound = 0
    for marking in graph.markings:
        for _place, count in marking.items():
            bound = max(bound, count)
    return bound


def is_bounded(net: PetriNet, limit: int = 4096) -> bool:
    """True if the net is bounded, False if provably unbounded.

    Backed by the tri-state :func:`check_boundedness`: ``False`` means a
    genuine token-pumping witness was found, not merely that exploration
    gave up.  When the verdict is inconclusive (more than ``limit``
    markings without a witness) this raises
    :class:`TruncatedExplorationError` rather than guessing either way.
    """
    verdict = check_boundedness(net, limit=limit)
    if verdict is Boundedness.TRUNCATED:
        raise TruncatedExplorationError(
            f"exploration truncated at {limit} markings without an "
            "unboundedness witness; raise the limit to decide"
        )
    return verdict is Boundedness.BOUNDED


def is_safe(net: PetriNet, graph: Optional[ReachabilityGraph] = None) -> bool:
    """True if every place holds at most one token in every reachable marking."""
    try:
        return max_bound(net, graph) <= 1
    except UnboundedNetError:
        return False


def deadlock_markings(
    net: PetriNet, graph: Optional[ReachabilityGraph] = None
) -> List[Marking]:
    """Reachable markings from which no transition is enabled.

    When no graph is supplied, a stubborn-set *reduced* graph is built:
    it contains exactly the same deadlock markings as the full graph
    (the differential suite pins this) at a fraction of the states.
    Callers holding a graph of either mode can pass it in.
    """
    if graph is None:
        graph = build_reachability_graph(net, reduction=Reduction.DEADLOCKS)
    return graph.deadlocks()


def is_deadlock_free(net: PetriNet, graph: Optional[ReachabilityGraph] = None) -> bool:
    """True if no reachable marking is a deadlock."""
    return not deadlock_markings(net, graph)


def _all_lead_to(graph: ReachabilityGraph, seed_sets: Iterable[List[Marking]]) -> bool:
    """True if from every marking of ``graph`` a path leads into each seed set.

    One backward :func:`closure` over the in-edges per seed set.
    """
    index: Dict[Marking, List[Marking]] = {}
    for (source, _transition), target in graph.edges.items():
        index.setdefault(target, []).append(source)
    for seeds in seed_sets:
        reach = closure(seeds, lambda marking: index.get(marking, ()))
        if not all(marking in reach for marking in graph.markings):
            return False
    return True


def is_live(net: PetriNet, graph: Optional[ReachabilityGraph] = None) -> bool:
    """True if every transition can always eventually fire again (L4 liveness).

    Checked on the reachability graph: every transition occurs on some
    edge, and from every reachable marking a path leads to a source of
    each transition's edges -- one backward closure per transition, so
    O(T * (V + E)).  For the cyclic handshake specifications used in this
    flow this is the intended notion of liveness.  Needs the full graph
    -- a reduced one omits markings and interleavings.
    """
    graph = _full_graph(net, graph, "is_live")
    if not graph.markings:
        return False
    sources: Dict[str, List[Marking]] = {}
    for (source, transition) in graph.edges:
        sources.setdefault(transition, []).append(source)
    if set(sources) != {t.name for t in net.transitions}:
        return False
    return _all_lead_to(graph, sources.values())


def is_reversible(net: PetriNet, graph: Optional[ReachabilityGraph] = None) -> bool:
    """True if the initial marking is reachable from every reachable marking.

    The backward closure of the initial marking must cover the graph.
    Needs the full graph for the same reason as :func:`is_live`.
    """
    graph = _full_graph(net, graph, "is_reversible")
    return _all_lead_to(graph, [[net.initial_marking]])
