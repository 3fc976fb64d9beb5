"""Excitation and quiescent regions of a state graph.

For a signal ``a``:

* the *excitation region* ER(a+) is the set of states in which ``a+`` is
  enabled (a = 0 and a rising transition may fire);
* the *quiescent region* QR(a, v) is the set of states where ``a`` holds the
  stable value ``v`` and is not excited.

Regions are the handles used by logic synthesis (set/reset cover
derivation) and by the Relative Timing engine (early enabling extends an
excitation region backwards into the quiescent region).
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.petrinet.reachability import closure
from repro.stg.model import Direction
from repro.stategraph.graph import State, StateGraph


def excitation_region(graph: StateGraph, signal: str, direction: Direction) -> Set[State]:
    """States in which ``signal`` is excited in ``direction``."""
    return {
        state
        for state in graph.states
        if graph.is_excited(state, signal) is direction
    }


def quiescent_region(graph: StateGraph, signal: str, value: int) -> Set[State]:
    """States in which ``signal`` is stable at ``value``."""
    return {
        state
        for state in graph.states
        if graph.value(state, signal) == value
        and graph.is_excited(state, signal) is None
    }


def forward_closure(graph: StateGraph, seeds: Iterable[State]) -> Set[State]:
    """All states reachable from ``seeds`` (inclusive)."""
    return closure(seeds, lambda state: [t for _tr, t in graph.successors(state)])


def backward_closure(graph: StateGraph, seeds: Iterable[State]) -> Set[State]:
    """All states from which some seed is reachable (inclusive)."""
    return closure(seeds, lambda state: [s for _tr, s in graph.predecessors(state)])


def region_entry_states(graph: StateGraph, region: Set[State]) -> Set[State]:
    """States of ``region`` entered by an edge from outside the region."""
    entries: Set[State] = set()
    for state in region:
        for _transition, source in graph.predecessors(state):
            if source not in region:
                entries.add(state)
                break
    if graph.initial_state in region:
        entries.add(graph.initial_state)
    return entries


def region_exit_edges(graph: StateGraph, region: Set[State]):
    """Edges leaving ``region``: list of (state, transition, target)."""
    exits = []
    for state in region:
        for transition, target in graph.successors(state):
            if target not in region:
                exits.append((state, transition, target))
    return exits
