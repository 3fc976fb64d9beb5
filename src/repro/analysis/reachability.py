"""Reachability graphs as cached analyses.

PR 7 left STG/state-graph artifacts outside the pass manager; this
module folds the reachability layer in.  Two passes over a
:class:`~repro.petrinet.net.PetriNet` subject:

* ``"reachability-full"`` -- the complete marking graph
  (:func:`~repro.petrinet.reachability.build_reachability_graph`).
  What validation reads (and so state-based synthesis, which validates
  first); conformance's spec index shares it when a caller passes it as
  ``spec_graph``.  Bound/liveness/reversibility queries need this one.
* ``"reachability-reduced"`` -- the stubborn-set reduced graph
  (:func:`~repro.petrinet.reachability.explore`), preserving exactly the
  deadlock markings at a fraction of the states.  What deadlock-freedom
  checks on large specifications consume.

Both read the ``"structure"`` and ``"marking"`` aspects of the net
(:meth:`~repro.petrinet.net.PetriNet.analysis_fingerprint`), so repeated
checks against one specification -- validate, then synthesize, then
verify -- enumerate its state space once, and a mutation to the net or
its initial marking invalidates exactly these entries.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.analysis.manager import AnalysisPass
from repro.petrinet.net import PetriNet
from repro.petrinet.reachability import (
    ReachabilityGraph,
    Reduction,
    build_reachability_graph,
    explore,
)

__all__ = ["ReachabilityFullAnalysis", "ReachabilityReducedAnalysis"]


class ReachabilityFullAnalysis(AnalysisPass):
    """Full breadth-first marking graph of a Petri net."""

    name = "reachability-full"
    aspects = ("structure", "marking")

    def run(
        self,
        subject: PetriNet,
        deps: Dict[str, Any],
        max_states: int = 1_000_000,
        bound: Optional[int] = None,
    ) -> ReachabilityGraph:
        return build_reachability_graph(subject, max_states=max_states, bound=bound)

    def param_key(self, **params: Any) -> Tuple:
        return tuple(sorted(params.items()))


class ReachabilityReducedAnalysis(AnalysisPass):
    """Stubborn-set reduced marking graph (deadlock-preserving)."""

    name = "reachability-reduced"
    aspects = ("structure", "marking")

    def run(
        self,
        subject: PetriNet,
        deps: Dict[str, Any],
        max_states: int = 1_000_000,
        bound: Optional[int] = None,
    ) -> ReachabilityGraph:
        return explore(
            subject, max_states=max_states, bound=bound, reduction=Reduction.DEADLOCKS
        )

    def param_key(self, **params: Any) -> Tuple:
        return tuple(sorted(params.items()))
