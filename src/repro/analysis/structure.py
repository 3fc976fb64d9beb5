"""Structural netlist analyses: connectivity, cones, dominators.

The ``"structure"`` pass derives everything the static layer needs to
know about a netlist's shape without simulating it: the net-level
fanin/fanout graph, per-net output-cone membership (which primary
outputs a net can reach), and the post-dominator tree towards the
observable sink (the skeleton classic fault collapsing hangs
equivalence classes on).  It reads only the ``"topology"`` aspect, so
cached results survive ``set_initial_value`` mutations.

The ``"packed-fanout"`` pass caches the per-net packed fanout tuples of
the engine's one scalar drain (:func:`repro.engine.simkernel.drain`) on a
:class:`~repro.engine.events.CompiledNetlist` (identity-keyed --
compiled views are immutable), so every
:class:`~repro.engine.faultsim._FaultSweep` over one compiled object
shares a single packing instead of rebuilding it per engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.manager import AnalysisPass


@dataclass(frozen=True)
class NetlistStructure:
    """Immutable structural view of one netlist (net-name keyed).

    Attributes
    ----------
    nets:
        All nets in sorted order (the compiled slot order).
    driver_gate:
        net -> driving gate name (absent for undriven nets).
    fanout_gates:
        net -> names of gates reading the net, in gate insertion order.
    fanout_nets:
        net -> successor nets (outputs of the reading gates, deduped,
        order preserved) -- the edge relation of the influence graph.
    fanin_nets:
        net -> the driving gate's input nets (empty for undriven nets).
    output_cone:
        net -> the primary outputs the net can reach through gates.  An
        empty set means no fault effect on the net can propagate to a
        primary output structurally.
    dominators:
        net -> its strict dominators towards the output sink: nets every
        path from this net to *any* primary output must pass through.
        Empty for nets that reach no output.
    immediate_dominator:
        net -> the closest strict dominator, when one exists.
    """

    nets: Tuple[str, ...]
    driver_gate: Dict[str, str]
    fanout_gates: Dict[str, Tuple[str, ...]]
    fanout_nets: Dict[str, Tuple[str, ...]]
    fanin_nets: Dict[str, Tuple[str, ...]]
    output_cone: Dict[str, FrozenSet[str]]
    dominators: Dict[str, FrozenSet[str]]
    immediate_dominator: Dict[str, Optional[str]]

    def in_cone(self, net: str) -> bool:
        """True when the net structurally reaches some primary output."""
        return bool(self.output_cone.get(net))


def _output_cones(
    nets: Tuple[str, ...],
    fanin_nets: Dict[str, Tuple[str, ...]],
    outputs: Tuple[str, ...],
) -> Dict[str, FrozenSet[str]]:
    cone_sets: Dict[str, set] = {net: set() for net in nets}
    for output in outputs:
        stack = [output]
        seen = {output}
        while stack:
            net = stack.pop()
            cone_sets[net].add(output)
            for upstream in fanin_nets.get(net, ()):
                if upstream not in seen:
                    seen.add(upstream)
                    stack.append(upstream)
    return {net: frozenset(members) for net, members in cone_sets.items()}


def _dominators(
    nets: Tuple[str, ...],
    fanout_nets: Dict[str, Tuple[str, ...]],
    output_cone: Dict[str, FrozenSet[str]],
) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, Optional[str]]]:
    """Strict dominators towards a virtual sink fed by every primary output.

    Iterative set-intersection dataflow over the (possibly cyclic --
    asynchronous circuits are feedback loops) influence graph:
    ``dom(n) = {n} | intersection of dom(s)`` over successors that reach
    the sink, with ``dom(sink) = {}``.  Nets outside every cone get the
    empty set.  Small graphs (hundreds of nets) make the naive fixpoint
    plenty fast.
    """
    reaching = [net for net in nets if output_cone.get(net)]
    if not reaching:
        return {net: frozenset() for net in nets}, {net: None for net in nets}
    universe = set(reaching)
    # Successors restricted to sink-reaching nets; a primary output's
    # "virtual sink" successor is modelled by allowing its intersection
    # term to be empty.
    succ: Dict[str, List[str]] = {
        net: [s for s in fanout_nets.get(net, ()) if s in universe]
        for net in reaching
    }
    is_exit = {net: bool(output_cone[net] & {net}) for net in reaching}
    dom: Dict[str, set] = {net: set(universe) for net in reaching}
    changed = True
    while changed:
        changed = False
        for net in reaching:
            terms = [dom[s] for s in succ[net]]
            if is_exit[net]:
                # The net is itself a primary output: one path ends here.
                merged = set()
            elif terms:
                merged = set.intersection(*terms)
            else:
                merged = set()
            merged = merged | {net}
            if merged != dom[net]:
                dom[net] = merged
                changed = True
    strict = {net: frozenset(dom[net] - {net}) for net in reaching}
    for net in nets:
        strict.setdefault(net, frozenset())
    # The immediate dominator is the strict dominator dominated by all
    # the others -- equivalently the one with the largest dominator set.
    idom: Dict[str, Optional[str]] = {}
    for net in nets:
        candidates = strict[net]
        if not candidates:
            idom[net] = None
            continue
        idom[net] = max(candidates, key=lambda d: (len(strict[d]), d))
    return strict, idom


class StructureAnalysis(AnalysisPass):
    """Connectivity, cones, and dominators for a ``Netlist``."""

    name = "structure"
    aspects = ("topology",)

    def run(self, subject: Any, deps: Dict[str, Any], **params: Any) -> NetlistStructure:
        nets = tuple(subject.nets)
        outputs = tuple(subject.primary_outputs)
        driver_gate: Dict[str, str] = {}
        fanin_nets: Dict[str, Tuple[str, ...]] = {}
        fanout_gates: Dict[str, List[str]] = {net: [] for net in nets}
        fanout_nets: Dict[str, List[str]] = {net: [] for net in nets}
        for gate in subject.gates:
            driver_gate[gate.output] = gate.name
            fanin_nets[gate.output] = tuple(gate.inputs)
            for net in dict.fromkeys(gate.inputs):
                fanout_gates[net].append(gate.name)
                if gate.output not in fanout_nets[net]:
                    fanout_nets[net].append(gate.output)
        fanout_gates_t = {net: tuple(gs) for net, gs in fanout_gates.items()}
        fanout_nets_t = {net: tuple(ns) for net, ns in fanout_nets.items()}
        for net in nets:
            fanin_nets.setdefault(net, ())
        output_cone = _output_cones(nets, fanin_nets, outputs)
        dominators, immediate = _dominators(nets, fanout_nets_t, output_cone)
        return NetlistStructure(
            nets=nets,
            driver_gate=driver_gate,
            fanout_gates=fanout_gates_t,
            fanout_nets=fanout_nets_t,
            fanin_nets=fanin_nets,
            output_cone=output_cone,
            dominators=dominators,
            immediate_dominator=immediate,
        )


class PackedFanoutAnalysis(AnalysisPass):
    """Fault-free packed fanout tables for a ``CompiledNetlist``.

    Identity-keyed on the compiled object (no fingerprint aspects): the
    result is the scalar drain's per-net ``(gate, op, row, inputs,
    output, delay)`` tuple list, built by the kernel's own packer so the
    two can never drift.
    """

    name = "packed-fanout"
    aspects = ()

    def run(self, subject: Any, deps: Dict[str, Any], **params: Any) -> List[Tuple]:
        # Imported lazily: the repro.engine package imports
        # repro.analysis (through faultsim) at module level, so the
        # reverse edge must bind at run time.
        from repro.engine.simkernel import pack_fanout_tables

        return pack_fanout_tables(subject)
