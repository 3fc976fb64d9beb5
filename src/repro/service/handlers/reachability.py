"""``reachability`` capability: Petri-net state-space exploration.

Wraps :func:`repro.petrinet.reachability.explore` (stubborn-set
partial-order reduction, the deadlock-preserving default) and the flat
:func:`~repro.petrinet.reachability.build_reachability_graph` when a
request asks for the ``full`` graph.  Specs come from the STG library
(:data:`repro.stg.specs.ALL_SPECS`) by name; the parametric control
family is addressed as ``rappid_control:BxC`` (``B`` bytes x ``C``
columns), so a paper-scale verification is one small request frame.

Exploration is CPU-bound in-process (no pool dispatch to supervise --
``explore`` is itself the supervised entry point the contract lint
accepts for this module).  The payload pins the exact exploration
outcome: state count, deadlock markings (canonical sorted token lists),
and a deadlock-set signature, so service-vs-direct bit-identity is a
dict comparison.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

from repro.petrinet.reachability import (
    Reduction,
    build_reachability_graph,
    explore,
)
from repro.stg import specs

NAME = "reachability"

#: Scheduler cost: one unit per this many explored-state budget.
COST_UNIT_STATES = 50_000.0

#: Largest ``max_states`` budget one request may ask for.
MAX_STATES = 1_000_000

def cost(params: Dict[str, Any]) -> float:
    max_states = float(params.get("max_states", 50_000))
    if not max_states <= MAX_STATES:
        raise ValueError(f"max_states {max_states:g} exceeds the cap of {MAX_STATES}")
    return max(1.0, max_states / COST_UNIT_STATES)


def resolve_spec(name: str):
    """A spec's Petri net, by library name or ``rappid_control:BxC``."""
    if name.startswith("rappid_control:"):
        dims = name.split(":", 1)[1]
        try:
            n_bytes, n_columns = (int(part) for part in dims.split("x"))
        except ValueError as exc:
            raise ValueError(
                f"bad rappid_control dimensions {dims!r}; expected 'BxC'"
            ) from exc
        return specs.rappid_control(n_bytes, n_columns).net
    return specs.load_spec(name).net


def marking_rows(markings: List[Any]) -> List[List[List[Any]]]:
    """Canonical sorted ``[[place, count], ...]`` rows, sorted overall."""
    rows = [
        [[place, count] for place, count in sorted(m.as_dict().items())]
        for m in markings
    ]
    rows.sort()
    return rows


def run(
    params: Dict[str, Any], emit: Callable[[Dict[str, Any]], None]
) -> Dict[str, Any]:
    """Explore one spec; stream deadlock chunks, return the payload."""
    spec = str(params.get("spec", "fifo"))
    net = resolve_spec(spec)
    max_states = int(params.get("max_states", 50_000))
    mode = str(params.get("reduction", "deadlocks"))
    if mode == "full":
        graph = build_reachability_graph(net, max_states=max_states)
    elif mode == "deadlocks":
        graph = explore(
            net, max_states=max_states, reduction=Reduction.DEADLOCKS
        )
    else:
        raise ValueError(
            f"unknown reduction {mode!r}; expected 'deadlocks' or 'full'"
        )
    payload = payload_of(graph, spec, mode)
    chunk = int(params.get("stream_chunk", 0))
    if chunk > 0:
        rows = payload["deadlocks"]
        for first in range(0, len(rows), chunk):
            window = rows[first : first + chunk]
            emit({"first": first, "count": len(window), "deadlocks": window})
    return payload


def payload_of(graph: Any, spec: str, mode: str) -> Dict[str, Any]:
    """The JSON payload for a reachability graph (exact fields).

    Shared with tests/benchmarks computing the direct engine baseline.
    """
    deadlocks = marking_rows(graph.deadlocks())
    signature = hashlib.sha256(
        json.dumps(deadlocks, sort_keys=True).encode()
    ).hexdigest()
    return {
        "spec": spec,
        "reduction": mode,
        "states": len(graph.markings),
        "deadlocks": deadlocks,
        "deadlock_free": not deadlocks,
        "deadlock_signature": signature,
    }
