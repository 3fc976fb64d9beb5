"""``coverage`` capability: stuck-at fault-simulation campaigns.

Wraps :func:`repro.testability.stuck_at_coverage` over a small registry
of deterministic circuits, so a request names a circuit instead of
shipping a netlist over the wire:

``buffer``
    A single BUF cell under toggle rules -- synthesis-free, the smoke
    and quick-mode workhorse.
``fifo_rt``
    The paper's RT-synthesized FIFO cell (synthesis runs once per
    process and is cached).
``fifo_rt_chain:N``
    ``N`` chained FIFO cells (the paper's Figure 6 structure) built at
    netlist level from the cached cell.

The campaign itself runs on the batch fault engine; with ``shards`` /
``use_processes`` set its contiguous fault chunks dispatch through
:func:`repro.engine.resilience.supervised_map` on the persistent pool,
so worker failures degrade per-request, never per-server.  The payload
carries exact verdict counts plus the undetected fault list; partial
events stream the undetected rows in chunks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.circuit.analysis import (
    chain_environment_rules,
    fifo_environment_rules,
)
from repro.circuit.library import STANDARD_LIBRARY
from repro.circuit.netlist import Netlist, chain_handshake_cells
from repro.circuit.simulator import HandshakeRule
from repro.testability import stuck_at_coverage

NAME = "coverage"

#: Scheduler cost: one unit per this many picoseconds of campaign time.
COST_UNIT_DURATION_PS = 10_000.0

#: Longest campaign (``duration_ps``) one request may ask for.
MAX_DURATION_PS = 1_000_000.0
#: Longest ``fifo_rt_chain:N`` one request may name.
MAX_CHAIN_STAGES = 64

def cost(params: Dict[str, Any]) -> float:
    duration = float(params.get("duration_ps", 10_000.0))
    if not duration <= MAX_DURATION_PS:
        raise ValueError(
            f"duration_ps {duration:g} exceeds the cap of {MAX_DURATION_PS:g}"
        )
    stages = 1
    circuit = str(params.get("circuit", "buffer"))
    if circuit.startswith("fifo_rt_chain:"):
        stages = max(1, int(circuit.split(":", 1)[1]))
        if stages > MAX_CHAIN_STAGES:
            raise ValueError(
                f"fifo_rt_chain length {stages} exceeds the cap of "
                f"{MAX_CHAIN_STAGES}"
            )
    return max(1.0, stages * duration / COST_UNIT_DURATION_PS)


def _buffer_circuit() -> Tuple[Netlist, List[HandshakeRule], list]:
    netlist = Netlist("buffer")
    netlist.add_primary_input("a")
    netlist.add_primary_output("y")
    netlist.add_gate("buf", STANDARD_LIBRARY.get("BUF"), ["a"], "y")
    rules = [
        HandshakeRule("y", 1, "a", 0, 150.0),
        HandshakeRule("y", 0, "a", 1, 150.0),
    ]
    return netlist, rules, [("a", 1, 50.0)]


@lru_cache(maxsize=1)
def _fifo_rt_cell() -> Netlist:
    """The RT-synthesized FIFO cell, synthesized once per process."""
    from repro.stg import specs
    from repro.synthesis import synthesize_rt

    return synthesize_rt(specs.fifo_controller()).netlist


def resolve_circuit(
    name: str,
) -> Tuple[Netlist, List[HandshakeRule], list]:
    """(netlist, environment rules, stimuli) for a named circuit."""
    if name == "buffer":
        return _buffer_circuit()
    if name == "fifo_rt":
        return _fifo_rt_cell(), fifo_environment_rules(), [("li", 1, 50.0)]
    if name.startswith("fifo_rt_chain:"):
        stages = int(name.split(":", 1)[1])
        if stages < 1:
            raise ValueError(f"chain stages must be at least 1: {name!r}")
        return (
            chain_handshake_cells(_fifo_rt_cell(), stages),
            chain_environment_rules(stages),
            [("s0_li", 1, 50.0)],
        )
    raise ValueError(
        f"unknown circuit {name!r}; expected 'buffer', 'fifo_rt', "
        "or 'fifo_rt_chain:N'"
    )


def run(
    params: Dict[str, Any], emit: Callable[[Dict[str, Any]], None]
) -> Dict[str, Any]:
    """Run one campaign; stream undetected-fault chunks, return payload."""
    circuit = str(params.get("circuit", "buffer"))
    netlist, rules, stimuli = resolve_circuit(circuit)
    report = stuck_at_coverage(
        netlist,
        rules,
        initial_stimuli=stimuli,
        duration_ps=float(params.get("duration_ps", 10_000.0)),
        seed=int(params.get("seed", 7)),
        delay_jitter=float(params.get("delay_jitter", 0.0)),
        environment_jitter=float(params.get("environment_jitter", 0.0)),
        shards=params.get("shards"),
        use_processes=params.get("use_processes"),
        collapse=bool(params.get("collapse", True)),
    )
    payload = payload_of(report, circuit)
    chunk = int(params.get("stream_chunk", 0))
    if chunk > 0:
        rows = payload["undetected"]
        for first in range(0, len(rows), chunk):
            window = rows[first : first + chunk]
            emit({"first": first, "count": len(window), "undetected": window})
    return payload


def payload_of(report: Any, circuit: str) -> Dict[str, Any]:
    """The JSON payload for a :class:`CoverageReport` (exact fields).

    Shared with tests/benchmarks computing the direct engine baseline.
    """
    return {
        "circuit": circuit,
        "netlist": report.circuit,
        "total_faults": report.total_faults,
        "detected_faults": report.detected_faults,
        "coverage": report.coverage,
        "undetected": undetected_rows(report.undetected),
    }


def undetected_rows(faults: Sequence[Any]) -> List[List[Any]]:
    """Canonical ``[net, value]`` rows in campaign order."""
    return [[fault.net, fault.value] for fault in faults]
