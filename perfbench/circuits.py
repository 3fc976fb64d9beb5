"""The paper's RT-synthesized FIFO cell, chained, with its environment.

Shared by the ``sim`` and ``faults`` workloads.  Matches the
``fifo_rt_chain:N`` circuit of the service's coverage capability: the
same cell, the same chain rules and the same start stimulus.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.circuit.analysis import chain_environment_rules
from repro.circuit.netlist import Netlist, chain_handshake_cells
from repro.circuit.simulator import HandshakeRule
from repro.stg import specs
from repro.synthesis import synthesize_rt

#: Chain lengths both workloads draw from.
STAGES = (4, 8, 16)

Chain = Tuple[Netlist, List[HandshakeRule], List[Tuple[str, int, float]]]


def fifo_chains(stages=STAGES) -> Dict[int, Chain]:
    """Synthesize the FIFO cell once and chain it ``n`` times per ``n``."""
    cell = synthesize_rt(specs.fifo_controller()).netlist
    return {
        n: (
            chain_handshake_cells(cell, n),
            chain_environment_rules(n),
            [("s0_li", 1, 50.0)],
        )
        for n in stages
    }
