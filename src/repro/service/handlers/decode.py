"""``decode`` capability: RAPPID instruction-stream decoding.

Wraps :meth:`repro.rappid.microarch.RappidDecoder.run`, an in-process
engine call.  The workload itself is generated server-side from the
request's seed, so a request is a few hundred bytes no matter how many
instructions it decodes.  Requests may carry only ``seed``,
``instructions``, ``config`` and ``stream_chunk``; any other key is
rejected at admission, so a client never has a knob silently ignored.

The result payload carries the run's exact scalar measurements plus
SHA-256 signatures over the full issue-time and latency trajectories
(little-endian float64 stream), so bit-identity against a direct engine
call is a string comparison.  With ``stream_chunk`` set, the handler
streams one partial per trajectory chunk -- first index, count, running
issue time, and the chunk's signature -- while the final payload still
covers the whole run.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from functools import lru_cache
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.rappid.microarch import RappidConfig, RappidDecoder
from repro.rappid.workload import CacheLines, InstructionStream, WorkloadGenerator

NAME = "decode"

#: Cost normalisation: one scheduler cost unit per this many instructions.
COST_UNIT_INSTRUCTIONS = 10_000.0

#: Largest ``instructions`` one request may decode; admission rejects more.
MAX_INSTRUCTIONS = 200_000

_CONFIG_FIELDS = frozenset(RappidConfig.__dataclass_fields__)

#: Every request parameter the capability understands.
_PARAMS = ("seed", "instructions", "config", "stream_chunk")


def trajectory_signature(values: Sequence[float]) -> str:
    """SHA-256 over the exact little-endian float64 stream (order-sensitive)."""
    buffer = array("d", values)
    if sys.byteorder == "big":
        buffer.byteswap()
    return hashlib.sha256(buffer).hexdigest()


def cost(params: Dict[str, Any]) -> float:
    """Scheduler cost; rejects unknown params and over-cap streams."""
    unknown = set(params) - set(_PARAMS)
    if unknown:
        raise ValueError(
            f"unknown decode params {sorted(unknown)}; expected a subset of "
            f"{list(_PARAMS)}"
        )
    count = int(params.get("instructions", 2_000))
    if count > MAX_INSTRUCTIONS:
        raise ValueError(
            f"instructions {count} exceeds the cap of {MAX_INSTRUCTIONS}"
        )
    return max(1.0, count / COST_UNIT_INSTRUCTIONS)


@lru_cache(maxsize=32)
def _workload(
    seed: int, count: int, line_bytes: int
) -> Tuple[InstructionStream, CacheLines]:
    """Deterministic (instructions, lines) for a request's workload knobs.

    Cached so requests repeating a workload (the load generator's
    steady state) skip regeneration.  The cached values are
    the generator's read-only columnar views, which ``run`` reads
    without copying.
    """
    return WorkloadGenerator(seed=seed, line_bytes=line_bytes).workload(count)


def run(
    params: Dict[str, Any], emit: Callable[[Dict[str, Any]], None]
) -> Dict[str, Any]:
    """Decode one synthetic stream; stream trajectory chunks, return payload."""
    overrides = dict(params.get("config") or {})
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown RappidConfig fields: {sorted(unknown)}")
    config = RappidConfig(**overrides)
    seed = int(params.get("seed", 0))
    count = int(params.get("instructions", 2_000))
    if count < 1:
        raise ValueError("instructions must be at least 1")

    instructions, lines = _workload(seed, count, config.line_bytes)
    result = RappidDecoder(config).run(instructions, lines)

    chunk = int(params.get("stream_chunk", 0))
    if chunk > 0:
        for partial in partials_of(result, chunk):
            emit(partial)
    return payload_of(result)


def payload_of(result: Any) -> Dict[str, Any]:
    """The JSON payload for a :class:`RappidResult` (exact fields only).

    Shared by the server and by tests/benchmarks computing the direct
    engine baseline: bit-identity of two runs reduces to equality of the
    two payload dicts.
    """
    return {
        "instruction_count": result.instruction_count,
        "line_count": result.line_count,
        "total_time_ps": result.total_time_ps,
        "energy_pj": result.energy_pj,
        "throughput_instructions_per_ns": result.throughput_instructions_per_ns,
        "average_latency_ps": result.average_latency_ps,
        "issue_signature": trajectory_signature(result.issue_times_ps),
        "latency_signature": trajectory_signature(
            result.instruction_latencies_ps
        ),
    }


def partials_of(result: Any, chunk: int) -> List[Dict[str, Any]]:
    """The partial chunks :func:`run` would stream for ``result``.

    Used by tests to pin the streamed chunks bit-identical to a direct
    engine run without re-implementing the chunking.
    """
    partials: List[Dict[str, Any]] = []
    issues = result.issue_times_ps
    for first in range(0, len(issues), chunk):
        window = issues[first : first + chunk]
        partials.append(
            {
                "first": first,
                "count": len(window),
                "last_issue_ps": window[-1],
                "signature": trajectory_signature(window),
            }
        )
    return partials
