"""``decode`` workload: generate a RAPPID instruction stream and decode it.

One op generates a seeded stream with ``WorkloadGenerator.workload`` and
decodes it with ``RappidDecoder.run``.  Ops alternate between the
default configuration (``prefetch_depth=2``, the batched engine's hot
loop) and ``prefetch_depth=1`` (its general loop), so a loop change that
wins on one configuration and loses on the other shows.

Stream sizes come from a fixed grid and only the stream contents from
the seed: the op-time distribution is then the same for every seed, and
its median falls between neighbouring sizes rather than between the two
configurations.  Each run cycles through the same twelve
(stream, configuration) pairs, so the oracle runs once per pair.
"""

from __future__ import annotations

import hashlib
import math
from array import array

from repro.rappid import RappidConfig, RappidDecoder, WorkloadGenerator

from common import Mismatch, median

#: Instructions per stream; one op takes about 0.1 s on a 2-CPU host.
STREAM_SIZES = (20_000, 22_000, 24_000, 26_000, 28_000, 30_000)
PREFETCH = (2, 1)

_TRAJECTORIES = (
    "issue_times_ps",
    "instruction_latencies_ps",
    "tag_intervals_ps",
    "line_intervals_ps",
    "steer_intervals_ps",
)


def _digest(result) -> dict:
    """Exact, compact form of a ``RappidResult`` for comparison."""
    fields = {
        "instruction_count": result.instruction_count,
        "line_count": result.line_count,
        "total_time_ps": result.total_time_ps,
    }
    for name in _TRAJECTORIES:
        values = array("d", getattr(result, name)).tobytes()
        fields[name] = hashlib.sha256(values).hexdigest()
    return fields


class Workload:
    NAME = "decode"
    #: Ops per full pass over the input mix.
    CYCLE = len(STREAM_SIZES) * len(PREFETCH)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.decoders = {
            depth: RappidDecoder(RappidConfig(prefetch_depth=depth))
            for depth in PREFETCH
        }
        #: Oracle outcomes by spec; JSON-able, so later processes reuse them.
        self.expected: dict = {}
        self.layer: dict = {"instructions": [], "lines": []}

    def spec(self, index: int):
        return (index // len(PREFETCH)) % len(STREAM_SIZES), PREFETCH[index % 2]

    def _generator(self, stream: int) -> WorkloadGenerator:
        return WorkloadGenerator(seed=self.seed * 100 + stream)

    def run(self, spec):
        stream, depth = spec
        instructions, lines = self._generator(stream).workload(STREAM_SIZES[stream])
        return self.decoders[depth].run(instructions, lines)

    def run_traced(self, spec, tracer):
        stream, depth = spec
        with tracer.span("decode.rappid.workload"):
            instructions, lines = self._generator(stream).workload(
                STREAM_SIZES[stream]
            )
        with tracer.span(f"decode.rappid.run.prefetch{depth}"):
            result = self.decoders[depth].run(instructions, lines)
        self.layer["instructions"].append(result.instruction_count)
        self.layer["lines"].append(result.line_count)
        return result

    def _expectation(self, spec):
        """Oracle outcome: ``RappidDecoder._reference_run`` on the same stream."""
        if spec not in self.expected:
            stream, depth = spec
            instructions, lines = self._generator(stream).workload(
                STREAM_SIZES[stream]
            )
            reference = self.decoders[depth]._reference_run(instructions, lines)
            self.expected[spec] = [
                _digest(reference),
                reference.energy_pj,
                reference.throughput_instructions_per_ns,
            ]
        return self.expected[spec]

    def model_lines(self) -> list:
        return [
            f"decode model: stream={stream} instructions={STREAM_SIZES[stream]} "
            f"prefetch_depth={depth} instr_per_ns={rate!r}"
            for (stream, depth), (_fields, _energy, rate) in sorted(self.expected.items())
        ]

    def check(self, spec, result) -> int:
        """Instructions decoded, or raise :class:`Mismatch`."""
        digest, energy, _rate = self._expectation(spec)
        if _digest(result) != digest:
            raise Mismatch(f"decode {spec}: trajectory differs from _reference_run")
        # The engine sums energy in closed form: equal up to the last ulp.
        if not math.isclose(result.energy_pj, energy, rel_tol=1e-12):
            raise Mismatch(f"decode {spec}: energy {result.energy_pj!r} != {energy!r}")
        return result.instruction_count

    def warmup(self) -> None:
        # The first run of each loop builds its lookup tables lazily.
        for index in range(len(PREFETCH)):
            self.run(self.spec(index))

    def layer_metrics(self, tracer) -> dict:
        workload = sum(tracer.durations_ms("decode.rappid.workload"))
        ops = sum(tracer.durations_ms("decode.op"))
        return {
            "decode.rappid.workload.ms": tracer.median_ms("decode.rappid.workload"),
            "decode.rappid.run.prefetch2.ms": tracer.median_ms(
                "decode.rappid.run.prefetch2"
            ),
            "decode.rappid.run.prefetch1.ms": tracer.median_ms(
                "decode.rappid.run.prefetch1"
            ),
            "decode.rappid.instructions": median(self.layer["instructions"]),
            "decode.rappid.lines": median(self.layer["lines"]),
            "decode.rappid.workload.share": workload / ops if ops else None,
        }

    def close(self) -> None:
        pass
