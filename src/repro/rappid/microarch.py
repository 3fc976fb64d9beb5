"""Behavioural model of the RAPPID microarchitecture.

The model follows the three intertwined self-timed cycles of Section 2.2:

* **Length decoding / instruction ready cycle** -- every byte column
  speculatively decodes the length of the instruction that would start
  there; an instruction is *ready* once its first byte's decoder has
  finished and all its bytes have arrived.
* **Tag cycle** -- a single tag revolves through the 16 x 4 torus, moving
  from the first byte of one instruction directly to the first byte of the
  next; its per-hop latency depends on the instruction length (fast path for
  common lengths).
* **Steering cycle** -- the tagged instruction is aligned across the
  crossbar into one of four output buffers; each buffer (row) works
  independently, so up to four instructions are in flight in the steering
  fabric.

Because every unit is self-timed, throughput follows the *average* of these
latencies rather than the worst case -- the central claim the model needs to
reproduce.  Energy is activity-based; area is a transistor-count estimate of
the sixteen decode columns, tag fabric, crossbar and buffers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.rappid.isa import (
    decode_latency_ps,
    steering_latency_ps,
    tag_latency_ps,
)
from repro.rappid.workload import CacheLine, Instruction


@dataclass
class RappidConfig:
    """Structural and calibration parameters of the RAPPID model.

    ``prefetch_depth`` must be at least 1 (a line's arrival is defined
    relative to the consumption of the line ``prefetch_depth`` earlier);
    the run entry points reject depth 0 with a ``ValueError``.
    """

    columns: int = 16                 # byte columns / parallel length decoders
    rows: int = 4                     # output buffers (issue width)
    line_bytes: int = 16
    line_fetch_latency_ps: float = 150.0    # residual FIFO hand-off (prefetch hides the rest)
    prefetch_depth: int = 2                 # lines buffered ahead by the input FIFO
    output_buffer_cycle_ps: float = 380.0   # per-row buffer recovery time
    byte_latch_energy_pj: float = 0.9       # per byte latched
    decode_energy_pj: float = 4.5           # per length decoder activation
    tag_energy_pj: float = 1.6              # per tag hop
    steer_energy_pj: float = 6.0            # per instruction steered
    # Transistor-count model for area comparisons.
    transistors_per_decoder: int = 2600
    transistors_per_column_latch: int = 900
    transistors_tag_unit: int = 520          # per column
    transistors_crossbar_per_cell: int = 260  # per column x row
    transistors_output_buffer: int = 5200     # per row
    transistors_control_overhead: int = 9000


@dataclass
class RappidResult:
    """Measurements of one RAPPID simulation run."""

    config: RappidConfig
    instruction_count: int
    line_count: int
    total_time_ps: float
    issue_times_ps: List[float] = field(default_factory=list)
    instruction_latencies_ps: List[float] = field(default_factory=list)
    tag_intervals_ps: List[float] = field(default_factory=list)
    line_intervals_ps: List[float] = field(default_factory=list)
    steer_intervals_ps: List[float] = field(default_factory=list)
    energy_pj: float = 0.0

    @property
    def throughput_instructions_per_ns(self) -> float:
        if self.total_time_ps <= 0:
            return 0.0
        return 1000.0 * self.instruction_count / self.total_time_ps

    @property
    def average_latency_ps(self) -> float:
        return statistics.fmean(self.instruction_latencies_ps) if self.instruction_latencies_ps else 0.0

    @property
    def tag_rate_ghz(self) -> float:
        """Average tag cycle frequency in GHz."""
        if not self.tag_intervals_ps:
            return 0.0
        return 1000.0 / statistics.fmean(self.tag_intervals_ps)

    @property
    def steering_rate_ghz(self) -> float:
        if not self.steer_intervals_ps:
            return 0.0
        return 1000.0 / statistics.fmean(self.steer_intervals_ps)

    @property
    def length_decode_rate_ghz(self) -> float:
        if not self.line_intervals_ps:
            return 0.0
        # One length-decode cycle per line per column; the per-column rate is
        # the line consumption rate.
        return 1000.0 / statistics.fmean(self.line_intervals_ps)

    @property
    def lines_per_second(self) -> float:
        if self.total_time_ps <= 0:
            return 0.0
        return self.line_count / (self.total_time_ps * 1e-12)

    @property
    def power_watts(self) -> float:
        if self.total_time_ps <= 0:
            return 0.0
        return self.energy_pj * 1e-12 / (self.total_time_ps * 1e-12)

    @property
    def energy_per_instruction_pj(self) -> float:
        if not self.instruction_count:
            return 0.0
        return self.energy_pj / self.instruction_count

    @property
    def transistor_count(self) -> int:
        config = self.config
        return (
            config.columns
            * (
                config.transistors_per_decoder
                + config.transistors_per_column_latch
                + config.transistors_tag_unit
            )
            + config.columns * config.rows * config.transistors_crossbar_per_cell
            + config.rows * config.transistors_output_buffer
            + config.transistors_control_overhead
        )

    def summary(self) -> Dict[str, float]:
        return {
            "instructions": float(self.instruction_count),
            "throughput_per_ns": round(self.throughput_instructions_per_ns, 3),
            "avg_latency_ps": round(self.average_latency_ps, 1),
            "tag_rate_ghz": round(self.tag_rate_ghz, 2),
            "steering_rate_ghz": round(self.steering_rate_ghz, 2),
            "length_decode_rate_ghz": round(self.length_decode_rate_ghz, 2),
            "lines_per_second_millions": round(self.lines_per_second / 1e6, 1),
            "power_watts": round(self.power_watts, 3),
            "energy_per_instruction_pj": round(self.energy_per_instruction_pj, 2),
            "transistors": float(self.transistor_count),
        }


def _oracle_line_arrival(
    line_arrival: Dict[int, float],
    line_consumed: Dict[int, float],
    config: RappidConfig,
    line_index: int,
) -> float:
    """Arrival time of a cache line for :meth:`RappidDecoder._reference_run`.

    Module-level, and bound with ``partial``, so the recursion holds no
    closure cell: a nested function calling itself by name is a
    reference cycle that keeps the run's line dicts alive until a full
    garbage collection.
    """
    if line_index in line_arrival:
        return line_arrival[line_index]
    if line_index < config.prefetch_depth:
        line_arrival[line_index] = 0.0
    else:
        blocker = line_index - config.prefetch_depth
        # Explicit None check: a .get() default would evaluate the
        # recursion eagerly even when the blocker is already consumed.
        previous_done = line_consumed.get(blocker)
        if previous_done is None:
            previous_done = _oracle_line_arrival(
                line_arrival, line_consumed, config, blocker
            )
        line_arrival[line_index] = previous_done + config.line_fetch_latency_ps
    return line_arrival[line_index]


class RappidDecoder:
    """Discrete-event behavioural simulator of the RAPPID front end."""

    def __init__(self, config: Optional[RappidConfig] = None) -> None:
        self.config = config or RappidConfig()

    def run(self, instructions: Sequence[Instruction], lines: Sequence[CacheLine]) -> RappidResult:
        """Simulate the decoding and steering of an instruction stream.

        Delegates to the batched engine runner
        (:func:`repro.engine.rappid_batch.run_batched`), which performs the
        same floating-point operations in the same order as the retained
        :meth:`_reference_run`: every per-instruction time compares equal
        with ``==``.  Sole exception: ``energy_pj`` is accumulated as one
        closed-form sum and may differ from the reference in the last ulp.
        """
        from repro.engine.rappid_batch import run_batched

        fields = run_batched(self.config, instructions, lines)
        if fields is None:
            return RappidResult(
                config=self.config, instruction_count=0, line_count=0, total_time_ps=0.0
            )
        return RappidResult(config=self.config, **fields)

    def _reference_run(self, instructions: Sequence[Instruction], lines: Sequence[CacheLine]) -> RappidResult:
        """Pre-engine per-instruction loop, kept as the differential oracle."""
        from repro.engine.rappid_batch import _validate_config

        config = self.config
        _validate_config(config)
        if not instructions:
            return RappidResult(config=config, instruction_count=0, line_count=0, total_time_ps=0.0)

        # Cache line arrival times.  The input FIFO prefetches
        # ``prefetch_depth`` lines ahead, so line ``i`` is already sitting in
        # the byte latches while line ``i - prefetch_depth`` is still being
        # consumed; only a small residual hand-off latency remains.
        line_arrival: Dict[int, float] = {}
        line_consumed: Dict[int, float] = {}
        arrival_of = partial(_oracle_line_arrival, line_arrival, line_consumed, config)

        energy = 0.0
        issue_times: List[float] = []
        latencies: List[float] = []
        tag_times: List[float] = []
        steer_times_per_row: Dict[int, List[float]] = {r: [] for r in range(config.rows)}
        buffer_free = [0.0] * config.rows

        previous_tag_time = 0.0
        previous_length = None

        for position, instruction in enumerate(instructions):
            first_line = instruction.start_byte // config.line_bytes
            last_line = (instruction.start_byte + instruction.length - 1) // config.line_bytes
            bytes_available = max(arrival_of(line) for line in range(first_line, last_line + 1))

            # Length decoding / instruction-ready cycle.
            ready = bytes_available + decode_latency_ps(
                instruction.length, instruction.instruction_class
            )
            energy += config.decode_energy_pj
            energy += config.byte_latch_energy_pj * instruction.length

            # Tag cycle: the tag reaches this instruction one tag hop after it
            # reached the previous one, and cannot leave before the
            # instruction is ready.
            if position == 0:
                tag_time = ready
            else:
                hop = tag_latency_ps(previous_length)
                tag_time = max(previous_tag_time + hop, ready)
            energy += config.tag_energy_pj
            tag_times.append(tag_time)

            # Steering cycle: the tagged instruction goes to the next output
            # buffer (round robin over rows).
            row = position % config.rows
            steer_start = max(tag_time, buffer_free[row])
            issue = steer_start + steering_latency_ps(instruction.length)
            buffer_free[row] = issue + config.output_buffer_cycle_ps
            energy += config.steer_energy_pj
            steer_times_per_row[row].append(issue)

            issue_times.append(issue)
            latencies.append(issue - bytes_available)

            # A line is consumed once the last instruction starting in it has
            # been tagged (its bytes are no longer needed by the front end).
            line_consumed[first_line] = max(line_consumed.get(first_line, 0.0), tag_time)

            previous_tag_time = tag_time
            previous_length = instruction.length

        total_time = max(issue_times)
        tag_intervals = [b - a for a, b in zip(tag_times, tag_times[1:]) if b > a]
        line_times = sorted(line_consumed.values())
        line_intervals = [b - a for a, b in zip(line_times, line_times[1:]) if b > a]
        steer_intervals: List[float] = []
        for row_times in steer_times_per_row.values():
            steer_intervals.extend(
                b - a for a, b in zip(row_times, row_times[1:]) if b > a
            )

        return RappidResult(
            config=config,
            instruction_count=len(instructions),
            line_count=len(lines),
            total_time_ps=total_time,
            issue_times_ps=issue_times,
            instruction_latencies_ps=latencies,
            tag_intervals_ps=tag_intervals,
            line_intervals_ps=line_intervals,
            steer_intervals_ps=steer_intervals,
            energy_pj=energy,
        )
