"""Batched RAPPID front-end evaluation.

:func:`run_batched` computes exactly what the reference per-instruction
loop in :mod:`repro.rappid.microarch` computes -- the same floating point
operations in the same order for every per-instruction time, so those
results are bit-identical -- while stripping the interpreter overhead:

* the three latency models (:func:`~repro.rappid.isa.decode_latency_ps`,
  ``tag_latency_ps``, ``steering_latency_ps``) collapse into lookup
  tables built once per call;
* the stream arrives as columns (a
  :class:`~repro.rappid.workload.InstructionStream`), so the loop reads
  flat lists instead of per-iteration dataclass attribute chains; a
  caller-built list of :class:`~repro.rappid.workload.Instruction`
  objects is marshalled into columns once, by
  :meth:`~repro.rappid.workload.InstructionStream.of`;
* the per-column (cache-line) arrival recursion is flattened into dict
  lookups with a recursive slow path only for lines in which no
  instruction starts, and each line's consumption time is stored when
  the stream leaves the line rather than once per instruction;
* interval/latency reductions run vectorised (numpy, exact float64 ops)
  when numpy is importable, with pure-Python fallbacks.

``energy_pj`` alone is accumulated as one closed-form sum instead of four
adds per instruction, so it may differ from the reference in the last
ulp; everything else compares equal with ``==``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rappid.isa import decode_latency_ps, steering_latency_ps, tag_latency_ps
from repro.rappid.workload import CacheLine, Instruction, InstructionStream

try:  # optional: same IEEE float64 ops, just faster; the image has it
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the toolchain
    _np = None

_NEG_INF = float("-inf")

# Magnitude bound under which sums of exactly-representable integers stay
# exactly representable in float64 through every intermediate below.
_EXACT_BOUND = float(2**50)


def _validate_config(config) -> None:
    """Reject configurations whose line-arrival recursion cannot terminate."""
    if config.prefetch_depth < 1:
        raise ValueError(
            f"prefetch_depth must be >= 1 (got {config.prefetch_depth}): "
            "a line's arrival is defined relative to the consumption of the "
            "line prefetch_depth earlier, so depth 0 would make every line "
            "block on itself"
        )


def _line_spans(
    lengths: Sequence[int], start_bytes: Sequence[int], line_bytes: int
) -> Tuple[List[int], List[int]]:
    """First and last cache line of every instruction, for ``line_bytes``
    lines (with a shift fast path for the default 16-byte lines)."""
    if line_bytes == 16:
        first_lines = [sb >> 4 for sb in start_bytes]
        last_lines = [(sb + length - 1) >> 4 for sb, length in zip(start_bytes, lengths)]
    else:
        first_lines = [sb // line_bytes for sb in start_bytes]
        last_lines = [
            (sb + length - 1) // line_bytes for sb, length in zip(start_bytes, lengths)
        ]
    return first_lines, last_lines


def _latency_tables(lengths: Sequence[int]) -> Tuple[List[float], List[float]]:
    """Tag/steer lookup tables covering the stream's instruction lengths."""
    size = max(lengths) + 1
    tag_table = [0.0] * size
    steer_table = [0.0] * size
    for length in set(lengths):
        tag_table[length] = tag_latency_ps(length)
        steer_table[length] = steering_latency_ps(length)
    return tag_table, steer_table


def _intervals(times: Sequence[float]) -> List[float]:
    """``[b - a for consecutive pairs if b > a]`` (IEEE-identical in numpy)."""
    if _np is not None and len(times) > 64:
        deltas = _np.diff(_np.asarray(times))
        return deltas[deltas > 0.0].tolist()
    return [b - a for a, b in zip(times, times[1:]) if b > a]


def run_batched(
    config,
    instructions: Sequence[Instruction],
    lines: Sequence[CacheLine],
) -> Optional[dict]:
    """Evaluate an instruction stream in one batched pass.

    Returns the measurement fields of
    :class:`~repro.rappid.microarch.RappidResult` as a dict (the caller
    owns the result type, avoiding a circular import), or ``None`` for an
    empty stream.
    """
    _validate_config(config)
    if not instructions:
        return None

    stream = InstructionStream.of(instructions, config.line_bytes)
    lengths = stream.lengths
    first_lines, last_lines = _line_spans(
        lengths, stream.start_bytes, config.line_bytes
    )
    tag_table, steer_table = _latency_tables(lengths)

    avail_times, tag_times, line_consumed = _hot_loop(
        lengths,
        stream.classes,
        first_lines,
        last_lines,
        tag_table,
        config.prefetch_depth,
        config.line_fetch_latency_ps,
    )
    issue_times, row_issues = _steer(
        tag_times,
        lengths,
        steer_table,
        config.rows,
        config.output_buffer_cycle_ps,
    )
    return _finalize(
        config,
        lengths,
        avail_times,
        tag_times,
        issue_times,
        row_issues,
        list(line_consumed.values()),
        len(instructions),
        len(lines),
    )


def _finalize(
    config,
    lengths: List[int],
    avail_times: Sequence[float],
    tag_times: Sequence[float],
    issue_times: Sequence[float],
    row_issues: Optional[list],
    consumed_values: List[float],
    instruction_count: int,
    line_count: int,
) -> dict:
    """Derive the measurement fields from the raw per-instruction times."""
    rows = config.rows
    steer_intervals: List[float] = []
    if _np is not None and len(issue_times) > 64:
        issue_arr = _np.asarray(issue_times)
        latencies = _np.subtract(issue_arr, _np.asarray(avail_times)).tolist()
        total_time = float(issue_arr.max())
        tag_deltas = _np.diff(_np.asarray(tag_times))
        tag_intervals = tag_deltas[tag_deltas > 0.0].tolist()
        for row in range(rows):
            # Round-robin row assignment: row r's issues sit at positions
            # congruent to r modulo rows.
            row_arr = row_issues[row] if row_issues else issue_arr[row::rows]
            row_deltas = _np.diff(row_arr)
            steer_intervals.extend(row_deltas[row_deltas > 0.0].tolist())
    else:
        latencies = [issue - avail for issue, avail in zip(issue_times, avail_times)]
        total_time = max(issue_times)
        tag_intervals = _intervals(tag_times)
        for row in range(rows):
            steer_intervals.extend(_intervals(issue_times[row::rows]))
    energy = (
        instruction_count
        * (config.decode_energy_pj + config.tag_energy_pj + config.steer_energy_pj)
        + config.byte_latch_energy_pj * sum(lengths)
    )
    line_intervals = _intervals(sorted(consumed_values))

    return {
        "instruction_count": instruction_count,
        "line_count": line_count,
        "total_time_ps": total_time,
        "issue_times_ps": list(issue_times),
        "instruction_latencies_ps": latencies,
        "tag_intervals_ps": tag_intervals,
        "line_intervals_ps": line_intervals,
        "steer_intervals_ps": steer_intervals,
        "energy_pj": energy,
    }


def _steer(
    tag_times: List[float],
    lengths: List[int],
    steer_table: List[float],
    rows: int,
    cycle: float,
) -> Tuple[List[float], Optional[list]]:
    """Issue times for round-robin steering into ``rows`` output buffers.

    The recurrence per row is ``issue[k] = max(tag[k], issue[k-1] + cycle)
    + steer[k]``, a max-plus scan.  When every input is an integer-valued
    float within :data:`_EXACT_BOUND` -- true for the calibration tables,
    whose picosecond latencies are whole numbers -- every intermediate of
    both the sequential reference loop and the ``cumsum``/
    ``maximum.accumulate`` transform below is an exactly-representable
    integer, so the vectorised result is bit-identical and the scan runs
    per row in C.  Anything else (fractional user calibrations, no numpy)
    falls back to the sequential loop.

    Returns ``(issue_times, per-row issue arrays or None)``.
    """
    n = len(tag_times)
    if _np is not None and n > 64:
        tag_arr = _np.asarray(tag_times)
        steer_arr = _np.asarray(steer_table)[_np.asarray(lengths)]
        exact = (
            float(cycle).is_integer()
            and cycle >= 0.0
            and bool(_np.isfinite(tag_arr).all())
            and bool((tag_arr == _np.floor(tag_arr)).all())
            and bool((steer_arr == _np.floor(steer_arr)).all())
            and float(_np.abs(tag_arr).max(initial=0.0)) < _EXACT_BOUND
            and float(_np.abs(steer_arr).max(initial=0.0)) < _EXACT_BOUND
            and n * (float(_np.abs(steer_arr).max(initial=0.0)) + cycle)
            < _EXACT_BOUND
        )
        if exact:
            issue_arr = _np.empty(n)
            row_issues = []
            for row in range(rows):
                tag_row = tag_arr[row::rows]
                if not len(tag_row):
                    row_issues.append(tag_row)
                    continue
                steer_row = steer_arr[row::rows]
                ceiling = tag_row + steer_row
                # Every buffer starts free at 0.0.
                ceiling[0] = max(ceiling[0], 0.0 + steer_row[0])
                offsets = _np.empty(len(tag_row))
                offsets[0] = 0.0
                _np.cumsum(steer_row[1:] + cycle, out=offsets[1:])
                issue_row = (
                    _np.maximum.accumulate(ceiling - offsets) + offsets
                )
                issue_arr[row::rows] = issue_row
                row_issues.append(issue_row)
            return issue_arr.tolist(), row_issues

    steer_lats = list(map(steer_table.__getitem__, lengths))
    issue_times: List[float] = []
    issue_append = issue_times.append
    buffer_free = [0.0] * rows
    row = 0
    for tag_time, steer_lat in zip(tag_times, steer_lats):
        free = buffer_free[row]
        steer_start = tag_time if tag_time >= free else free
        issue = steer_start + steer_lat
        buffer_free[row] = issue + cycle
        row += 1
        if row == rows:
            row = 0
        issue_append(issue)
    return issue_times, None


def _arrival_of(
    line_arrival: Dict[int, float],
    line_consumed: Dict[int, float],
    prefetch_depth: int,
    fetch_latency: float,
    line_index: int,
) -> float:
    """Recursive slow path: only lines with no instruction start in them.

    Module-level, and bound with ``partial`` by :func:`_hot_loop`: a
    nested function calling itself by name keeps itself alive through
    its own closure cell, and that cycle would pin both dicts until a
    full garbage collection.
    """
    cached = line_arrival.get(line_index)
    if cached is not None:
        return cached
    if line_index < prefetch_depth:
        arrival = 0.0
    else:
        blocker = line_index - prefetch_depth
        previous_done = line_consumed.get(blocker)
        if previous_done is None:
            previous_done = _arrival_of(
                line_arrival, line_consumed, prefetch_depth, fetch_latency, blocker
            )
        arrival = previous_done + fetch_latency
    line_arrival[line_index] = arrival
    return arrival


def _hot_loop(
    lengths: List[int],
    classes: List[object],
    first_lines: List[int],
    last_lines: List[int],
    tag_table: List[float],
    prefetch_depth: int,
    fetch_latency: float,
) -> Tuple[List[float], List[float], Dict[int, float]]:
    """Per-instruction recurrence with line-consumption stores deferred.

    Tag times are nondecreasing, so one store per line (of the line's last
    tag) equals the reference's per-instruction running max.  The deferral
    is observable only through a fetch that straddles into a line whose
    arrival reads the *current* line's consumption, so an instruction that
    starts in the current line and ends in a later one publishes the
    pending store before walking its lines.  The first tag starts from
    -inf, which reproduces the reference's position-0 special case
    without a branch.
    """
    table_size = len(tag_table)
    # Lazy decode-latency caches: the class first seen at each length,
    # its latency, and every other (length, class) pair.
    decode_class: List[object] = [None] * table_size
    decode_lat_of = [0.0] * table_size
    decode_overflow: Dict[tuple, float] = {}
    line_arrival: Dict[int, float] = {}
    line_consumed: Dict[int, float] = {}
    arrival_get = line_arrival.get
    consumed_get = line_consumed.get
    arrival_of = partial(
        _arrival_of, line_arrival, line_consumed, prefetch_depth, fetch_latency
    )

    avail_times: List[float] = []
    tag_times: List[float] = []
    avail_append = avail_times.append
    tag_append = tag_times.append

    previous_tag_time = _NEG_INF
    previous_length = 0
    current_line = -1
    current_avail = 0.0
    for length, instruction_class, first_line, last_line in zip(
        lengths, classes, first_lines, last_lines
    ):
        if first_line == current_line:
            bytes_available = current_avail
            if last_line != first_line:
                line_consumed[current_line] = previous_tag_time
        else:
            if current_line >= 0:
                line_consumed[current_line] = previous_tag_time
            bytes_available = arrival_get(first_line)
            if bytes_available is None:
                if first_line < prefetch_depth:
                    bytes_available = 0.0
                else:
                    previous_done = consumed_get(first_line - prefetch_depth)
                    if previous_done is None:
                        previous_done = arrival_of(first_line - prefetch_depth)
                    bytes_available = previous_done + fetch_latency
                line_arrival[first_line] = bytes_available
            current_line = first_line
            current_avail = bytes_available
        if last_line != first_line:
            for line in range(first_line + 1, last_line + 1):
                arrival = arrival_get(line)
                if arrival is None:
                    if line < prefetch_depth:
                        arrival = 0.0
                    else:
                        previous_done = consumed_get(line - prefetch_depth)
                        if previous_done is None:
                            previous_done = arrival_of(line - prefetch_depth)
                        arrival = previous_done + fetch_latency
                    line_arrival[line] = arrival
                if arrival > bytes_available:
                    bytes_available = arrival
        avail_append(bytes_available)

        if decode_class[length] is instruction_class:
            decode_lat = decode_lat_of[length]
        else:
            decode_lat = decode_overflow.get((length, instruction_class))
            if decode_lat is None:
                decode_lat = decode_latency_ps(length, instruction_class)
                decode_overflow[(length, instruction_class)] = decode_lat
            if decode_class[length] is None:
                decode_class[length] = instruction_class
                decode_lat_of[length] = decode_lat
        ready = bytes_available + decode_lat

        tag_time = previous_tag_time + tag_table[previous_length]
        if tag_time < ready:
            tag_time = ready
        tag_append(tag_time)

        previous_tag_time = tag_time
        previous_length = length
    if current_line >= 0:
        line_consumed[current_line] = previous_tag_time
    return avail_times, tag_times, line_consumed
