"""Synthetic instruction workloads.

The paper evaluates RAPPID on instruction streams delivered as 16-byte cache
lines.  Real traces are proprietary; the generator below draws instruction
lengths from the published-statistics-inspired distribution in
:mod:`repro.rappid.isa` (or a caller-supplied one) and packs them into cache
lines exactly as the front end would see them -- instructions may straddle
line boundaries.

Streams are columnar.  The generator draws one ``random()`` per
instruction, maps every roll to its length bucket with one C-level
``bisect`` pass, and derives the start bytes with one ``accumulate``
pass.  :class:`InstructionStream` and :class:`CacheLines` are lazy
read-only views over those columns: they build :class:`Instruction` and
:class:`CacheLine` objects only when indexed or iterated, while
:meth:`repro.rappid.microarch.RappidDecoder.run` reads the columns
directly.  The per-object loop is kept as
:meth:`WorkloadGenerator._reference_instructions`, the stream oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple, Union

from repro.rappid.isa import (
    LENGTH_CLASSES,
    InstructionClass,
    LengthClass,
    class_of_length,
)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction in the synthetic stream."""

    index: int
    length: int
    instruction_class: InstructionClass
    start_byte: int  # absolute byte offset in the stream

    def line_of(self, line_bytes: int = 16) -> int:
        """Cache line holding the first byte, for a given line geometry."""
        return self.start_byte // line_bytes

    @property
    def line_index(self) -> int:
        """``line_of`` for the default 16-byte lines (use :meth:`line_of`
        whenever the configuration's ``line_bytes`` may differ)."""
        return self.start_byte // 16

    @property
    def column(self) -> int:
        """Byte column (0..15) of the first byte within a 16-byte line."""
        return self.start_byte % 16


@dataclass
class CacheLine:
    """One cache line with the instructions that *start* in it."""

    index: int
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)



def _position(index: int, size: int) -> int:
    """``index`` as a non-negative position, or ``IndexError``."""
    if index < 0:
        index += size
    if not 0 <= index < size:
        raise IndexError("index out of range")
    return index


class InstructionStream(SequenceABC):
    """A columnar instruction stream: a lazy ``Sequence[Instruction]``.

    ``lengths``, ``classes`` and ``start_bytes`` are parallel lists, one
    entry per instruction in stream order; ``line_bytes`` is the cache
    line geometry the stream is grouped by.  Indexing (negative indices
    included) and iteration build :class:`Instruction` objects whose
    ``index`` is the position in the stream; a slice returns a list.
    The columns are shared, never copied, and must not be mutated.
    """

    __slots__ = ("lengths", "classes", "start_bytes", "line_bytes")

    def __init__(
        self,
        lengths: List[int],
        classes: List[InstructionClass],
        start_bytes: List[int],
        line_bytes: int = 16,
    ) -> None:
        self.lengths = lengths
        self.classes = classes
        self.start_bytes = start_bytes
        self.line_bytes = line_bytes

    @classmethod
    def of(
        cls, instructions: Sequence[Instruction], line_bytes: int = 16
    ) -> "InstructionStream":
        """``instructions`` as a stream grouped by ``line_bytes`` lines.

        A stream is returned as is, or re-viewed over the same columns
        for another geometry; any other sequence of instructions is
        marshalled into columns once (positions replace its indices).
        """
        if isinstance(instructions, InstructionStream):
            if instructions.line_bytes == line_bytes:
                return instructions
            return cls(
                instructions.lengths,
                instructions.classes,
                instructions.start_bytes,
                line_bytes,
            )
        return cls(
            list(map(attrgetter("length"), instructions)),
            list(map(attrgetter("instruction_class"), instructions)),
            list(map(attrgetter("start_byte"), instructions)),
            line_bytes,
        )

    @property
    def end_byte(self) -> int:
        """One past the last instruction's last byte (0 when empty)."""
        if not self.lengths:
            return 0
        return self.start_bytes[-1] + self.lengths[-1]

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = _position(index, len(self.lengths))
        return Instruction(i, self.lengths[i], self.classes[i], self.start_bytes[i])

    def __iter__(self):
        return map(
            Instruction,
            range(len(self.lengths)),
            self.lengths,
            self.classes,
            self.start_bytes,
        )


class CacheLines(SequenceABC):
    """A lazy ``Sequence[CacheLine]`` over an :class:`InstructionStream`.

    There is one line per ``stream.line_bytes`` bytes up to the stream's
    last end byte.  Line ``i`` bisects the stream's start bytes for the
    instructions that start in it, so the stream must be laid out in
    increasing address order (every generated stream is).
    """

    __slots__ = ("stream", "_count")

    def __init__(self, stream: InstructionStream) -> None:
        self.stream = stream
        line_bytes = stream.line_bytes
        self._count = (stream.end_byte + line_bytes - 1) // line_bytes

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        i = _position(index, self._count)
        stream = self.stream
        line_bytes = stream.line_bytes
        first = bisect_left(stream.start_bytes, i * line_bytes)
        end = bisect_left(stream.start_bytes, (i + 1) * line_bytes, first)
        return CacheLine(index=i, instructions=stream[first:end])


class WorkloadGenerator:
    """Generate reproducible synthetic instruction streams."""

    def __init__(
        self,
        seed: int = 0,
        length_classes: Sequence[LengthClass] = LENGTH_CLASSES,
        line_bytes: int = 16,
    ) -> None:
        self.seed = seed
        self.length_classes = list(length_classes)
        self.line_bytes = line_bytes
        self._rng = random.Random(seed)
        total = sum(c.probability for c in self.length_classes)
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"length distribution sums to {total}, expected 1.0")
        if any(c.probability < 0.0 for c in self.length_classes):
            raise ValueError("length class probabilities must be non-negative")

    def _stream(
        self, lengths: List[int], classes: List[InstructionClass]
    ) -> InstructionStream:
        """Lay ``lengths`` out back to back from byte 0."""
        start_bytes = list(accumulate(lengths, initial=0))
        start_bytes.pop()  # the end byte of the last instruction
        return InstructionStream(lengths, classes, start_bytes, self.line_bytes)

    def instructions(self, count: int) -> InstructionStream:
        """Generate ``count`` instructions laid out back to back in memory.

        Draws exactly the rolls :meth:`_reference_instructions` draws and
        picks the same buckets: ``accumulate`` makes the same float adds,
        in the same order, as :meth:`_draw_length`'s running sum, and
        ``bisect_left`` finds the first bound the roll does not exceed.
        The last bound is left out, so a roll above every bound (a
        distribution summing to less than 1) lands in the last bucket,
        as :meth:`_draw_length`'s fallback does.
        """
        buckets = self.length_classes
        bounds = list(accumulate(bucket.probability for bucket in buckets))[:-1]
        draw = self._rng.random
        picks = list(map(partial(bisect_left, bounds), [draw() for _ in range(count)]))
        bucket_lengths = [bucket.length for bucket in buckets]
        bucket_classes = [bucket.instruction_class for bucket in buckets]
        return self._stream(
            list(map(bucket_lengths.__getitem__, picks)),
            list(map(bucket_classes.__getitem__, picks)),
        )

    def _draw_length(self) -> LengthClass:
        roll = self._rng.random()
        cumulative = 0.0
        for bucket in self.length_classes:
            cumulative += bucket.probability
            if roll <= cumulative:
                return bucket
        return self.length_classes[-1]

    def _reference_instructions(self, count: int) -> List[Instruction]:
        """Per-object generator loop, kept as the stream oracle."""
        result: List[Instruction] = []
        offset = 0
        for index in range(count):
            bucket = self._draw_length()
            result.append(
                Instruction(
                    index=index,
                    length=bucket.length,
                    instruction_class=bucket.instruction_class,
                    start_byte=offset,
                )
            )
            offset += bucket.length
        return result

    def fixed_length_instructions(self, count: int, length: int) -> InstructionStream:
        """A degenerate stream where every instruction has the same length.

        Used for the scalability sweeps of Figure 1: lines with many short
        instructions stress the tag and steering cycles, lines with few long
        instructions stress the length decoders.
        """
        return self._stream([length] * count, [class_of_length(length)] * count)

    def cache_lines(self, instructions: Sequence[Instruction]) -> CacheLines:
        """Group instructions by the cache line their first byte lives in."""
        return CacheLines(InstructionStream.of(instructions, self.line_bytes))

    def workload(self, instruction_count: int) -> Tuple[InstructionStream, CacheLines]:
        """Convenience: generate instructions and their cache lines."""
        instructions = self.instructions(instruction_count)
        return instructions, self.cache_lines(instructions)

    def statistics(self, instructions: Sequence[Instruction]) -> Dict[str, float]:
        """Summary statistics of a stream (mean length, class mix, etc.)."""
        if not instructions:
            return {"count": 0}
        lengths = [i.length for i in instructions]
        by_class: Dict[str, int] = {}
        for instruction in instructions:
            key = instruction.instruction_class.value
            by_class[key] = by_class.get(key, 0) + 1
        stats: Dict[str, float] = {
            "count": float(len(instructions)),
            "mean_length": sum(lengths) / len(lengths),
            "max_length": float(max(lengths)),
            "min_length": float(min(lengths)),
            "instructions_per_line": self.line_bytes / (sum(lengths) / len(lengths)),
        }
        for key, value in by_class.items():
            stats[f"class_{key}"] = value / len(instructions)
        return stats
