"""Cube and cover representation of Boolean functions.

A *cube* is a product term over an ordered list of variables; each position
is ``0`` (complemented literal), ``1`` (positive literal) or ``None``
(variable absent).  A *cover* is a set of cubes interpreted as their OR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Bit = Optional[int]


@dataclass(frozen=True)
class Cube:
    """A product term over an ordered variable list."""

    bits: Tuple[Bit, ...]

    def __post_init__(self) -> None:
        for bit in self.bits:
            if bit not in (0, 1, None):
                raise ValueError(f"cube bits must be 0, 1 or None, got {bit!r}")

    @property
    def num_vars(self) -> int:
        return len(self.bits)

    @property
    def num_literals(self) -> int:
        """Number of variables actually appearing in the cube."""
        return sum(1 for bit in self.bits if bit is not None)

    def contains(self, minterm: Sequence[int]) -> bool:
        """True if the cube covers the given fully-specified minterm."""
        return all(
            bit is None or bit == value for bit, value in zip(self.bits, minterm)
        )

    def covers(self, other: "Cube") -> bool:
        """True if every minterm of ``other`` is covered by this cube."""
        for mine, theirs in zip(self.bits, other.bits):
            if mine is None:
                continue
            if theirs is None or theirs != mine:
                return False
        return True

    def intersects(self, other: "Cube") -> bool:
        """True if the two cubes share at least one minterm."""
        for mine, theirs in zip(self.bits, other.bits):
            if mine is not None and theirs is not None and mine != theirs:
                return False
        return True

    def merge(self, other: "Cube") -> Optional["Cube"]:
        """Combine two cubes that differ in exactly one specified bit.

        Returns ``None`` when the cubes cannot be merged (the Quine-McCluskey
        adjacency rule).
        """
        if self.bits == other.bits:
            return None
        diff_index = -1
        for index, (mine, theirs) in enumerate(zip(self.bits, other.bits)):
            if mine == theirs:
                continue
            if mine is None or theirs is None:
                return None
            if diff_index >= 0:
                return None
            diff_index = index
        if diff_index < 0:
            return None
        merged = list(self.bits)
        merged[diff_index] = None
        return Cube(tuple(merged))

    def restrict(self, index: int, value: int) -> Optional["Cube"]:
        """Cofactor: the cube with variable ``index`` fixed to ``value``.

        Returns ``None`` when the cube does not intersect that half-space.
        """
        bit = self.bits[index]
        if bit is not None and bit != value:
            return None
        bits = list(self.bits)
        bits[index] = None
        return Cube(tuple(bits))

    def expand_minterms(self) -> Iterator[Tuple[int, ...]]:
        """Enumerate all minterms covered by the cube."""
        free = [i for i, bit in enumerate(self.bits) if bit is None]
        base = [bit if bit is not None else 0 for bit in self.bits]
        for assignment in range(1 << len(free)):
            minterm = list(base)
            for position, index in enumerate(free):
                minterm[index] = (assignment >> position) & 1
            yield tuple(minterm)

    def to_string(self, variables: Sequence[str]) -> str:
        """Readable product term, e.g. ``a b' c``."""
        parts = []
        for bit, name in zip(self.bits, variables):
            if bit is None:
                continue
            parts.append(name if bit == 1 else f"{name}'")
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return "".join("-" if bit is None else str(bit) for bit in self.bits)


def cube_from_code(code: Sequence[int]) -> Cube:
    """Build a minterm cube from a fully-specified binary code."""
    return Cube(tuple(int(bit) for bit in code))


def cube_from_string(text: str) -> Cube:
    """Parse cube text such as ``1-0`` into a :class:`Cube`."""
    bits: List[Bit] = []
    for char in text.strip():
        if char == "-":
            bits.append(None)
        elif char in "01":
            bits.append(int(char))
        else:
            raise ValueError(f"invalid cube character {char!r}")
    return Cube(tuple(bits))


class Cover:
    """A set of cubes interpreted as a sum of products."""

    def __init__(self, cubes: Iterable[Cube] = (), num_vars: Optional[int] = None) -> None:
        self.cubes: List[Cube] = list(cubes)
        if self.cubes:
            widths = {cube.num_vars for cube in self.cubes}
            if len(widths) > 1:
                raise ValueError("cubes in a cover must share the variable count")
            self.num_vars = self.cubes[0].num_vars
        else:
            self.num_vars = num_vars if num_vars is not None else 0

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __bool__(self) -> bool:
        return bool(self.cubes)

    def evaluate(self, minterm: Sequence[int]) -> bool:
        """Value of the function at a fully-specified input vector."""
        return any(cube.contains(minterm) for cube in self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)

    def add(self, cube: Cube) -> None:
        if self.cubes and cube.num_vars != self.num_vars:
            raise ValueError("cube width mismatch")
        if not self.cubes and self.num_vars == 0:
            self.num_vars = cube.num_vars
        self.cubes.append(cube)

    def to_string(self, variables: Sequence[str]) -> str:
        if not self.cubes:
            return "0"
        return " + ".join(cube.to_string(variables) for cube in self.cubes)

    def minterms(self) -> Set[Tuple[int, ...]]:
        """All minterms covered by the cover (exponential in free variables)."""
        result: Set[Tuple[int, ...]] = set()
        for cube in self.cubes:
            result.update(cube.expand_minterms())
        return result

    def __repr__(self) -> str:
        return f"Cover([{', '.join(str(c) for c in self.cubes)}])"
