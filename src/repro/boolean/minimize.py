"""Two-level minimization (Quine--McCluskey with don't cares).

``minimize`` takes explicit ON-set and DC-set minterm collections and
returns a minimal (essential primes plus greedy completion) sum-of-products
cover of the ON-set using the don't cares freely.

Prime implicants are generated on integer cubes: a ``(mask, value)`` pair
whose mask holds the specified variables and whose value is zero outside
the mask.  Cubes are grouped by mask, and a cube merges with its partner
``value | bit`` -- one set lookup per clear specified bit -- instead of
being compared with every other cube of its level.  Only the primes become
:class:`Cube` objects.  ``_reference_prime_implicants`` keeps the explicit
all-pairs ``Cube.merge`` loop as the differential oracle.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.boolean.cubes import Cover, Cube, cube_from_code

Minterm = Tuple[int, ...]


def _prime_implicants(minterms: Set[Minterm], num_vars: int) -> List[Cube]:
    """Generate all prime implicants of the union of ON and DC sets."""
    if not minterms:
        return []
    full = (1 << num_vars) - 1
    level: Dict[int, Set[int]] = {full: {_minterm_int(m) for m in minterms}}
    primes: List[Tuple[int, int]] = []
    while level:
        merged: Dict[int, Set[int]] = {}
        for mask, values in level.items():
            used: Set[int] = set()
            # Each mergeable pair is found once, from its member with ``bit`` clear.
            for value in values:
                clear = mask & ~value
                while clear:
                    bit = clear & -clear
                    clear ^= bit
                    if value | bit in values:
                        merged.setdefault(mask ^ bit, set()).add(value)
                        used.add(value)
                        used.add(value | bit)
            primes.extend((mask, value) for value in values - used)
        level = merged
    cubes = (_int_cube(mask, value, num_vars) for mask, value in primes)
    return sorted(cubes, key=str)


def _minterm_int(minterm: Minterm) -> int:
    """The minterm as an integer; variable 0 is the top bit."""
    value = 0
    for bit in minterm:
        value = value << 1 | bit
    return value


def _int_cube(mask: int, value: int, num_vars: int) -> Cube:
    """The :class:`Cube` of an integer cube; variable 0 is the top bit."""
    return Cube(
        tuple(
            (value >> shift) & 1 if (mask >> shift) & 1 else None
            for shift in range(num_vars - 1, -1, -1)
        )
    )


def _reference_prime_implicants(minterms: Set[Minterm], num_vars: int) -> List[Cube]:
    """Generate all prime implicants of the union of ON and DC sets."""
    if not minterms:
        return []
    current: Set[Cube] = {cube_from_code(m) for m in minterms}
    primes: Set[Cube] = set()

    while current:
        merged_any: Set[Cube] = set()
        used: Set[Cube] = set()
        current_list = sorted(current, key=str)
        for a, b in itertools.combinations(current_list, 2):
            merged = a.merge(b)
            if merged is not None:
                merged_any.add(merged)
                used.add(a)
                used.add(b)
        for cube in current_list:
            if cube not in used:
                primes.add(cube)
        current = merged_any
    return sorted(primes, key=str)


def _select_cover(
    primes: List[Cube], on_minterms: Set[Minterm]
) -> List[Cube]:
    """Choose a subset of primes covering all ON-set minterms.

    Essential primes are selected first; the remaining minterms are covered
    greedily by the prime covering the most uncovered minterms (ties broken
    by fewer literals, then lexicographically for determinism).
    """
    if not on_minterms:
        return []
    coverage: Dict[Cube, Set[Minterm]] = {
        prime: {m for m in on_minterms if prime.contains(m)} for prime in primes
    }
    coverage = {prime: cov for prime, cov in coverage.items() if cov}

    selected: List[Cube] = []
    remaining = set(on_minterms)

    # Essential primes: minterms covered by exactly one prime.
    for minterm in sorted(on_minterms):
        covering = [prime for prime, cov in coverage.items() if minterm in cov]
        if len(covering) == 1 and covering[0] not in selected:
            selected.append(covering[0])
    for prime in selected:
        remaining -= coverage.get(prime, set())

    # Greedy completion.
    while remaining:
        best: Optional[Cube] = None
        best_key: Tuple[int, int, str] = (0, 0, "")
        for prime, cov in coverage.items():
            if prime in selected:
                continue
            gain = len(cov & remaining)
            if gain == 0:
                continue
            key = (gain, -prime.num_literals, str(prime))
            if best is None or key > best_key:
                best = prime
                best_key = key
        if best is None:
            # Should not happen: every ON minterm is itself a prime candidate.
            raise RuntimeError("could not cover all ON-set minterms")
        selected.append(best)
        remaining -= coverage[best]
    return selected


def minimize(
    on_set: Iterable[Sequence[int]],
    dc_set: Iterable[Sequence[int]] = (),
    num_vars: Optional[int] = None,
) -> Cover:
    """Minimize a Boolean function given ON-set and DC-set minterms.

    Parameters
    ----------
    on_set, dc_set:
        Iterables of fully-specified binary vectors.
    num_vars:
        Variable count; required when the ON-set is empty.
    """
    on_minterms: Set[Minterm] = {tuple(int(b) for b in m) for m in on_set}
    dc_minterms: Set[Minterm] = {tuple(int(b) for b in m) for m in dc_set}
    dc_minterms -= on_minterms

    if on_minterms:
        width = len(next(iter(on_minterms)))
    elif dc_minterms:
        width = len(next(iter(dc_minterms)))
    elif num_vars is not None:
        width = num_vars
    else:
        raise ValueError("num_vars required for an empty function")

    for minterm in on_minterms | dc_minterms:
        if len(minterm) != width:
            raise ValueError("all minterms must have the same width")

    if not on_minterms:
        return Cover([], num_vars=width)

    total = on_minterms | dc_minterms
    if len(on_minterms) == (1 << width):
        # Tautology.
        return Cover([Cube(tuple([None] * width))])

    primes = _prime_implicants(total, width)
    chosen = _select_cover(primes, on_minterms)
    return Cover(chosen, num_vars=width)


def complement_cover(cover: Cover, num_vars: Optional[int] = None) -> Cover:
    """Complement a cover by explicit minterm enumeration.

    Suitable for the small variable counts used here.
    """
    width = cover.num_vars or (num_vars or 0)
    if width == 0:
        raise ValueError("cannot complement a cover with unknown width")
    off = []
    for bits in itertools.product((0, 1), repeat=width):
        if not cover.evaluate(bits):
            off.append(bits)
    return minimize(off, num_vars=width)


def covers_equal(a: Cover, b: Cover) -> bool:
    """Functional equality by exhaustive evaluation."""
    width = max(a.num_vars, b.num_vars)
    for bits in itertools.product((0, 1), repeat=width):
        if a.evaluate(bits) != b.evaluate(bits):
            return False
    return True
