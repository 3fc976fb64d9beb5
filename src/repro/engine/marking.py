"""Interned integer encoding of Petri net markings.

A :class:`NetEncoding` is built once per net.  It assigns every place a
fixed slot index and every transition a fixed index, and precomputes the
firing rule as flat integer arrays:

* ``consume[t]`` / ``produce[t]`` -- tuples of ``(place_slot, weight)``
  pairs, replacing the per-fire ``preset()``/``postset()`` dict copies;
* ``need_mask[t]`` / ``consume_mask[t]`` / ``produce_mask[t]`` -- for
  unit-weight nets explored under ``bound=1`` (the safe-net STG flow), a
  marking is a single Python ``int`` bitmask and the enabled test is one
  ``&``/``==`` pair against the precomputed enabled-transition mask.

Markings travel through exploration either as ``int`` bitmasks (safe
path) or as tuples of token counts (general path); both are hashable,
compared in C, and decoded back into :class:`~repro.petrinet.net.Marking`
objects only once per distinct reachable marking when the public graph is
materialised.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.petrinet.net import Marking, PetriNet, PetriNetError
from repro.petrinet.reachability import UnboundedNetError

CountKey = Tuple[int, ...]
EdgeList = List[Tuple[int, int, int]]  # (source index, transition index, target index)


class EncodingError(PetriNetError):
    """Raised when a marking cannot be expressed in the chosen encoding."""


class NetEncoding:
    """Per-net interning of places, transitions and the firing rule."""

    __slots__ = (
        "place_names",
        "place_index",
        "capacities",
        "transition_names",
        "consume",
        "produce",
        "unit_weights",
        "bit_capable",
        "need_mask",
        "consume_mask",
        "produce_mask",
        "_sorted_slots",
    )

    def __init__(self, net: PetriNet) -> None:
        places = net.places
        self.place_names: List[str] = [place.name for place in places]
        self.place_index: Dict[str, int] = {
            name: slot for slot, name in enumerate(self.place_names)
        }
        self.capacities: List[Optional[int]] = [place.capacity for place in places]
        self.transition_names: List[str] = [t.name for t in net.transitions]

        index = self.place_index
        consume: List[Tuple[Tuple[int, int], ...]] = []
        produce: List[Tuple[Tuple[int, int], ...]] = []
        unit_weights = True
        for name in self.transition_names:
            ins = net.preset(name)
            outs = net.postset(name)
            consume.append(tuple((index[p], w) for p, w in ins.items()))
            produce.append(tuple((index[p], w) for p, w in outs.items()))
            if any(w != 1 for w in ins.values()) or any(w != 1 for w in outs.values()):
                unit_weights = False
        self.consume = consume
        self.produce = produce
        self.unit_weights = unit_weights
        # The bitmask path assumes one token per place at most, which the
        # caller guarantees by exploring with ``bound=1``; finite capacities
        # would change *which* error a violating fire raises, so they force
        # the general path.
        self.bit_capable = unit_weights and all(c is None for c in self.capacities)

        self.need_mask: List[int] = []
        self.consume_mask: List[int] = []
        self.produce_mask: List[int] = []
        for t in range(len(self.transition_names)):
            need = 0
            for slot, _weight in consume[t]:
                need |= 1 << slot
            prod = 0
            for slot, _weight in produce[t]:
                prod |= 1 << slot
            self.need_mask.append(need)
            self.consume_mask.append(need)
            self.produce_mask.append(prod)
        # Capacity/bound violations are reported in sorted place-name order
        # to match the reference implementation (Marking stores its tokens
        # name-sorted).
        self._sorted_slots = sorted(
            range(len(self.place_names)), key=lambda slot: self.place_names[slot]
        )

    @classmethod
    def for_net(cls, net: PetriNet) -> "NetEncoding":
        """Cached encoding for ``net``, rebuilt when its structure changes.

        The cache key is the net's ``_structure_version`` counter, bumped by
        every ``add_place``/``add_transition``/``add_arc``; the initial
        marking is not part of the encoding, so changing it does not
        invalidate.
        """
        version = getattr(net, "_structure_version", None)
        cached = getattr(net, "_engine_codec", None)
        if cached is not None and version is not None and cached[0] == version:
            return cached[1]
        codec = cls(net)
        if version is not None:
            net._engine_codec = (version, codec)
        return codec

    # -- count-tuple encoding ------------------------------------------------------
    def encode(self, marking: Marking) -> CountKey:
        """Encode a marking as a tuple of token counts, one slot per place."""
        counts = [0] * len(self.place_names)
        for place, count in marking.items():
            slot = self.place_index.get(place)
            if slot is None:
                raise EncodingError(f"marking mentions unknown place {place!r}")
            counts[slot] = count
        return tuple(counts)

    def decode(self, key: CountKey) -> Marking:
        """Inverse of :meth:`encode`.

        Builds the Marking directly in its internal sorted-tuple form
        (token counts from exploration are already validated), skipping the
        per-construction dict build and sort of ``Marking.__init__``.
        """
        names = self.place_names
        tokens = tuple(
            (names[slot], key[slot]) for slot in self._sorted_slots if key[slot]
        )
        marking = Marking.__new__(Marking)
        marking._tokens = tokens
        marking._hash = hash(tokens)
        return marking

    # -- bitmask encoding ----------------------------------------------------------
    def encode_bits(self, marking: Marking) -> int:
        """Encode a safe marking as an int with one bit per marked place."""
        bits = 0
        for place, count in marking.items():
            slot = self.place_index.get(place)
            if slot is None:
                raise EncodingError(f"marking mentions unknown place {place!r}")
            if count > 1:
                raise EncodingError(
                    f"place {place!r} holds {count} tokens; bitmask encoding "
                    "requires a safe marking"
                )
            bits |= 1 << slot
        return bits

    def decode_bits(self, bits: int) -> Marking:
        """Inverse of :meth:`encode_bits` (same direct construction as decode)."""
        names = self.place_names
        tokens = tuple(
            (names[slot], 1) for slot in self._sorted_slots if bits >> slot & 1
        )
        marking = Marking.__new__(Marking)
        marking._tokens = tokens
        marking._hash = hash(tokens)
        return marking

    # -- exploration ----------------------------------------------------------------
    # The two BFS cores every exploration runs through, one per key encoding.
    # Keys are numbered in discovery order; edges are ``(source, t, target)``
    # index triples in firing order.  ``cap_error`` is the exception instance
    # raised when a new key would exceed ``max_states``; bound violations
    # raise ``UnboundedNetError``.  Hooks are ``None`` unless a caller needs
    # them:
    # * ``select(marking)`` -- the transitions to try at ``marking`` (a
    #   reduced exploration's stubborn subset) in ascending order; without it
    #   every transition is tried.  The enabled test stays inline either way.
    # * ``relabel(t, code)`` (counts only) -- the signal code after firing
    #   ``t``, riding as a trailing key slot; called before the fire, it may
    #   raise, or return ``None`` to skip ``t``.
    # * ``discover(source, successor)`` (counts only) -- called on each new
    #   key just before the cap check.
    def explore_bits(
        self,
        initial: int,
        max_states: int,
        cap_error: Exception,
        select: Optional[Callable[[int], Sequence[int]]] = None,
    ) -> Tuple[List[int], EdgeList]:
        """BFS over bitmask markings with an implicit ``bound=1``.

        Token overflow (a produced token landing on an already-marked place
        that the fire did not consume) raises ``UnboundedNetError`` exactly
        where the reference per-place bound check would.
        """
        need_mask = self.need_mask
        consume_mask = self.consume_mask
        produce_mask = self.produce_mask
        transitions = range(len(need_mask))

        keys: List[int] = [initial]
        index: Dict[int, int] = {initial: 0}
        edges: EdgeList = []
        head = 0
        while head < len(keys):
            marking = keys[head]
            source = head
            head += 1
            for t in transitions if select is None else select(marking):
                need = need_mask[t]
                if marking & need != need:
                    continue
                remainder = marking & ~consume_mask[t]
                overflow = remainder & produce_mask[t]
                if overflow:
                    place = self._first_sorted_slot(overflow)
                    raise UnboundedNetError(
                        f"place {place!r} exceeds bound 1 "
                        f"after firing {self.transition_names[t]!r}"
                    )
                successor = remainder | produce_mask[t]
                target = index.get(successor)
                if target is None:
                    if len(index) >= max_states:
                        raise cap_error
                    target = len(keys)
                    index[successor] = target
                    keys.append(successor)
                edges.append((source, t, target))
        return keys, edges

    def explore_counts(
        self,
        initial: CountKey,
        max_states: int,
        bound: Optional[int],
        cap_error: Exception,
        select: Optional[Callable[[CountKey], Sequence[int]]] = None,
        relabel: Optional[Callable[[int, int], Optional[int]]] = None,
        discover: Optional[Callable[[int, CountKey], None]] = None,
    ) -> Tuple[List[CountKey], EdgeList]:
        """BFS over count-tuple markings (weighted arcs, capacities, any bound)."""
        consume = self.consume
        produce = self.produce
        capacities = self.capacities
        names = self.place_names
        transition_names = self.transition_names
        sorted_slots = self._sorted_slots
        transitions = range(len(consume))
        check_capacity = any(c is not None for c in capacities)

        keys: List[CountKey] = [initial]
        index: Dict[CountKey, int] = {initial: 0}
        edges: EdgeList = []
        head = 0
        while head < len(keys):
            marking = keys[head]
            source = head
            head += 1
            for t in transitions if select is None else select(marking):
                enabled = True
                for slot, weight in consume[t]:
                    if marking[slot] < weight:
                        enabled = False
                        break
                if not enabled:
                    continue
                counts = list(marking)
                if relabel is not None:
                    code = relabel(t, marking[-1])
                    if code is None:
                        continue
                    counts[-1] = code
                for slot, weight in consume[t]:
                    counts[slot] -= weight
                for slot, weight in produce[t]:
                    counts[slot] += weight
                if check_capacity:
                    for slot in sorted_slots:
                        capacity = capacities[slot]
                        if capacity is not None and counts[slot] > capacity:
                            raise PetriNetError(
                                f"firing {transition_names[t]!r} exceeds "
                                f"capacity of place {names[slot]!r}"
                            )
                if bound is not None:
                    for slot in sorted_slots:
                        if counts[slot] > bound:
                            raise UnboundedNetError(
                                f"place {names[slot]!r} exceeds bound {bound} "
                                f"after firing {transition_names[t]!r}"
                            )
                successor = tuple(counts)
                target = index.get(successor)
                if target is None:
                    if discover is not None:
                        discover(source, successor)
                    if len(index) >= max_states:
                        raise cap_error
                    target = len(keys)
                    index[successor] = target
                    keys.append(successor)
                edges.append((source, t, target))
        return keys, edges

    # -- helpers --------------------------------------------------------------------
    def _first_sorted_slot(self, bits: int) -> str:
        for slot in self._sorted_slots:
            if bits >> slot & 1:
                return self.place_names[slot]
        raise AssertionError("no bit set")  # pragma: no cover - defensive

