"""Core Petri net data structures.

A Petri net is a bipartite graph of *places* and *transitions*.  Places hold
tokens; a transition is *enabled* when every input place holds at least as
many tokens as the arc weight, and *firing* it consumes those tokens and
produces tokens on its output places.

The nets used by the Relative Timing flow are ordinary (arc weight 1) and
safe (at most one token per place), but the implementation supports weighted
arcs and arbitrary markings so that the property checks in
:mod:`repro.petrinet.properties` can detect violations rather than assume
them away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class PetriNetError(Exception):
    """Raised for structurally invalid Petri net operations."""


@dataclass(frozen=True)
class Place:
    """A place in a Petri net.

    Attributes
    ----------
    name:
        Unique identifier of the place within its net.
    capacity:
        Optional maximum number of tokens.  ``None`` means unbounded.
    """

    name: str
    capacity: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition in a Petri net.

    Attributes
    ----------
    name:
        Unique identifier of the transition within its net.
    label:
        Optional observable label.  STGs label transitions with signal
        transitions such as ``a+`` or ``b-``; unlabelled (silent)
        transitions use ``None``.
    """

    name: str
    label: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Marking:
    """An immutable multiset of tokens over places.

    Markings are hashable so they can serve as nodes of a reachability
    graph.  Only places with a non-zero token count are stored.
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Optional[Mapping[str, int]] = None) -> None:
        items: Dict[str, int] = {}
        if tokens:
            for place, count in tokens.items():
                if count < 0:
                    raise PetriNetError(
                        f"negative token count {count} for place {place!r}"
                    )
                if count:
                    items[place] = count
        self._tokens: Tuple[Tuple[str, int], ...] = tuple(sorted(items.items()))
        self._hash = hash(self._tokens)

    # -- mapping-like interface -------------------------------------------------
    def __getitem__(self, place: str) -> int:
        for name, count in self._tokens:
            if name == place:
                return count
        return 0

    def get(self, place: str, default: int = 0) -> int:
        value = self[place]
        return value if value else default

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(self._tokens)

    def places(self) -> Iterator[str]:
        return (name for name, _ in self._tokens)

    def total_tokens(self) -> int:
        return sum(count for _, count in self._tokens)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._tokens)

    # -- comparison / hashing ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._tokens == other._tokens

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in self._tokens)
        return f"Marking({{{inner}}})"

    # -- arithmetic used by the firing rule -------------------------------------
    def add(self, deltas: Mapping[str, int]) -> "Marking":
        """Return a new marking with ``deltas`` added (may be negative)."""
        tokens = dict(self._tokens)
        for place, delta in deltas.items():
            tokens[place] = tokens.get(place, 0) + delta
            if tokens[place] < 0:
                raise PetriNetError(
                    f"firing would make place {place!r} negative"
                )
        return Marking(tokens)

    def covers(self, other: "Marking") -> bool:
        """True if this marking has at least as many tokens everywhere."""
        return all(self[place] >= count for place, count in other.items())

    def strictly_covers(self, other: "Marking") -> bool:
        """True if this marking covers ``other`` and is not equal to it."""
        return self.covers(other) and self != other


class PetriNet:
    """A place/transition net with weighted arcs and an initial marking."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        # input arcs: transition -> {place: weight}
        self._inputs: Dict[str, Dict[str, int]] = {}
        # output arcs: transition -> {place: weight}
        self._outputs: Dict[str, Dict[str, int]] = {}
        self._initial_marking = Marking()
        # Bumped on every structural mutation; lets the engine cache its
        # interned encoding per net (see repro.engine.marking.NetEncoding).
        self._structure_version = 0
        # Bumped by set_initial_marking; together with the structure
        # counter it backs the per-aspect analysis fingerprints below.
        self._marking_version = 0

    # -- construction ------------------------------------------------------------
    def add_place(self, name: str, capacity: Optional[int] = None) -> Place:
        if name in self._places:
            raise PetriNetError(f"duplicate place {name!r}")
        if name in self._transitions:
            raise PetriNetError(f"name {name!r} already used by a transition")
        place = Place(name, capacity)
        self._places[name] = place
        self._structure_version += 1
        return place

    def add_transition(self, name: str, label: Optional[str] = None) -> Transition:
        if name in self._transitions:
            raise PetriNetError(f"duplicate transition {name!r}")
        if name in self._places:
            raise PetriNetError(f"name {name!r} already used by a place")
        transition = Transition(name, label)
        self._transitions[name] = transition
        self._inputs[name] = {}
        self._outputs[name] = {}
        self._structure_version += 1
        return transition

    def add_arc(self, source: str, target: str, weight: int = 1) -> None:
        """Add an arc from a place to a transition or vice versa."""
        if weight < 1:
            raise PetriNetError("arc weight must be positive")
        if source in self._places and target in self._transitions:
            self._inputs[target][source] = (
                self._inputs[target].get(source, 0) + weight
            )
        elif source in self._transitions and target in self._places:
            self._outputs[source][target] = (
                self._outputs[source].get(target, 0) + weight
            )
        else:
            raise PetriNetError(
                f"arc must connect a place and a transition: {source!r} -> {target!r}"
            )
        self._structure_version += 1

    def set_initial_marking(self, marking: Mapping[str, int]) -> None:
        for place in marking:
            if place not in self._places:
                raise PetriNetError(f"unknown place {place!r} in initial marking")
        self._initial_marking = Marking(marking)
        self._marking_version += 1

    # -- analysis fingerprints ----------------------------------------------------
    def analysis_fingerprint(self, aspect: str = "structure") -> Tuple[str, str]:
        """Content fingerprint of one aspect, for the analysis cache.

        Aspects: ``"structure"`` (places, capacities, transitions, arcs)
        and ``"marking"`` (the initial marking).  Reachability analyses
        read both; the digest is recomputed only when the matching
        mutation counter moved since the last call, mirroring
        :meth:`repro.circuit.netlist.Netlist.analysis_fingerprint`.  The
        net's name is deliberately excluded so structurally equal nets
        share cached results.
        """
        import hashlib

        cache = getattr(self, "_fingerprint_cache", None)
        if cache is None:
            cache = self._fingerprint_cache = {}
        if aspect == "structure":
            version = self._structure_version
        elif aspect == "marking":
            version = self._marking_version
        else:
            raise ValueError(f"unknown fingerprint aspect {aspect!r}")
        cached = cache.get(aspect)
        if cached is not None and cached[0] == version:
            return cached[1]
        if aspect == "marking":
            payload = repr(self._initial_marking.as_dict())
        else:
            parts = [
                repr([(p.name, p.capacity) for p in self._places.values()]),
                repr([(t.name, t.label) for t in self._transitions.values()]),
                repr(sorted((t, sorted(ins.items())) for t, ins in self._inputs.items())),
                repr(sorted((t, sorted(outs.items())) for t, outs in self._outputs.items())),
            ]
            payload = "\n".join(parts)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        fingerprint = (aspect, digest)
        cache[aspect] = (version, fingerprint)
        return fingerprint

    # -- accessors ---------------------------------------------------------------
    @property
    def places(self) -> List[Place]:
        return list(self._places.values())

    @property
    def transitions(self) -> List[Transition]:
        return list(self._transitions.values())

    @property
    def initial_marking(self) -> Marking:
        return self._initial_marking

    def place(self, name: str) -> Place:
        return self._places[name]

    def transition(self, name: str) -> Transition:
        return self._transitions[name]

    def has_place(self, name: str) -> bool:
        return name in self._places

    def preset(self, transition: str) -> Dict[str, int]:
        """Input places of a transition with their arc weights."""
        return dict(self._inputs[transition])

    def postset(self, transition: str) -> Dict[str, int]:
        """Output places of a transition with their arc weights."""
        return dict(self._outputs[transition])

    def place_preset(self, place: str) -> List[str]:
        """Transitions producing into the place."""
        return [t for t, outs in self._outputs.items() if place in outs]

    def place_postset(self, place: str) -> List[str]:
        """Transitions consuming from the place."""
        return [t for t, ins in self._inputs.items() if place in ins]

    # -- firing rule --------------------------------------------------------------
    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True if ``transition`` may fire in ``marking``."""
        if transition not in self._transitions:
            raise PetriNetError(f"unknown transition {transition!r}")
        for place, weight in self._inputs[transition].items():
            if marking[place] < weight:
                return False
        return True

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """All transitions enabled in ``marking`` (deterministic order)."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire ``transition`` in ``marking`` and return the successor marking."""
        if not self.is_enabled(transition, marking):
            raise PetriNetError(
                f"transition {transition!r} is not enabled in {marking!r}"
            )
        deltas: Dict[str, int] = {}
        for place, weight in self._inputs[transition].items():
            deltas[place] = deltas.get(place, 0) - weight
        for place, weight in self._outputs[transition].items():
            deltas[place] = deltas.get(place, 0) + weight
        successor = marking.add(deltas)
        for place, count in successor.items():
            capacity = self._places[place].capacity
            if capacity is not None and count > capacity:
                raise PetriNetError(
                    f"firing {transition!r} exceeds capacity of place {place!r}"
                )
        return successor

    def fire_sequence(self, sequence: Iterable[str], marking: Optional[Marking] = None) -> Marking:
        """Fire a sequence of transitions, returning the final marking."""
        current = marking if marking is not None else self._initial_marking
        for transition in sequence:
            current = self.fire(transition, current)
        return current

    # -- misc ---------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Deep copy of the net structure and initial marking."""
        clone = PetriNet(name or self.name)
        for place in self._places.values():
            clone.add_place(place.name, place.capacity)
        for transition in self._transitions.values():
            clone.add_transition(transition.name, transition.label)
        for transition, inputs in self._inputs.items():
            for place, weight in inputs.items():
                clone.add_arc(place, transition, weight)
        for transition, outputs in self._outputs.items():
            for place, weight in outputs.items():
                clone.add_arc(transition, place, weight)
        clone.set_initial_marking(self._initial_marking.as_dict())
        return clone

    def __repr__(self) -> str:
        return (
            f"PetriNet(name={self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)})"
        )
