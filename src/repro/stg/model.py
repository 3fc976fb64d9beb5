"""STG data model.

A :class:`SignalTransitionGraph` owns a :class:`~repro.petrinet.net.PetriNet`
whose transitions carry :class:`SignalTransition` labels.  Signals are
classified as inputs (driven by the environment), outputs (driven by the
circuit) or internal (invisible state signals inserted by the encoding
step).  Silent transitions (the ``epsilon`` of Figure 3) carry no label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.petrinet.net import Marking, PetriNet


class StgError(Exception):
    """Raised for invalid STG structure or use."""


class Direction(enum.Enum):
    """Direction of a signal transition."""

    RISE = "+"
    FALL = "-"

    @property
    def opposite(self) -> "Direction":
        return Direction.FALL if self is Direction.RISE else Direction.RISE

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SignalKind(enum.Enum):
    """Role of a signal in the specification."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    DUMMY = "dummy"


@dataclass(frozen=True)
class SignalTransition:
    """A labelled event ``signal+`` or ``signal-``.

    ``index`` distinguishes multiple occurrences of the same signal
    transition within one STG (written ``a+/1``, ``a+/2`` in the ``.g``
    format).
    """

    signal: str
    direction: Direction
    index: int = 0

    @classmethod
    def parse(cls, text: str) -> "SignalTransition":
        """Parse ``a+``, ``b-/2`` style labels."""
        text = text.strip()
        index = 0
        if "/" in text:
            text, index_text = text.split("/", 1)
            index = int(index_text)
        if text.endswith("+"):
            return cls(text[:-1], Direction.RISE, index)
        if text.endswith("-"):
            return cls(text[:-1], Direction.FALL, index)
        raise StgError(f"cannot parse signal transition {text!r}")

    @property
    def is_rising(self) -> bool:
        return self.direction is Direction.RISE

    @property
    def is_falling(self) -> bool:
        return self.direction is Direction.FALL

    def base_name(self) -> str:
        """Label without the occurrence index, e.g. ``a+``."""
        return f"{self.signal}{self.direction.value}"

    def __str__(self) -> str:
        if self.index:
            return f"{self.signal}{self.direction.value}/{self.index}"
        return f"{self.signal}{self.direction.value}"


class SignalTransitionGraph:
    """An STG: a labelled, safe Petri net plus signal declarations."""

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self.net = PetriNet(name)
        self._signals: Dict[str, SignalKind] = {}
        # transition name -> SignalTransition (None for silent transitions)
        self._labels: Dict[str, Optional[SignalTransition]] = {}
        self._initial_values: Dict[str, int] = {}

    # -- signal declarations ------------------------------------------------------
    def declare_signal(self, name: str, kind: SignalKind, initial: int = 0) -> None:
        """Declare a signal with its role and initial logic value."""
        if name in self._signals:
            raise StgError(f"signal {name!r} already declared")
        if initial not in (0, 1):
            raise StgError(f"initial value of {name!r} must be 0 or 1")
        self._signals[name] = kind
        self._initial_values[name] = initial

    def declare_input(self, name: str, initial: int = 0) -> None:
        self.declare_signal(name, SignalKind.INPUT, initial)

    def declare_output(self, name: str, initial: int = 0) -> None:
        self.declare_signal(name, SignalKind.OUTPUT, initial)

    def declare_internal(self, name: str, initial: int = 0) -> None:
        self.declare_signal(name, SignalKind.INTERNAL, initial)

    @property
    def signals(self) -> List[str]:
        return list(self._signals)

    @property
    def inputs(self) -> List[str]:
        return [s for s, k in self._signals.items() if k is SignalKind.INPUT]

    @property
    def outputs(self) -> List[str]:
        return [s for s, k in self._signals.items() if k is SignalKind.OUTPUT]

    @property
    def internals(self) -> List[str]:
        return [s for s, k in self._signals.items() if k is SignalKind.INTERNAL]

    @property
    def non_input_signals(self) -> List[str]:
        """Signals the circuit must implement (outputs plus internals)."""
        return [
            s
            for s, k in self._signals.items()
            if k in (SignalKind.OUTPUT, SignalKind.INTERNAL)
        ]

    def signal_kind(self, name: str) -> SignalKind:
        try:
            return self._signals[name]
        except KeyError as exc:
            raise StgError(f"unknown signal {name!r}") from exc

    def initial_value(self, name: str) -> int:
        try:
            return self._initial_values[name]
        except KeyError as exc:
            raise StgError(f"unknown signal {name!r}") from exc

    def set_initial_value(self, name: str, value: int) -> None:
        if name not in self._signals:
            raise StgError(f"unknown signal {name!r}")
        if value not in (0, 1):
            raise StgError("initial value must be 0 or 1")
        self._initial_values[name] = value

    def initial_state_vector(self) -> Dict[str, int]:
        return dict(self._initial_values)

    # -- transitions / places -----------------------------------------------------
    def add_transition(
        self, label: Optional[SignalTransition], name: Optional[str] = None
    ) -> str:
        """Add a (possibly silent) transition; returns its net-level name."""
        if label is not None and label.signal not in self._signals:
            raise StgError(f"signal {label.signal!r} not declared")
        if name is None:
            if label is None:
                name = f"eps_{len(self._labels)}"
            else:
                name = str(label)
        self.net.add_transition(name, None if label is None else str(label))
        self._labels[name] = label
        return name

    def add_place(self, name: str) -> str:
        self.net.add_place(name)
        return name

    def add_arc(self, source: str, target: str) -> None:
        self.net.add_arc(source, target)

    def connect(self, from_transition: str, to_transition: str, place: Optional[str] = None, marked: bool = False) -> str:
        """Insert an implicit place between two transitions.

        Returns the created place name.  ``marked`` puts a token on the place
        in the initial marking.
        """
        if place is None:
            place = f"p_{from_transition}__{to_transition}"
            suffix = 0
            while self.net.has_place(place):
                suffix += 1
                place = f"p_{from_transition}__{to_transition}_{suffix}"
        self.net.add_place(place)
        self.net.add_arc(from_transition, place)
        self.net.add_arc(place, to_transition)
        if marked:
            marking = self.net.initial_marking.as_dict()
            marking[place] = 1
            self.net.set_initial_marking(marking)
        return place

    def set_initial_marking(self, marking: Dict[str, int]) -> None:
        self.net.set_initial_marking(marking)

    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    def label_of(self, transition_name: str) -> Optional[SignalTransition]:
        try:
            return self._labels[transition_name]
        except KeyError as exc:
            raise StgError(f"unknown transition {transition_name!r}") from exc

    def transitions_of_signal(self, signal: str) -> List[str]:
        """Net transition names labelled with the given signal (any direction)."""
        return [
            name
            for name, label in self._labels.items()
            if label is not None and label.signal == signal
        ]

    @property
    def transition_names(self) -> List[str]:
        return list(self._labels)

    @property
    def silent_transitions(self) -> List[str]:
        return [name for name, label in self._labels.items() if label is None]

    # -- convenience --------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "SignalTransitionGraph":
        clone = SignalTransitionGraph(name or self.name)
        clone.net = self.net.copy(name or self.name)
        clone._signals = dict(self._signals)
        clone._labels = dict(self._labels)
        clone._initial_values = dict(self._initial_values)
        return clone

    def hide_signal(self, signal: str) -> None:
        """Turn all transitions of ``signal`` into silent transitions.

        Used by the pulse-mode transformation, which removes handshake
        signals (``lo``, ``ri`` in the paper's Figure 7) after folding the
        environment into the circuit.
        """
        if signal not in self._signals:
            raise StgError(f"unknown signal {signal!r}")
        for name in self.transitions_of_signal(signal):
            self._labels[name] = None
        del self._signals[signal]
        del self._initial_values[signal]

    def relabel_transition(self, name: str, label: Optional[SignalTransition]) -> None:
        """Change the label of an existing transition.

        Used by state encoding to turn a silent (dummy) transition into a
        state-signal transition -- the classic way CSC signals are inserted
        when the specification already contains an epsilon event at the right
        spot.
        """
        if name not in self._labels:
            raise StgError(f"unknown transition {name!r}")
        if label is not None and label.signal not in self._signals:
            raise StgError(f"signal {label.signal!r} not declared")
        self._labels[name] = label

    def __repr__(self) -> str:
        return (
            f"SignalTransitionGraph(name={self.name!r}, "
            f"inputs={self.inputs}, outputs={self.outputs}, "
            f"internal={self.internals}, "
            f"transitions={len(self._labels)})"
        )
