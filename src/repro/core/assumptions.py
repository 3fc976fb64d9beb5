"""Relative timing assumptions and constraints.

An *assumption* is an ordering between two signal transitions that the
designer or the automatic generator believes will hold in the physical
circuit: ``before`` happens before ``after`` whenever both are pending.
Assumptions are used freely during optimization.  The subset of assumptions
that the synthesized logic actually relies upon is back-annotated as
*constraints* -- orderings that must be verified (or enforced by sizing) for
the circuit to be correct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.stg.model import SignalTransition


class AssumptionKind(enum.Enum):
    """Provenance of a relative timing assumption."""

    USER = "user"
    AUTOMATIC = "automatic"


EventLike = Union[str, SignalTransition]


def _as_event(event: EventLike) -> SignalTransition:
    if isinstance(event, SignalTransition):
        # Normalise away occurrence indices: orderings are between transition
        # *types*, not individual occurrences.
        return SignalTransition(event.signal, event.direction)
    return SignalTransition.parse(event)


@dataclass(frozen=True)
class RelativeTimingAssumption:
    """``before`` occurs before ``after`` whenever both are pending."""

    before: SignalTransition
    after: SignalTransition
    kind: AssumptionKind = AssumptionKind.AUTOMATIC
    rationale: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "before", _as_event(self.before))
        object.__setattr__(self, "after", _as_event(self.after))

    def __str__(self) -> str:
        tag = "user" if self.kind is AssumptionKind.USER else "auto"
        return f"{self.before} before {self.after} [{tag}]"

    def ordering(self) -> Tuple[SignalTransition, SignalTransition]:
        return (self.before, self.after)


@dataclass(frozen=True)
class RelativeTimingConstraint:
    """A back-annotated ordering that the implementation must guarantee."""

    before: SignalTransition
    after: SignalTransition
    source: AssumptionKind = AssumptionKind.AUTOMATIC
    rationale: str = ""
    disjunction_group: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "before", _as_event(self.before))
        object.__setattr__(self, "after", _as_event(self.after))

    def __str__(self) -> str:
        text = f"{self.before} before {self.after}"
        if self.disjunction_group:
            text += f" (one-of group {self.disjunction_group})"
        return text


def assume(
    before: EventLike,
    after: EventLike,
    kind: AssumptionKind = AssumptionKind.USER,
    rationale: str = "",
) -> RelativeTimingAssumption:
    """Convenience constructor: ``assume("ri-", "li+")``."""
    return RelativeTimingAssumption(
        before=_as_event(before), after=_as_event(after), kind=kind, rationale=rationale
    )


class AssumptionSet:
    """An ordered, de-duplicated collection of assumptions."""

    def __init__(self, assumptions: Iterable[RelativeTimingAssumption] = ()) -> None:
        self._assumptions: List[RelativeTimingAssumption] = []
        self._seen: Set[Tuple[SignalTransition, SignalTransition]] = set()
        for assumption in assumptions:
            self.add(assumption)

    def add(self, assumption: RelativeTimingAssumption) -> bool:
        """Add an assumption; returns False if an equal ordering already exists."""
        key = assumption.ordering()
        if key in self._seen:
            return False
        reverse = (key[1], key[0])
        if reverse in self._seen:
            raise ValueError(
                f"contradictory assumption: {assumption} conflicts with an "
                "existing assumption with the opposite ordering"
            )
        self._seen.add(key)
        self._assumptions.append(assumption)
        return True

    def __iter__(self) -> Iterator[RelativeTimingAssumption]:
        return iter(self._assumptions)

    def __len__(self) -> int:
        return len(self._assumptions)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, RelativeTimingAssumption):
            return item.ordering() in self._seen
        if isinstance(item, tuple) and len(item) == 2:
            return (_as_event(item[0]), _as_event(item[1])) in self._seen
        return False

    @property
    def user_assumptions(self) -> List[RelativeTimingAssumption]:
        return [a for a in self._assumptions if a.kind is AssumptionKind.USER]

    @property
    def automatic_assumptions(self) -> List[RelativeTimingAssumption]:
        return [a for a in self._assumptions if a.kind is AssumptionKind.AUTOMATIC]

    def orderings(self) -> List[Tuple[SignalTransition, SignalTransition]]:
        return [a.ordering() for a in self._assumptions]

    def merged_with(self, other: "AssumptionSet") -> "AssumptionSet":
        merged = AssumptionSet(self._assumptions)
        for assumption in other:
            merged.add(assumption)
        return merged

    def describe(self) -> str:
        if not self._assumptions:
            return "(no assumptions)"
        return "\n".join(str(a) for a in self._assumptions)

    def __repr__(self) -> str:
        return f"AssumptionSet({len(self._assumptions)} assumptions)"
