"""Parametric gate library.

Each :class:`GateType` carries a behavioural evaluation function together
with a simple characterisation:

* ``transistors`` -- transistor count (static CMOS conventions: a series /
  parallel complex gate costs two transistors per literal; domino gates add
  the clock/foot and keeper devices; C-elements include their staticiser).
* ``delay_ps`` -- nominal propagation delay in picoseconds.  Values are
  loosely calibrated to a 0.25 micron process: a basic 2-input static gate
  around 90 ps, an inverter around 50 ps, domino gates faster than static.
* ``energy_pj`` -- switching energy per output transition, proportional to
  the transistor count (a crude but monotone capacitance proxy).

The numbers are a model, not silicon; the experiments compare circuit
styles against each other, which only requires the model to be monotone in
gate complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.boolean.expr import Expression

# Energy per transistor of switched capacitance, in picojoules.  Chosen so a
# handful of medium gates switching over a four-phase handshake lands in the
# tens-of-picojoule range reported by the paper's Table 2.
ENERGY_PER_TRANSISTOR_PJ = 0.11


EvalFn = Callable[[Sequence[int], int], int]


@dataclass(frozen=True)
class GateType:
    """A gate archetype: behaviour plus physical characterisation."""

    name: str
    num_inputs: int
    eval_fn: EvalFn
    transistors: int
    delay_ps: float
    energy_pj: float
    is_sequential: bool = False
    is_domino: bool = False
    description: str = ""

    def evaluate(self, inputs: Sequence[int], previous_output: int = 0) -> int:
        """Compute the output value given input values and previous output."""
        if len(inputs) != self.num_inputs:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_inputs} inputs, "
                f"got {len(inputs)}"
            )
        return int(bool(self.eval_fn(inputs, previous_output)))


def _inv(inputs: Sequence[int], prev: int) -> int:
    return 1 - inputs[0]


def _buf(inputs: Sequence[int], prev: int) -> int:
    return inputs[0]


def _and(inputs: Sequence[int], prev: int) -> int:
    return int(all(inputs))


def _or(inputs: Sequence[int], prev: int) -> int:
    return int(any(inputs))


def _nand(inputs: Sequence[int], prev: int) -> int:
    return int(not all(inputs))


def _nor(inputs: Sequence[int], prev: int) -> int:
    return int(not any(inputs))


def _xor(inputs: Sequence[int], prev: int) -> int:
    return int(sum(inputs) % 2)


def _celement(inputs: Sequence[int], prev: int) -> int:
    """Muller C-element: output follows inputs when they agree, else holds."""
    if all(inputs):
        return 1
    if not any(inputs):
        return 0
    return prev


def _asymmetric_sr(inputs: Sequence[int], prev: int) -> int:
    """Set-dominant SR behaviour: inputs = (set, reset)."""
    set_value, reset_value = inputs[0], inputs[1]
    if set_value:
        return 1
    if reset_value:
        return 0
    return prev


def _make_static(name: str, n: int, fn: EvalFn, delay: float, description: str) -> GateType:
    transistors = 2 * n if n > 1 else 2
    return GateType(
        name=name,
        num_inputs=n,
        eval_fn=fn,
        transistors=transistors,
        delay_ps=delay,
        energy_pj=round(transistors * ENERGY_PER_TRANSISTOR_PJ, 4),
        description=description,
    )


def _make_domino(name: str, n: int, fn: EvalFn, footed: bool, delay: float, description: str) -> GateType:
    # Pull-down network (n), output inverter (2), keeper (2), foot (1 if footed).
    transistors = n + 2 + 2 + (1 if footed else 0)
    return GateType(
        name=name,
        num_inputs=n,
        eval_fn=fn,
        transistors=transistors,
        delay_ps=delay,
        energy_pj=round(transistors * ENERGY_PER_TRANSISTOR_PJ, 4),
        is_domino=True,
        description=description,
    )


class GateLibrary:
    """A named collection of gate types."""

    def __init__(self, name: str = "library") -> None:
        self.name = name
        self._types: Dict[str, GateType] = {}

    def add(self, gate_type: GateType) -> GateType:
        if gate_type.name in self._types:
            raise ValueError(f"duplicate gate type {gate_type.name!r}")
        self._types[gate_type.name] = gate_type
        return gate_type

    def get(self, name: str) -> GateType:
        try:
            return self._types[name]
        except KeyError as exc:
            raise KeyError(
                f"gate type {name!r} not in library {self.name!r}; "
                f"available: {sorted(self._types)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def names(self) -> List[str]:
        return sorted(self._types)

    def __iter__(self):
        return iter(self._types.values())


def _build_standard_library() -> GateLibrary:
    library = GateLibrary("standard_0.25u")
    library.add(_make_static("INV", 1, _inv, 45.0, "static inverter"))
    library.add(_make_static("BUF", 1, _buf, 80.0, "non-inverting buffer"))
    for n in (2, 3, 4):
        library.add(_make_static(f"NAND{n}", n, _nand, 70.0 + 20.0 * (n - 2), f"{n}-input NAND"))
        library.add(_make_static(f"NOR{n}", n, _nor, 80.0 + 25.0 * (n - 2), f"{n}-input NOR"))
        library.add(_make_static(f"AND{n}", n, _and, 110.0 + 20.0 * (n - 2), f"{n}-input AND"))
        library.add(_make_static(f"OR{n}", n, _or, 115.0 + 25.0 * (n - 2), f"{n}-input OR"))
    library.add(_make_static("XOR2", 2, _xor, 130.0, "2-input XOR"))

    # Muller C-elements with staticiser.
    for n in (2, 3):
        transistors = 4 * n + 4
        library.add(
            GateType(
                name=f"C{n}",
                num_inputs=n,
                eval_fn=_celement,
                transistors=transistors,
                delay_ps=120.0 + 20.0 * (n - 2),
                energy_pj=round(transistors * ENERGY_PER_TRANSISTOR_PJ, 4),
                is_sequential=True,
                description=f"{n}-input Muller C-element",
            )
        )

    # Set/reset latch used for generalised C-element implementations.
    library.add(
        GateType(
            name="SR",
            num_inputs=2,
            eval_fn=_asymmetric_sr,
            transistors=10,
            delay_ps=110.0,
            energy_pj=round(10 * ENERGY_PER_TRANSISTOR_PJ, 4),
            is_sequential=True,
            description="set-dominant set/reset keeper",
        )
    )

    # Domino gates (footed and unfooted) as used by the RT and pulse FIFOs.
    for n in (1, 2, 3, 4):
        library.add(
            _make_domino(
                f"DOMINO_AND{n}", n, _and, footed=True, delay=55.0 + 10.0 * (n - 1),
                description=f"footed domino {n}-input AND with keeper",
            )
        )
        library.add(
            _make_domino(
                f"UDOMINO_AND{n}", n, _and, footed=False, delay=45.0 + 10.0 * (n - 1),
                description=f"unfooted domino {n}-input AND with keeper",
            )
        )
    return library


STANDARD_LIBRARY = _build_standard_library()


def complex_gate_type(
    name: str,
    expression: Expression,
    input_names: Sequence[str],
    sequential_feedback: Optional[str] = None,
    domino: bool = False,
) -> GateType:
    """Create a complex gate from a Boolean expression.

    ``input_names`` fixes the input ordering.  When ``sequential_feedback``
    names one of the inputs, that input is driven by the previous output
    value instead of a net (the generalised C-element idiom ``a = Set + a *
    !Reset``); the gate is then sequential.

    Transistor estimate: two transistors per literal plus two for the output
    inverter, plus four for a keeper when the gate is sequential or domino.
    """
    literal_count = expression.literal_count()
    transistors = 2 * max(literal_count, 1) + 2
    if sequential_feedback is not None or domino:
        transistors += 4
    if domino:
        transistors = max(literal_count, 1) + 5  # pull-down + foot + inverter + keeper

    input_names = list(input_names)
    feedback_index = (
        input_names.index(sequential_feedback)
        if sequential_feedback is not None
        else None
    )

    def evaluate(inputs: Sequence[int], prev: int) -> int:
        values = {name: value for name, value in zip(input_names, inputs)}
        if feedback_index is not None:
            values[input_names[feedback_index]] = prev
        return expression.evaluate(values)

    # Delay grows with the number of series literals in the largest product.
    depth = 1 + max(literal_count // 3, 0)
    delay = (60.0 if domino else 90.0) + 25.0 * (depth - 1)
    return GateType(
        name=name,
        num_inputs=len(input_names),
        eval_fn=evaluate,
        transistors=transistors,
        delay_ps=delay,
        energy_pj=round(transistors * ENERGY_PER_TRANSISTOR_PJ, 4),
        is_sequential=sequential_feedback is not None,
        is_domino=domino,
        description=f"complex gate: {expression}",
    )
