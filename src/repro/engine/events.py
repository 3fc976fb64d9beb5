"""Opcode compilation pass for gate-level simulation.

:class:`CompiledNetlist` turns a :class:`~repro.circuit.netlist.Netlist`
into the flat, index-based form the simulation kernel
(:mod:`repro.engine.simkernel`) executes:

* net names are interned to array slots (``netlist.nets`` sorted order)
  and the per-event ``Netlist.fanout_of`` linear scan over every gate
  becomes a precomputed adjacency list, built once;
* every gate is compiled to an **integer opcode plus a packed row** so
  the hot loop never calls a per-gate Python callable:

  - ``OP_TABLE`` -- the gate's behaviour is enumerated into one packed
    truth-table integer.  The lookup index folds the previous output (the
    sequential state bit, ignored by combinational tables, which simply
    repeat) above the input bits, so C-elements, SR keepers and
    generalised C-elements share the same opcode as plain logic.
  - ``OP_WIDE_AND`` / ``OP_WIDE_NAND`` / ``OP_WIDE_OR`` / ``OP_WIDE_NOR``
    -- threshold rows for recognised monotone gates too wide to
    enumerate (the row stores the input count to compare against).
  - ``OP_WIDE_XOR`` -- parity row for wide XOR.
  - ``OP_CALL`` -- fallback to :meth:`GateType.evaluate` for gates that
    cannot be compiled (unrecognised wide behaviour, arity mismatches,
    legitimately *partial* evaluation functions that reject some input
    combinations with ``ArithmeticError``/``LookupError``/
    ``RuntimeError``/``ValueError`` during enumeration).  This preserves
    the reference simulator's error behaviour exactly: a mis-wired gate
    still raises at its first evaluation, not at compile time.  A
    *broken* ``eval_fn`` -- one raising anything else, e.g. a
    ``TypeError`` from a bad signature -- is not silently demoted: the
    error propagates at compile time, where it is actionable.
  - ``OP_CONST`` -- the gate drives a constant (the packed row is the
    value).  Never produced by :func:`_compile_gate`; it exists for
    *stuck-at overlays* (:meth:`CompiledNetlist.stuck_at_overlay`), which
    patch the driver of a faulted net to a constant without rebuilding or
    recompiling the netlist.

Compilation calls ``eval_fn`` up to ``2 ** (n + 1)`` times per gate (n
inputs plus the state bit), once, at construction; every simulated event
afterwards is a shift-and-mask.

For worker processes, :meth:`CompiledNetlist.to_tables` exports the flat
tables as plain picklable containers (``OP_CALL`` rows carry arbitrary
callables and cannot be shipped; the export refuses them) and
:meth:`CompiledNetlist.from_tables` rebuilds a compiled view on the other
side without ever touching a :class:`~repro.circuit.netlist.Netlist`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.circuit
    from repro.circuit.netlist import GateInstance, Netlist

# Gate opcodes (see module docstring).
OP_TABLE = 0
OP_WIDE_AND = 1
OP_WIDE_NAND = 2
OP_WIDE_OR = 3
OP_WIDE_NOR = 4
OP_WIDE_XOR = 5
OP_CALL = 6
OP_CONST = 7  # overlay-only: row is the constant output value

# Widest gate whose truth table is enumerated (2**(n+1) evaluations).
TABLE_MAX_INPUTS = 10


def _wide_opcode(eval_fn: Callable) -> Optional[int]:
    """Threshold/parity opcode for a recognised library behaviour, or None."""
    from repro.circuit import library

    return {
        library._and: OP_WIDE_AND,
        library._nand: OP_WIDE_NAND,
        library._or: OP_WIDE_OR,
        library._nor: OP_WIDE_NOR,
        library._xor: OP_WIDE_XOR,
    }.get(eval_fn)


def _compile_gate(gate: "GateInstance") -> Tuple[int, int, Optional[Callable]]:
    """Compile one gate to ``(opcode, packed row, call fallback)``.

    The packed row is the truth table for ``OP_TABLE`` and the input
    count for the wide threshold opcodes; ``OP_CALL`` rows carry the
    bound :meth:`GateType.evaluate` instead.
    """
    gate_type = gate.gate_type
    n = gate_type.num_inputs
    if len(gate.inputs) != n:
        # Arity mismatch: evaluate() raises at first use, like the
        # reference simulator does.
        return OP_CALL, 0, gate_type.evaluate
    if n > TABLE_MAX_INPUTS:
        opcode = _wide_opcode(gate_type.eval_fn)
        if opcode is not None:
            return opcode, n, None
        return OP_CALL, 0, gate_type.evaluate
    eval_fn = gate_type.eval_fn
    table = 0
    try:
        for prev in (0, 1):
            for bits in range(1 << n):
                # Index convention shared with the kernel: the state bit
                # sits above the inputs, inputs fold MSB-first
                # (``idx = idx * 2 + value`` over inputs in gate order).
                inputs = [(bits >> (n - 1 - k)) & 1 for k in range(n)]
                if int(bool(eval_fn(inputs, prev))):
                    table |= 1 << ((prev << n) | bits)
    except (ArithmeticError, LookupError, RuntimeError, ValueError):
        # A legitimately partial gate function (domain checks, table
        # lookups, guards that reject off-protocol input combinations)
        # raises one of these for the combinations it refuses to
        # enumerate: fall back to evaluating per event, which preserves
        # the reference simulator's error behaviour on the combinations
        # that actually occur.  Anything else (``TypeError`` from a bad
        # signature, ``AttributeError`` from a typo, ...) is a broken
        # ``eval_fn``, not a partial one -- demoting it to ``OP_CALL``
        # would only resurface the bug mid-simulation, so it propagates
        # here, at compile time.
        return OP_CALL, 0, gate_type.evaluate
    return OP_TABLE, table, None


class CompiledNetlist:
    """Immutable, index-based view of a :class:`~repro.circuit.netlist.Netlist`.

    Net slots follow ``netlist.nets`` (sorted) order; gate slots follow gate
    insertion order so that event-processing visits fanout gates exactly as
    the reference simulator does.
    """

    __slots__ = (
        "net_names",
        "net_index",
        "initial_values",
        "fanout",
        "gates",
        "gate_inputs",
        "gate_output",
        "gate_op",
        "gate_row",
        "gate_call",
        "gate_delay",
        "driver_of",
        # Per-object analysis storage (repro.analysis.manager): compiled
        # views are immutable, so identity-keyed results (packed fanout
        # tuples, structure graphs) cache directly on the object.
        "_analysis_cache",
    )

    def __init__(self, netlist: Optional["Netlist"]) -> None:
        if netlist is None:  # from_tables fills the slots itself
            return
        self.net_names: List[str] = netlist.nets
        self.net_index: Dict[str, int] = {
            name: slot for slot, name in enumerate(self.net_names)
        }
        initial = netlist.initial_values()
        self.initial_values: List[int] = [
            initial.get(name, 0) for name in self.net_names
        ]

        index = self.net_index
        self.gates: List["GateInstance"] = netlist.gates
        self.gate_inputs: List[Tuple[int, ...]] = []
        self.gate_output: List[int] = []
        self.gate_op: List[int] = []
        self.gate_row: List[int] = []
        self.gate_call: List[Optional[Callable]] = []
        self.gate_delay: List[float] = []
        self.fanout: List[Tuple[int, ...]] = []
        self.driver_of: List[int] = [-1] * len(self.net_names)
        fanout: List[List[int]] = [[] for _ in self.net_names]
        for slot, gate in enumerate(self.gates):
            self.gate_inputs.append(tuple(index[net] for net in gate.inputs))
            self.gate_output.append(index[gate.output])
            opcode, row, call = _compile_gate(gate)
            self.gate_op.append(opcode)
            self.gate_row.append(row)
            self.gate_call.append(call)
            self.gate_delay.append(gate.gate_type.delay_ps)
            self.driver_of[index[gate.output]] = slot
            for net in dict.fromkeys(gate.inputs):  # dedupe, keep order
                fanout[index[net]].append(slot)
        self.fanout = [tuple(slots) for slots in fanout]

    # -- stuck-at overlay -------------------------------------------------------------
    def has_call_gates(self) -> bool:
        """True when any gate fell back to ``OP_CALL`` (unpicklable rows)."""
        return any(op == OP_CALL for op in self.gate_op)

    def stuck_at_overlay(
        self, net_slot: int, value: int
    ) -> Tuple[List[int], List[int], List[int]]:
        """Patched ``(gate_op, gate_row, initial_values)`` pinning one net.

        The driver gate of ``net_slot`` (at most one -- netlists are
        single-driver) becomes ``OP_CONST`` with the pinned value as its
        row, and the net's initial value is pinned too: exactly the
        semantics of rebuilding the netlist with a constant-output gate
        type in place of the driver, without recompiling anything.  The
        returned lists are shallow copies; every other table is shared
        with the un-faulted compilation.
        """
        value = int(bool(value))
        gate_op = list(self.gate_op)
        gate_row = list(self.gate_row)
        initial = list(self.initial_values)
        initial[net_slot] = value
        driver = self.driver_of[net_slot]
        if driver >= 0:
            gate_op[driver] = OP_CONST
            gate_row[driver] = value
        return gate_op, gate_row, initial

    # -- worker shipping --------------------------------------------------------------
    def to_tables(self) -> Dict[str, object]:
        """Flat, picklable export of the compiled form.

        ``OP_CALL`` gates carry bound Python callables (arbitrary
        ``eval_fn`` closures) that cannot cross a process boundary; the
        caller is expected to keep such netlists in-process.
        """
        if self.has_call_gates():
            raise ValueError(
                "netlist has OP_CALL gates; compiled tables cannot be shipped"
            )
        return {
            "net_names": list(self.net_names),
            "initial_values": list(self.initial_values),
            "fanout": list(self.fanout),
            "gate_inputs": list(self.gate_inputs),
            "gate_output": list(self.gate_output),
            "gate_op": list(self.gate_op),
            "gate_row": list(self.gate_row),
            "gate_delay": list(self.gate_delay),
            "driver_of": list(self.driver_of),
        }

    @classmethod
    def from_tables(cls, tables: Dict[str, object]) -> "CompiledNetlist":
        """Rebuild a compiled view from :meth:`to_tables` output.

        The view has no backing ``Netlist``; ``gates`` holds ``None``
        placeholders (only its length is consulted by the kernels).
        """
        compiled = cls(None)
        compiled.net_names = list(tables["net_names"])
        compiled.net_index = {
            name: slot for slot, name in enumerate(compiled.net_names)
        }
        compiled.initial_values = list(tables["initial_values"])
        compiled.fanout = [tuple(slots) for slots in tables["fanout"]]
        compiled.gate_inputs = [tuple(slots) for slots in tables["gate_inputs"]]
        compiled.gate_output = list(tables["gate_output"])
        compiled.gate_op = list(tables["gate_op"])
        compiled.gate_row = list(tables["gate_row"])
        compiled.gate_call = [None] * len(compiled.gate_op)
        compiled.gate_delay = list(tables["gate_delay"])
        compiled.driver_of = list(tables["driver_of"])
        compiled.gates = [None] * len(compiled.gate_op)
        return compiled


class BatchEventQueue:
    """Time-bucketed event queue: one heap entry per *distinct* timestamp.

    Events sharing a timestamp are appended to that timestamp's bucket in
    schedule order, so draining a bucket front to back reproduces the
    ``(time, seq)`` heap order of the reference simulator while paying
    one ``heappush``/``heappop`` per delta cycle instead of per event.
    """

    __slots__ = ("_times", "_buckets", "_count")

    def __init__(self) -> None:
        self._times: List[float] = []  # heap of distinct bucket times
        self._buckets: Dict[float, Tuple[List[int], List[int]]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, time: float, net: int, value: int) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            heappush(self._times, time)
            self._buckets[time] = ([net], [value])
        else:
            bucket[0].append(net)
            bucket[1].append(value)
        self._count += 1

    def pop_batch(self) -> Tuple[float, List[int], List[int]]:
        """Remove and return ``(time, nets, values)`` of the earliest bucket."""
        time = heappop(self._times)
        nets, values = self._buckets.pop(time)
        self._count -= len(nets)
        return time, nets, values

    def push_front(self, time: float, nets: List[int], values: List[int]) -> None:
        """Re-queue an undrained batch remainder ahead of newer same-time events.

        Used when an environment schedules into the past mid-batch: the
        remainder's events were all scheduled before anything pushed
        during the batch, so they belong at the front of the bucket.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            heappush(self._times, time)
            self._buckets[time] = (list(nets), list(values))
        else:
            bucket[0][:0] = nets
            bucket[1][:0] = values
        self._count += len(nets)

    def nets(self) -> set:
        """Slots of every net with a queued event."""
        return {net for nets, _values in self._buckets.values() for net in nets}

    def clone(self) -> "BatchEventQueue":
        """Deep-enough copy: private heap and buckets, shared immutables.

        The fault sweep forks a copy off the golden run by cloning
        golden's queue at a batch boundary; the clone and the original
        then evolve independently (bucket lists are copied, times and
        values are immutable).
        """
        other = BatchEventQueue()
        other._times = list(self._times)
        other._buckets = {
            time: (list(nets), list(values))
            for time, (nets, values) in self._buckets.items()
        }
        other._count = self._count
        return other

    def relative_snapshot(self, now: float) -> Tuple:
        """Hashable queue content with times relative to ``now``.

        Canonical (sorted) form used by the fault sweep's period hunt:
        two drain-loop iterations with equal state planes and equal
        relative snapshots evolve identically, shifted in time.
        """
        buckets = self._buckets
        return tuple(
            (
                time - now,
                tuple(buckets[time][0]),
                tuple(buckets[time][1]),
            )
            for time in sorted(buckets)
        )
