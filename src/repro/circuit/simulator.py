"""Event-driven gate-level simulation.

The simulator uses a transport-delay model: whenever a gate's computed
output differs from the value it is currently heading towards, a new event
is scheduled one gate delay in the future.  Feedback loops, pulses, and
hazards are therefore represented faithfully at the granularity of the gate
delay model.

*Environments* close the loop around an asynchronous circuit: they watch
output nets and drive input nets after configurable delays, which is how
handshake protocols are exercised (the "left environment" and "right
environment" of the paper's Figure 6).
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import analysis as _analysis
from repro.circuit.netlist import GateInstance, Netlist, NetlistError
from repro.engine.events import CompiledNetlist
from repro.engine.simkernel import SimKernel


@dataclass
class Waveform:
    """Sequence of (time, value) changes for a single net."""

    net: str
    changes: List[Tuple[float, int]] = field(default_factory=list)

    def record(self, time: float, value: int) -> None:
        self.changes.append((time, value))

    def value_at(self, time: float) -> int:
        """Value of the net at ``time``.

        A change recorded *exactly at* ``time`` is visible (``<=``
        semantics, pinned by a regression test); querying before the first
        change returns the first recorded value, matching the reference
        linear scan in :func:`_reference_value_at`.
        """
        changes = self.changes
        if not changes:
            return 0
        index = bisect_right(changes, (time, float("inf")))
        return changes[index - 1][1] if index else changes[0][1]

    def transition_count(self) -> int:
        """Number of value changes excluding the initial assignment."""
        return max(len(self.changes) - 1, 0)

    def rising_edges(self) -> List[float]:
        return [t for i, (t, v) in enumerate(self.changes) if v == 1 and i > 0]

    def falling_edges(self) -> List[float]:
        return [t for i, (t, v) in enumerate(self.changes) if v == 0 and i > 0]


@dataclass
class SimulationTrace:
    """Result of a simulation run."""

    waveforms: Dict[str, Waveform]
    final_values: Dict[str, int]
    end_time: float
    event_count: int

    def transition_count(self, net: str) -> int:
        # Columnar traces count without materialising the waveform.
        fast_count = getattr(self.waveforms, "transition_count", None)
        if fast_count is not None:
            return fast_count(net)
        waveform = self.waveforms.get(net)
        return waveform.transition_count() if waveform else 0

    def total_transitions(self) -> int:
        # Columnar traces count without materialising every waveform.
        fast_count = getattr(self.waveforms, "total_transitions", None)
        if fast_count is not None:
            return fast_count()
        return sum(w.transition_count() for w in self.waveforms.values())


class Environment:
    """Base class for reactive environments driving primary inputs."""

    def on_change(self, simulator: "EventDrivenSimulator", net: str, value: int, time: float) -> None:
        """Called after every committed net change."""

    def start(self, simulator: "EventDrivenSimulator") -> None:
        """Called once before simulation starts (schedule initial stimuli)."""

    def reset(self) -> None:
        """Re-arm internal state (RNGs, counters) for a fresh run.

        Called by ``EventDrivenSimulator.reset()`` so that resetting a
        simulator and re-running the same netlist reproduces the first
        run exactly.  Environments shared between simulators are re-armed
        by whichever simulator resets.
        """


@dataclass
class HandshakeRule:
    """Reactive rule: when ``trigger`` becomes ``trigger_value``, drive ``target``."""

    trigger: str
    trigger_value: int
    target: str
    target_value: int
    delay_ps: float


class HandshakeEnvironment(Environment):
    """An environment defined by a list of :class:`HandshakeRule` reactions.

    Optional jitter makes the environment response times vary uniformly in
    ``[delay * (1 - jitter), delay * (1 + jitter)]``; a seeded RNG keeps runs
    reproducible.
    """

    def __init__(
        self,
        rules: Iterable[HandshakeRule],
        jitter: float = 0.0,
        seed: int = 0,
        initial_stimuli: Optional[Sequence[Tuple[str, int, float]]] = None,
    ) -> None:
        self.rules = list(rules)
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)
        self.initial_stimuli = list(initial_stimuli or [])

    def reset(self) -> None:
        """Restart the jitter RNG from the seed (same seed, same trace)."""
        self._rng = random.Random(self.seed)

    def _delay(self, nominal: float) -> float:
        if self.jitter <= 0:
            return nominal
        low = nominal * (1.0 - self.jitter)
        high = nominal * (1.0 + self.jitter)
        return self._rng.uniform(low, high)

    def start(self, simulator: "EventDrivenSimulator") -> None:
        for net, value, time in self.initial_stimuli:
            simulator.schedule(net, value, time)

    def on_change(self, simulator: "EventDrivenSimulator", net: str, value: int, time: float) -> None:
        for rule in self.rules:
            if rule.trigger == net and rule.trigger_value == value:
                simulator.schedule(
                    rule.target, rule.target_value, time + self._delay(rule.delay_ps)
                )


class CallbackEnvironment(Environment):
    """Environment delegating to a user callback ``fn(sim, net, value, time)``."""

    def __init__(self, callback: Callable[["EventDrivenSimulator", str, int, float], None]):
        self.callback = callback

    def on_change(self, simulator: "EventDrivenSimulator", net: str, value: int, time: float) -> None:
        self.callback(simulator, net, value, time)


class EventDrivenSimulator:
    """Discrete-event simulator over a :class:`~repro.circuit.netlist.Netlist`.

    The netlist is compiled once into the opcode form of
    :class:`~repro.engine.events.CompiledNetlist` (net-name interning,
    fanout adjacency, one packed truth-table/threshold row per gate) and
    the event loop runs inside :class:`~repro.engine.simkernel.SimKernel`:
    same-timestamp events drain as one delta-cycle batch over flat integer
    arrays, and transitions are recorded into per-net columns that
    materialise :class:`Waveform` objects lazily.  The observable
    behaviour -- commit order, waveforms, RNG draw order under jitter --
    is identical to the retained :class:`_ReferenceEventDrivenSimulator`.

    Without ``compiled``, the netlist's compilation comes from the
    analysis manager's ``"compile"`` pass (validated when computed), so
    simulators built over one unchanged netlist compile it once.  A lone
    :class:`HandshakeEnvironment` (exactly that class; a subclass may
    override ``on_change``) runs as compiled rules inside the kernel
    with the same RNG draws; any other environment is called back per
    committed change.  A run with no callback environment, no jitter, a
    ``duration_ps`` and integral delays and stimulus times is exactly
    periodic once it settles: the kernel's period hunt then appends
    whole periods of waveform instead of simulating them, with
    ``event_count``, ``time`` and every waveform unchanged (a
    ``max_events`` cap inside such a span is still met event by event).

    Two hooks serve the batch fault-simulation engine
    (:mod:`repro.engine.faultsim`) and anyone else sweeping many variants
    of one circuit: ``compiled`` reuses an existing
    :class:`~repro.engine.events.CompiledNetlist` instead of compiling
    (compilation enumerates every gate's truth table and dominates
    construction cost for complex-gate netlists), and ``stuck_at`` pins
    one net to a constant through a compiled-table overlay -- the net's
    driver gate is patched to an ``OP_CONST`` row and the net's initial
    value is pinned, which is observably identical to rebuilding the
    netlist with a constant-output gate type in the driver's place.
    Neither hook changes behaviour when left at its default.
    """

    def __init__(
        self,
        netlist: Netlist,
        environments: Optional[Sequence[Environment]] = None,
        delay_jitter: float = 0.0,
        seed: int = 0,
        compiled: Optional[CompiledNetlist] = None,
        stuck_at: Optional[Tuple[str, int]] = None,
    ) -> None:
        if compiled is None:
            if hasattr(netlist, "analysis_fingerprint"):
                compiled = _analysis.get(netlist, "compile")
            else:
                netlist.validate()
                compiled = CompiledNetlist(netlist)
        self.netlist = netlist
        self.environments = list(environments or [])
        self.delay_jitter = delay_jitter
        self.seed = seed
        self._compiled = compiled
        overlay = None
        if stuck_at is not None:
            net, value = stuck_at
            slot = compiled.net_index.get(net)
            if slot is None:
                raise NetlistError(f"unknown net {net!r}")
            overlay = (slot, int(bool(value)))
        self.stuck_at = stuck_at
        self._kernel = SimKernel(compiled, Waveform, delay_jitter, overlay=overlay)
        self.reset()

    # -- state management -----------------------------------------------------------
    def reset(self) -> None:
        """Return to the initial state: same netlist, fresh everything else.

        Fully re-arms the simulator -- the jitter RNG restarts from the
        seed, the kernel drops its queue and transition columns
        wholesale, and every attached environment's :meth:`Environment.reset`
        hook runs -- so running the same stimuli twice on one simulator
        instance produces bit-identical traces (pinned by a regression
        test).
        """
        self.time = 0.0
        self._rng = random.Random(self.seed)
        self._kernel.reset(self._rng)
        for environment in self.environments:
            environment.reset()

    @property
    def event_count(self) -> int:
        """Committed net changes so far (grows while environments watch)."""
        return self._kernel.event_count

    @property
    def waveforms(self) -> Dict[str, Waveform]:
        """Mapping of net name to waveform, materialised lazily per net."""
        return self._kernel.waveforms

    @property
    def values(self) -> Dict[str, int]:
        """Snapshot of current net values keyed by net name."""
        return dict(zip(self._compiled.net_names, self._kernel.values))

    def value(self, net: str) -> int:
        return self._kernel.values[self._compiled.net_index[net]]

    # -- scheduling -------------------------------------------------------------------
    def schedule(self, net: str, value: int, time: float) -> None:
        """Schedule a net change at an absolute time."""
        slot = self._compiled.net_index.get(net)
        if slot is None:
            raise NetlistError(f"unknown net {net!r}")
        self._kernel.schedule_slot(slot, int(bool(value)), time)

    # -- main loop -----------------------------------------------------------------------
    def run(self, duration_ps: Optional[float] = None, max_events: int = 1_000_000) -> SimulationTrace:
        """Run until the event queue drains, a time limit, or an event cap."""
        kernel = self._kernel
        kernel.settle(self.time)
        for environment in self.environments:
            environment.start(self)

        end_time = self.time + duration_ps if duration_ps is not None else None
        kernel.drain(self, self.environments, end_time, max_events)

        if end_time is None or not len(kernel.queue):
            final_time = self.time
        else:
            final_time = max(self.time, end_time)
        return SimulationTrace(
            waveforms=kernel.waveforms,
            final_values=self.values,
            end_time=final_time,
            event_count=kernel.event_count,
        )

    # -- convenience -----------------------------------------------------------------------
    def settle(self, max_events: int = 100_000) -> SimulationTrace:
        """Run without a time limit until no events remain."""
        return self.run(duration_ps=None, max_events=max_events)


# ---------------------------------------------------------------------------
# Reference implementations retained for the differential test suite.
# ---------------------------------------------------------------------------


def _reference_value_at(waveform: Waveform, time: float) -> int:
    """Pre-engine linear scan defining :meth:`Waveform.value_at` semantics."""
    changes = waveform.changes
    value = changes[0][1] if changes else 0
    for change_time, change_value in changes:
        if change_time > time:
            break
        value = change_value
    return value


class _ReferenceEventDrivenSimulator:
    """Pre-engine simulator: dict-keyed values, per-event fanout scans.

    Oracle for the differential tests; given the same netlist, stimuli,
    seed and jitter it must produce waveforms identical to
    :class:`EventDrivenSimulator`.
    """

    def __init__(
        self,
        netlist: Netlist,
        environments: Optional[Sequence[Environment]] = None,
        delay_jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        self.environments = list(environments or [])
        self.delay_jitter = delay_jitter
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        """Re-arm fully (RNG from seed, fresh queue, environments reset)."""
        self.time = 0.0
        self._rng = random.Random(self.seed)
        self._counter = itertools.count()
        for environment in self.environments:
            environment.reset()
        self.values: Dict[str, int] = dict(self.netlist.initial_values())
        for net in self.netlist.nets:
            self.values.setdefault(net, 0)
        self._pending: Dict[str, int] = dict(self.values)
        self._queue: List[Tuple[float, int, str, int]] = []
        self.waveforms: Dict[str, Waveform] = {
            net: Waveform(net, [(0.0, self.values[net])]) for net in self.netlist.nets
        }
        self.event_count = 0
        self._gate_state: Dict[str, int] = {
            gate.name: self.values.get(gate.output, 0) for gate in self.netlist.gates
        }

    def value(self, net: str) -> int:
        return self.values[net]

    def schedule(self, net: str, value: int, time: float) -> None:
        if net not in self.values:
            raise NetlistError(f"unknown net {net!r}")
        value = int(bool(value))
        heapq.heappush(self._queue, (time, next(self._counter), net, value))
        self._pending[net] = value

    def _gate_delay(self, gate: GateInstance) -> float:
        nominal = gate.gate_type.delay_ps
        if self.delay_jitter <= 0:
            return nominal
        return self._rng.uniform(
            nominal * (1.0 - self.delay_jitter), nominal * (1.0 + self.delay_jitter)
        )

    def _evaluate_gate(self, gate: GateInstance) -> int:
        inputs = [self.values[net] for net in gate.inputs]
        previous = self._gate_state[gate.name]
        return gate.gate_type.evaluate(inputs, previous)

    def _settle_initial_state(self) -> None:
        for gate in self.netlist.gates:
            output = self._evaluate_gate(gate)
            if output != self.values[gate.output]:
                self.schedule(gate.output, output, self.time + self._gate_delay(gate))

    def run(self, duration_ps: Optional[float] = None, max_events: int = 1_000_000) -> SimulationTrace:
        self._settle_initial_state()
        for environment in self.environments:
            environment.start(self)

        end_time = self.time + duration_ps if duration_ps is not None else None
        processed = 0
        while self._queue:
            event_time, _seq, net, value = self._queue[0]
            if end_time is not None and event_time > end_time:
                break
            heapq.heappop(self._queue)
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "the circuit is probably oscillating"
                )
            self.time = event_time
            if self.values[net] == value:
                continue
            self.values[net] = value
            self.waveforms[net].record(event_time, value)
            self.event_count += 1

            for gate in self.netlist.fanout_of(net):
                new_output = self._evaluate_gate(gate)
                self._gate_state[gate.name] = new_output
                if new_output != self._pending.get(gate.output, self.values[gate.output]):
                    self.schedule(
                        gate.output, new_output, event_time + self._gate_delay(gate)
                    )

            for environment in self.environments:
                environment.on_change(self, net, value, event_time)

        final_time = self.time if end_time is None else max(self.time, end_time if self._queue else self.time)
        return SimulationTrace(
            waveforms=dict(self.waveforms),
            final_values=dict(self.values),
            end_time=final_time,
            event_count=self.event_count,
        )

    def settle(self, max_events: int = 100_000) -> SimulationTrace:
        return self.run(duration_ps=None, max_events=max_events)
