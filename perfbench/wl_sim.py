"""``sim`` workload: Table 2 characterisation of RT-synthesized FIFO chains.

One op runs ``measure_cycle_metrics`` on a chain of 4, 8 or 16 FIFO
cells for about 200 handshake cycles.  Ops cycle through the three chain
lengths, once jitter-free and once with ``measure_cycle_metrics``'
default jitter, which draws from the RNG.  The event compile, the
simulation kernel's drain and the waveform/energy summary do the work;
fault simulation, the analysis manager, the pool and the service are
bypassed.

The three lengths take about 1x, 2x and 4x the time of the shortest, so
the median op lies inside the 8-stage class and p90 inside the 16-stage
class, never on a boundary between classes.  Each run uses one jitter
seed per chain length, so the oracle runs six times per run.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.circuit.analysis import (
    CircuitMetrics,
    estimate_energy,
    measure_cycle_metrics,
)
from repro.circuit.simulator import (
    EventDrivenSimulator,
    HandshakeEnvironment,
    _ReferenceEventDrivenSimulator,
)
from repro.engine.events import CompiledNetlist

from circuits import STAGES, fifo_chains
from common import Mismatch, median

#: About 200 cycles of the ~820 ps FIFO handshake.
DURATION_PS = 170_000.0
CYCLES = 200
MAX_EVENTS = 2_000_000
#: ``measure_cycle_metrics``' default jitter.
ENVIRONMENT_JITTER = 0.25
DELAY_JITTER = 0.10


def summarise(netlist, trace, reference_net: str) -> CircuitMetrics:
    """``measure_cycle_metrics``' summary step over a finished trace."""
    rising = trace.waveforms[reference_net].rising_edges()
    edges = rising[1:]
    intervals = [b - a for a, b in zip(edges, edges[1:])][:CYCLES]
    total_cycles = max(len(rising) - 1, 1)
    return CircuitMetrics(
        name=netlist.name,
        worst_delay_ps=max(intervals),
        average_delay_ps=statistics.fmean(intervals),
        cycle_time_ps=statistics.fmean(intervals),
        energy_per_cycle_pj=estimate_energy(netlist, trace) / total_cycles,
        transistors=netlist.transistor_count(),
        gate_count=netlist.gate_count(),
        cycles_measured=len(intervals),
        transitions_per_cycle=trace.total_transitions() / total_cycles,
    )


class Workload:
    NAME = "sim"
    #: Ops per full pass over the input mix.
    CYCLE = 2 * len(STAGES)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.chains = fifo_chains()
        #: Oracle outcomes by spec; JSON-able, so later processes reuse them.
        self.expected: dict = {}
        self.layer: dict = {"events": [], "transitions": []}

    def spec(self, index: int):
        return STAGES[index % len(STAGES)], (index // len(STAGES)) % 2 == 1

    def _knobs(self, spec):
        """(reference net, seed, environment jitter, delay jitter)."""
        stages, jittered = spec
        jitter = (ENVIRONMENT_JITTER, DELAY_JITTER) if jittered else (0.0, 0.0)
        return (f"s{stages - 1}_ro", self.seed * 1000 + stages) + jitter

    def run(self, spec):
        netlist, rules, stimuli = self.chains[spec[0]]
        reference_net, seed, environment_jitter, delay_jitter = self._knobs(spec)
        return measure_cycle_metrics(
            netlist,
            rules,
            reference_net,
            cycles=CYCLES,
            environment_jitter=environment_jitter,
            delay_jitter=delay_jitter,
            seed=seed,
            initial_stimuli=stimuli,
            max_duration_ps=DURATION_PS,
        )

    def _environment(self, spec):
        _netlist, rules, stimuli = self.chains[spec[0]]
        _net, seed, environment_jitter, _delay = self._knobs(spec)
        return HandshakeEnvironment(
            rules, jitter=environment_jitter, seed=seed, initial_stimuli=stimuli
        )

    def run_traced(self, spec, tracer):
        netlist = self.chains[spec[0]][0]
        reference_net, seed, _environment_jitter, delay_jitter = self._knobs(spec)
        with tracer.span("sim.engine.compile"):
            netlist.validate()
            compiled = CompiledNetlist(netlist)
        mode = "jitter" if spec[1] else "nojitter"
        with tracer.span(f"sim.circuit.run.{mode}"):
            simulator = EventDrivenSimulator(
                netlist,
                [self._environment(spec)],
                delay_jitter=delay_jitter,
                seed=seed,
                compiled=compiled,
            )
            trace = simulator.run(duration_ps=DURATION_PS, max_events=MAX_EVENTS)
        with tracer.span("sim.circuit.summary"):
            metrics = summarise(netlist, trace, reference_net)
        self.layer["events"].append(trace.event_count)
        self.layer["transitions"].append(trace.total_transitions())
        return metrics

    def _expectation(self, spec):
        """Oracle outcome: ``_ReferenceEventDrivenSimulator`` on the same input."""
        if spec not in self.expected:
            netlist = self.chains[spec[0]][0]
            reference_net, seed, _environment_jitter, delay_jitter = self._knobs(spec)
            trace = _ReferenceEventDrivenSimulator(
                netlist, [self._environment(spec)], delay_jitter=delay_jitter, seed=seed
            ).run(duration_ps=DURATION_PS, max_events=MAX_EVENTS)
            metrics = summarise(netlist, trace, reference_net)
            self.expected[spec] = [dataclasses.asdict(metrics), trace.total_transitions()]
        return self.expected[spec]

    def model_lines(self) -> list:
        return [
            f"sim model: stages={stages} jitter={int(jittered)} seed={self._knobs((stages, jittered))[1]} "
            f"cycle_time_ps={metrics['cycle_time_ps']!r} "
            f"energy_per_cycle_pj={metrics['energy_per_cycle_pj']!r}"
            for (stages, jittered), (metrics, _transitions) in sorted(self.expected.items())
        ]

    def check(self, spec, metrics) -> int:
        """Simulated transitions, or raise :class:`Mismatch`."""
        expected, transitions = self._expectation(spec)
        if dataclasses.asdict(metrics) != expected:
            raise Mismatch(f"sim {spec}: {metrics} != oracle {expected}")
        return transitions

    def warmup(self) -> None:
        self.run(self.spec(0))

    def layer_metrics(self, tracer) -> dict:
        run_ms = sum(
            tracer.durations_ms("sim.circuit.run.jitter")
            + tracer.durations_ms("sim.circuit.run.nojitter")
        )
        events = sum(self.layer["events"])
        return {
            "sim.engine.compile.ms": tracer.median_ms("sim.engine.compile"),
            "sim.circuit.run.jitter.ms": tracer.median_ms("sim.circuit.run.jitter"),
            "sim.circuit.run.nojitter.ms": tracer.median_ms(
                "sim.circuit.run.nojitter"
            ),
            "sim.circuit.summary.ms": tracer.median_ms("sim.circuit.summary"),
            "sim.circuit.events": median(self.layer["events"]),
            "sim.circuit.transitions": median(self.layer["transitions"]),
            "sim.circuit.ns_per_event": 1e6 * run_ms / events if events else None,
        }

    def close(self) -> None:
        pass
