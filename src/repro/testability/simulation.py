"""Functional stuck-at fault simulation on the batch engine.

Asynchronous control circuits are tested functionally: the circuit is run
in its handshake environment and a fault is considered *detected* when
the observable behaviour differs from the fault-free run -- either a
primary output ends at a different value, produces a different number of
transitions, or the handshake stalls (fewer cycles complete).  This
mirrors the paper's observation that some transistors added purely to
prevent hazards have undetectable faults (they never change observable
behaviour), which is why the SI and burst-mode FIFOs score below 100%.

:func:`simulate_faults` runs the whole campaign through
:class:`repro.engine.faultsim.FaultSimEngine`: the netlist compiles
**once**, every stuck-at fault becomes a constant-driver overlay on the
compiled tables, and every copy forks off one golden drain at the
first event that can read its faulted net, then drains solo from there
(over the persistent worker pool in small chunks for large campaigns,
each carrying the campaign pickled once, which every worker decodes
once).  The pre-engine loop -- rebuild a fresh ``Netlist`` with a
synthesized ``*_SA0/1`` gate type and a fresh ``EventDrivenSimulator``
per fault -- is retained verbatim as :func:`_reference_simulate_faults`;
the differential suite (``tests/test_engine_differential.py``) pins the
batch engine to it: identical detected/undetected sets, identical reason
strings, identical coverage percentages, for shard counts 1-4.

Abnormal behaviour counts as detection: a fault whose simulation raises
``RuntimeError`` (oscillation / event explosion) **or** ``ValueError``
(a gate evaluation rejecting its inputs under the pinned value) is
classified ``abnormal behaviour: <error>`` by both paths.

Realistic campaigns run under randomised timing: ``delay_jitter``
spreads every gate delay and ``environment_jitter`` spreads every
handshake-rule response, each drawn per fault copy from RNG streams
seeded with the campaign ``seed``.  Jittered campaigns run on the batch
engine too -- per-copy ``random.Random`` streams reproduce the
reference's draw order exactly, so the bit-identity contract holds with
jitter on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.circuit.library import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.simulator import (
    EventDrivenSimulator,
    HandshakeRule,
    HandshakeEnvironment,
    SimulationTrace,
)
from repro.engine.events import CompiledNetlist
from repro.engine.faultsim import FaultSimEngine
from repro.testability.faults import StuckAtFault, enumerate_faults


@dataclass
class FaultSimulationResult:
    """Outcome of simulating one stuck-at fault.

    Attributes
    ----------
    fault:
        The :class:`~repro.testability.faults.StuckAtFault` that was
        injected for this run.
    detected:
        ``True`` when the faulty circuit's observable behaviour differs
        from the golden (fault-free) run -- a different final value or
        transition count on an observable net, or abnormal behaviour
        (the simulation raised).
    reason:
        Why the verdict fell the way it did: ``"observable
        difference"``, ``"no observable difference"``, or ``"abnormal
        behaviour: <error>"``.  Reason strings are part of the
        batch-vs-reference bit-identity contract, including under
        ``delay_jitter``/``environment_jitter``.
    """

    fault: StuckAtFault
    detected: bool
    reason: str = ""


def campaign_signature(
    results: Sequence[FaultSimulationResult],
) -> List[Tuple[str, int, bool, str]]:
    """Comparable form of a campaign: (net, value, detected, reason) rows.

    Used by the differential tests and the fault-campaign benchmark to
    assert the batch engine and :func:`_reference_simulate_faults` agree
    verdict for verdict, reason string for reason string.
    """
    return [
        (result.fault.net, result.fault.value, result.detected, result.reason)
        for result in results
    ]


def simulate_faults(
    netlist: Netlist,
    environment_rules: Sequence[HandshakeRule],
    initial_stimuli: Sequence[Tuple[str, int, float]],
    faults: Optional[Iterable[StuckAtFault]] = None,
    observables: Optional[Sequence[str]] = None,
    duration_ps: float = 30_000.0,
    seed: int = 7,
    delay_jitter: float = 0.0,
    environment_jitter: float = 0.0,
    shards: Optional[int] = None,
    use_processes: Optional[bool] = None,
    collapse: bool = True,
) -> List[FaultSimulationResult]:
    """Simulate each fault and classify it as detected or undetected.

    Parameters
    ----------
    netlist:
        Fault-free circuit.
    environment_rules, initial_stimuli:
        The functional test: the circuit's natural handshake environment.
    observables:
        Nets compared against the golden run (default: primary outputs).
    seed:
        Campaign seed, forwarded to the engine (and honoured by the
        retained reference path) so campaigns are reproducible under
        caller-chosen seeds.  Under jitter it seeds every copy's
        simulator and environment RNG streams.
    delay_jitter:
        Gate-delay jitter: each scheduled gate delay is drawn uniformly
        from ``[nominal * (1 - j), nominal * (1 + j)]``.  ``0.0``
        (default) keeps delays nominal and draw-free.
    environment_jitter:
        Handshake-environment jitter: each fired rule's response delay
        is drawn the same way from the environment's own RNG stream.
        Equivalent to running every fault copy against a
        ``HandshakeEnvironment(rules, jitter=environment_jitter,
        seed=seed)``.
    shards, use_processes:
        Worker-pool knobs: auto mode keeps small campaigns and
        single-CPU hosts in-process (see :func:`repro.engine.pool.decide`).
    collapse:
        Consult the static fault-collapsing analysis
        (:mod:`repro.analysis.collapse`) before sweeping: statically
        resolved faults are answered without simulation and equivalence
        classes simulate one representative, with verdicts expanded
        back over the full list bit-identically to an uncollapsed run
        (the differential suite pins this).  ``False`` forces every
        fault through the sweep -- the knob exists for benchmarking the
        collapse itself, not because results differ.

    Jittered campaigns run on the batch engine too (per-copy RNG
    streams reproduce the reference draw order exactly); verdicts,
    reason strings, and coverage stay bit-identical to
    :func:`_reference_simulate_faults` for every knob combination.
    """
    if faults is None:
        faults = enumerate_faults(netlist)
    faults = list(faults)

    engine = FaultSimEngine(
        netlist,
        environment_rules,
        initial_stimuli,
        observables=observables,
        duration_ps=duration_ps,
        max_events=500_000,
        seed=seed,
        delay_jitter=delay_jitter,
        environment_jitter=environment_jitter,
        collapse=collapse,
    )
    try:
        verdicts = engine.run(faults, shards=shards, use_processes=use_processes)
    finally:
        engine.close()
    return [
        FaultSimulationResult(fault, detected, reason)
        for fault, (detected, reason) in zip(faults, verdicts)
    ]


# ---------------------------------------------------------------------------
# Reference implementation retained for the differential test suite.
# ---------------------------------------------------------------------------


def _stuck_gate_type(original: GateType, value: int) -> GateType:
    """A gate type that ignores its inputs and drives a constant."""
    return GateType(
        name=f"{original.name}_SA{value}",
        num_inputs=original.num_inputs,
        eval_fn=lambda inputs, prev, _v=value: _v,
        transistors=original.transistors,
        delay_ps=original.delay_ps,
        energy_pj=original.energy_pj,
        is_sequential=original.is_sequential,
        is_domino=original.is_domino,
        description=f"{original.description} (stuck at {value})",
    )


def _inject_fault(netlist: Netlist, fault: StuckAtFault) -> Netlist:
    """Build a copy of ``netlist`` with the fault injected.

    A fault on a gate output replaces that gate with a constant driver; a
    fault on an undriven (input) net is modelled by pinning its initial
    value.  The batch engine's table overlay reproduces exactly this
    construction without building anything.
    """
    faulty = Netlist(f"{netlist.name}__{fault.net}_sa{fault.value}")
    for net in netlist.primary_inputs:
        faulty.add_primary_input(net, initial=netlist.initial_value(net))
    for net in netlist.primary_outputs:
        faulty.add_primary_output(net)
    for net in netlist.nets:
        faulty.add_net(net, initial=netlist.initial_value(net))

    for gate in netlist.gates:
        gate_type = gate.gate_type
        if gate.output == fault.net:
            gate_type = _stuck_gate_type(gate.gate_type, fault.value)
        faulty.add_gate(
            gate.name,
            gate_type,
            gate.inputs,
            gate.output,
            output_initial=netlist.initial_value(gate.output),
        )
    if fault.net in faulty.nets:
        faulty.set_initial_value(fault.net, fault.value)
    return faulty


def _observable_signature(
    trace: SimulationTrace, observables: Sequence[str]
) -> Tuple[Tuple[str, int, int], ...]:
    """(net, final value, transition count) for each observable net."""
    signature = []
    for net in observables:
        waveform = trace.waveforms.get(net)
        final = trace.final_values.get(net, 0)
        transitions = waveform.transition_count() if waveform else 0
        signature.append((net, final, transitions))
    return tuple(signature)


def _run(
    netlist: Netlist,
    environment_rules: Sequence[HandshakeRule],
    initial_stimuli: Sequence[Tuple[str, int, float]],
    duration_ps: float,
    seed: int,
    delay_jitter: float = 0.0,
    environment_jitter: float = 0.0,
) -> SimulationTrace:
    environment = HandshakeEnvironment(
        environment_rules,
        jitter=environment_jitter,
        seed=seed,
        initial_stimuli=initial_stimuli,
    )
    # The oracle compiles every (rebuilt) netlist itself rather than
    # through the analysis cache the engine path uses.
    netlist.validate()
    simulator = EventDrivenSimulator(
        netlist,
        [environment],
        delay_jitter=delay_jitter,
        seed=seed,
        compiled=CompiledNetlist(netlist),
    )
    return simulator.run(duration_ps=duration_ps, max_events=500_000)


def _reference_simulate_faults(
    netlist: Netlist,
    environment_rules: Sequence[HandshakeRule],
    initial_stimuli: Sequence[Tuple[str, int, float]],
    faults: Optional[Iterable[StuckAtFault]] = None,
    observables: Optional[Sequence[str]] = None,
    duration_ps: float = 30_000.0,
    seed: int = 7,
    delay_jitter: float = 0.0,
    environment_jitter: float = 0.0,
) -> List[FaultSimulationResult]:
    """Pre-engine campaign loop: one rebuilt netlist + simulator per fault.

    Differential oracle for :func:`simulate_faults`: same verdicts, same
    reasons, same order, at 2N+1 compilations instead of one.  Every
    fault copy gets a fresh simulator and a fresh jittered
    ``HandshakeEnvironment``, both seeded with the campaign ``seed`` --
    the draw-order contract the batch engine's per-copy RNG streams
    must (and do) reproduce.
    """
    if faults is None:
        faults = enumerate_faults(netlist)
    if observables is None:
        observables = netlist.primary_outputs or netlist.nets

    golden = _run(
        netlist,
        environment_rules,
        initial_stimuli,
        duration_ps,
        seed,
        delay_jitter,
        environment_jitter,
    )
    golden_signature = _observable_signature(golden, observables)

    results: List[FaultSimulationResult] = []
    for fault in faults:
        faulty_netlist = _inject_fault(netlist, fault)
        try:
            trace = _run(
                faulty_netlist,
                environment_rules,
                initial_stimuli,
                duration_ps,
                seed,
                delay_jitter,
                environment_jitter,
            )
        except (RuntimeError, ValueError) as exc:
            # Oscillation, event explosion, or a gate evaluation blowing
            # up under the pinned value: all observable behaviour.
            results.append(
                FaultSimulationResult(fault, True, f"abnormal behaviour: {exc}")
            )
            continue
        signature = _observable_signature(trace, observables)
        if signature != golden_signature:
            results.append(FaultSimulationResult(fault, True, "observable difference"))
        else:
            results.append(
                FaultSimulationResult(fault, False, "no observable difference")
            )
    return results
