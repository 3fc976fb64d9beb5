"""Differential tests: the engine fast paths vs the retained naive code.

Every optimised path introduced by :mod:`repro.engine` keeps its
pre-engine implementation around (``_reference_build_reachability_graph``,
``_ReferenceEventDrivenSimulator``, ``RappidDecoder._reference_run``,
``WorkloadGenerator._reference_instructions``, ``_reference_value_at``).  These tests drive both sides with seeded random
inputs -- bounded Petri nets, gate netlists, RAPPID workloads -- and
assert the results are identical: same markings in the same order, same
edges, same waveforms, same raised errors.
"""

import gc
import math
import random

import pytest

from repro.circuit.library import STANDARD_LIBRARY
from repro.circuit.netlist import Netlist, NetlistError
from repro.circuit.simulator import (
    EventDrivenSimulator,
    Waveform,
    _ReferenceEventDrivenSimulator,
    _reference_value_at,
)
from repro.engine.marking import EncodingError, NetEncoding
from repro.petrinet.net import PetriNet
from repro.petrinet.reachability import (
    UnboundedNetError,
    _reference_build_reachability_graph,
    _stubborn_selector,
    build_reachability_graph,
    explore,
)
from repro.rappid.isa import InstructionClass, LengthClass, class_of_length
from repro.stategraph.graph import StateGraphError, build_state_graph
from repro.stg import StgBuilder, specs
from repro.rappid.microarch import RappidConfig, RappidDecoder
from repro.rappid.workload import CacheLine, Instruction, WorkloadGenerator

from _spec_helpers import build_pipeline

PETRI_SEEDS = range(60)
NETLIST_SEEDS = range(60)
RAPPID_SEEDS = range(60)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def random_bounded_net(seed: int, unit_weights: bool = False) -> PetriNet:
    """A random net that cannot gain tokens: per transition, the number of
    produced tokens never exceeds the number consumed, so every marking is
    bounded by the initial token count."""
    rng = random.Random(seed)
    net = PetriNet(f"rand{seed}")
    num_places = rng.randint(2, 8)
    num_transitions = rng.randint(2, 8)
    places = [f"p{i}" for i in range(num_places)]
    for place in places:
        net.add_place(place)
    for j in range(num_transitions):
        name = f"t{j}"
        net.add_transition(name)
        fan_in = rng.randint(1, min(3, num_places))
        inputs = rng.sample(places, fan_in)
        outputs = rng.sample(places, rng.randint(1, fan_in))
        for place in inputs:
            weight = 1 if unit_weights or rng.random() < 0.8 else 2
            net.add_arc(place, name, weight)
        for place in outputs:
            net.add_arc(name, place)
    if unit_weights:
        marking = {p: rng.randint(0, 1) for p in places}
    else:
        marking = {p: rng.randint(0, 2) for p in places}
    if not any(marking.values()):
        marking[rng.choice(places)] = 1
    net.set_initial_marking(marking)
    return net


_COMBINATIONAL = ["INV", "BUF", "AND2", "OR2", "NAND2", "NOR2", "XOR2"]


def random_dag_netlist(seed: int) -> Netlist:
    """A random feed-forward netlist (no loops, so it cannot oscillate)."""
    rng = random.Random(seed)
    netlist = Netlist(f"dag{seed}")
    num_inputs = rng.randint(2, 4)
    available = []
    for i in range(num_inputs):
        net = netlist.add_primary_input(f"in{i}", initial=rng.randint(0, 1))
        available.append(net)
    num_gates = rng.randint(3, 12)
    for g in range(num_gates):
        gate_type = STANDARD_LIBRARY.get(rng.choice(_COMBINATIONAL))
        inputs = [rng.choice(available) for _ in range(gate_type.num_inputs)]
        output = f"n{g}"
        netlist.add_gate(f"g{g}", gate_type, inputs, output)
        available.append(output)
    out = netlist.add_primary_output("out")
    netlist.add_gate(
        "g_out", STANDARD_LIBRARY.get("BUF"), [rng.choice(available[num_inputs:])], out
    )
    return netlist


def random_stimuli(rng: random.Random, netlist: Netlist):
    events = []
    time = 0.0
    for _ in range(rng.randint(3, 15)):
        time += rng.uniform(10.0, 300.0)
        events.append((rng.choice(netlist.primary_inputs), rng.randint(0, 1), time))
    return events


# ---------------------------------------------------------------------------
# Petri net reachability
# ---------------------------------------------------------------------------


def _graph_signature(graph):
    return (
        list(graph.markings),
        dict(graph.edges),
        [hash(m) for m in graph.markings],
    )


class TestReachabilityDifferential:
    @pytest.mark.parametrize("seed", PETRI_SEEDS)
    def test_random_bounded_nets_match(self, seed):
        net = random_bounded_net(seed)
        fast = build_reachability_graph(net, max_states=5_000)
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        assert _graph_signature(fast) == _graph_signature(reference)

    @pytest.mark.parametrize("seed", PETRI_SEEDS)
    def test_random_safe_nets_with_bound_match(self, seed):
        """bound=1 exercises the bitmask path; errors must match too."""
        net = random_bounded_net(seed, unit_weights=True)
        fast_error = reference_error = None
        fast = reference = None
        try:
            fast = build_reachability_graph(net, max_states=5_000, bound=1)
        except UnboundedNetError as exc:
            fast_error = str(exc)
        try:
            reference = _reference_build_reachability_graph(
                net, max_states=5_000, bound=1
            )
        except UnboundedNetError as exc:
            reference_error = str(exc)
        assert fast_error == reference_error
        if reference is not None:
            assert _graph_signature(fast) == _graph_signature(reference)

    def test_state_cap_error_matches(self):
        net = PetriNet("producer")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("t", "p")
        net.set_initial_marking({})
        with pytest.raises(UnboundedNetError) as fast_exc:
            build_reachability_graph(net, max_states=40)
        with pytest.raises(UnboundedNetError) as reference_exc:
            _reference_build_reachability_graph(net, max_states=40)
        assert str(fast_exc.value) == str(reference_exc.value)


class TestReductionDifferential:
    """The stubborn-set reduced exploration against the full-BFS oracle.

    :func:`explore` promises exactly the deadlock-marking set of
    ``_reference_build_reachability_graph`` on a subset of its markings.
    Both exploration cores are pinned here under the stubborn ``select``
    hook -- ``NetEncoding.explore_bits`` (bitmask markings, safe nets
    under ``bound=1``) and ``NetEncoding.explore_counts`` (count tuples,
    weighted arcs) -- since a net can take either path depending on its
    encoding.  The broader
    battery (library specs, RAPPID family, hypothesis nets, guard rails)
    lives in ``test_reachability_reduction.py``.
    """

    @pytest.mark.parametrize("seed", PETRI_SEEDS)
    def test_reduced_deadlocks_match_reference(self, seed):
        net = random_bounded_net(seed)
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        reduced = explore(net, max_states=5_000)
        assert set(reduced.deadlocks()) == set(reference.deadlocks())
        assert set(reduced.markings) <= set(reference.markings)

    @pytest.mark.parametrize("seed", PETRI_SEEDS)
    def test_both_reduced_cores_preserve_deadlocks(self, seed):
        """Drive the bits and counts cores with the stubborn selector.

        Each encoding's selector picks its own (equally valid) stubborn
        sets, so the explored graphs may differ -- but a completed run of
        either core must report the reference's exact deadlock set, and a
        bound violation raised by either must be genuine (the unreduced
        bound=1 exploration raises too).
        """
        net = random_bounded_net(seed, unit_weights=True)
        codec = NetEncoding.for_net(net)
        try:
            initial_bits = codec.encode_bits(net.initial_marking)
        except EncodingError:
            return  # initial marking itself is unsafe; bits path N/A
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        expected = set(reference.deadlocks())
        initial_counts = codec.encode(net.initial_marking)
        cap_error = UnboundedNetError("state cap of 5000 markings exceeded")
        select_bits = _stubborn_selector(net, codec, bits=True)
        select_counts = _stubborn_selector(net, codec, bits=False)
        for core in (
            lambda: codec.explore_bits(initial_bits, 5_000, cap_error, select_bits),
            lambda: codec.explore_counts(
                initial_counts, 5_000, 1, cap_error, select_counts
            ),
            lambda: codec.explore_counts(
                initial_counts, 5_000, None, cap_error, select_counts
            ),
        ):
            try:
                keys, edges = core()
            except UnboundedNetError:
                # One-sided soundness: the raise must be genuine.
                with pytest.raises(UnboundedNetError):
                    _reference_build_reachability_graph(
                        net, max_states=5_000, bound=1
                    )
                continue
            decode = codec.decode_bits if isinstance(keys[0], int) else codec.decode
            markings = [decode(key) for key in keys]
            with_successors = {source for (source, _t, _target) in edges}
            deadlocks = {
                marking
                for position, marking in enumerate(markings)
                if position not in with_successors
            }
            assert deadlocks == expected


STATE_GRAPH_STGS = {
    **{name: factory for name, factory in specs.ALL_SPECS.items()},
    "rappid_control_1x1": lambda: specs.rappid_control(1, 1),
    **{f"pipeline_{n}": (lambda n=n: build_pipeline(n)) for n in (1, 2, 3, 4)},
}


class TestStateGraphDifferential:
    """``build_state_graph`` against the full-BFS oracle.

    The library's ``rappid_control`` entry is the 1x2 instance.  On these
    consistent STGs every reachable marking carries exactly one
    signal code, so the state graph is the marking graph with codes
    attached: its states, projected to markings, must come out in the
    oracle's BFS order, and its edges in the oracle's edge order.
    """

    @pytest.mark.parametrize("name", sorted(STATE_GRAPH_STGS))
    def test_state_order_matches_reference(self, name):
        stg = STATE_GRAPH_STGS[name]()
        graph = build_state_graph(stg)
        reference = _reference_build_reachability_graph(stg.net)
        assert [state.marking for state in graph.states] == reference.markings
        assert [
            (source.marking, transition, target.marking)
            for (source, transition), target in graph.edges.items()
        ] == [
            (source, transition, target)
            for (source, transition), target in reference.edges.items()
        ]
        assert graph.initial_state is graph.states[0]

    def test_inconsistent_stg_error_text(self):
        builder = StgBuilder()
        builder.input("a")
        builder.output("b")
        builder.arc("a+", "b+", target_key="b+/1")
        builder.arc("b+", "b+", source_key="b+/1", target_key="b+/2")
        builder.arc("b+", "a+", source_key="b+/2", marked=True)
        with pytest.raises(StateGraphError) as exc:
            build_state_graph(builder.build())
        assert str(exc.value) == "inconsistent STG: b+ enabled while b=1"

    def test_state_cap_error_text(self):
        with pytest.raises(StateGraphError) as exc:
            build_state_graph(specs.fifo_controller(), max_states=5)
        assert str(exc.value) == "state graph exceeds 5 states"

    def test_bound_stops_at_first_unsafe_marking(self):
        """``bound=1`` raises the reference's bound message as a
        StateGraphError; without a bound the exploration runs on until
        its state cap."""
        stg = specs.simple_handshake()
        net = stg.net
        net.add_place("sink")
        for transition in list(net.transitions):
            net.add_arc(transition.name, "sink")
        with pytest.raises(UnboundedNetError) as reference_exc:
            _reference_build_reachability_graph(net, max_states=50, bound=1)
        with pytest.raises(StateGraphError) as exc:
            build_state_graph(stg, bound=1)
        assert str(exc.value) == str(reference_exc.value)
        with pytest.raises(StateGraphError) as unbounded_exc:
            build_state_graph(stg, max_states=50)
        assert str(unbounded_exc.value) == "state graph exceeds 50 states"


# ---------------------------------------------------------------------------
# Event-driven simulation
# ---------------------------------------------------------------------------


def _trace_signature(trace):
    return (
        {net: waveform.changes for net, waveform in trace.waveforms.items()},
        trace.final_values,
        trace.end_time,
        trace.event_count,
    )


class TestSimulatorDifferential:
    @pytest.mark.parametrize("seed", NETLIST_SEEDS)
    def test_random_netlists_produce_identical_waveforms(self, seed):
        rng = random.Random(seed * 7919 + 1)
        netlist = random_dag_netlist(seed)
        stimuli = random_stimuli(rng, netlist)
        jitter = rng.choice([0.0, 0.0, 0.1])

        def run(simulator_class):
            simulator = simulator_class(netlist, delay_jitter=jitter, seed=seed)
            for net, value, time in stimuli:
                simulator.schedule(net, value, time)
            return simulator.run(duration_ps=5_000.0, max_events=50_000)

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    def test_settle_matches_on_feedback_circuit(self):
        """A C-element (sequential, with feedback) settles identically."""
        def build():
            netlist = Netlist("c")
            netlist.add_primary_input("a")
            netlist.add_primary_input("b")
            netlist.add_primary_output("y")
            netlist.add_gate("c", STANDARD_LIBRARY.get("C2"), ["a", "b"], "y")
            return netlist

        def run(simulator_class):
            simulator = simulator_class(build())
            simulator.schedule("a", 1, 10.0)
            simulator.schedule("b", 1, 30.0)
            simulator.schedule("a", 0, 200.0)
            return simulator.settle()

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_value_at_matches_reference_scan(self, seed):
        rng = random.Random(seed)
        waveform = Waveform("n")
        time = 0.0
        for _ in range(rng.randint(0, 12)):
            waveform.record(time, rng.randint(0, 1))
            time += rng.choice([0.0, rng.uniform(0.1, 50.0)])
        probes = [rng.uniform(-10.0, time + 10.0) for _ in range(20)]
        probes.extend(t for t, _v in waveform.changes)  # exact hit times
        for probe in probes:
            assert waveform.value_at(probe) == _reference_value_at(waveform, probe)


# ---------------------------------------------------------------------------
# Opcode simulation kernel: fixtures, glitches, reset, lazy waveforms
# ---------------------------------------------------------------------------


from repro.circuit.netlist import build_ring_oscillator as _ring_oscillator


def _fifo_differential_run(simulator_class, netlist, seed, jitter, duration):
    from repro.circuit.analysis import fifo_environment_rules
    from repro.circuit.simulator import HandshakeEnvironment

    environment = HandshakeEnvironment(
        fifo_environment_rules(),
        jitter=0.25,
        seed=seed,
        initial_stimuli=[("li", 1, 50.0)],
    )
    simulator = simulator_class(
        netlist, [environment], delay_jitter=jitter, seed=seed
    )
    return simulator.run(duration_ps=duration, max_events=200_000)


class TestSimKernelDifferential:
    """The opcode kernel against the reference on the paper's own circuits.

    The 60 seeded DAG netlists above already run through the kernel; this
    class adds the synthesized handshake/FIFO fixtures (sequential
    C-elements, feedback, reactive environments with jitter), a free
    oscillator, and adversarial same-timestamp cases where delta-cycle
    batching could plausibly diverge from the one-event-at-a-time oracle.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fixture", ["fifo_rt", "fifo_si"])
    def test_fifo_fixture_traces_match(self, request, fixture, seed):
        netlist = request.getfixturevalue(fixture).netlist
        jitter = [0.0, 0.1][seed % 2]
        fast = _fifo_differential_run(
            EventDrivenSimulator, netlist, seed, jitter, 30_000.0
        )
        reference = _fifo_differential_run(
            _ReferenceEventDrivenSimulator, netlist, seed, jitter, 30_000.0
        )
        assert _trace_signature(fast) == _trace_signature(reference)

    @pytest.mark.parametrize("stages", [3, 5, 9])
    def test_ring_oscillator_matches(self, stages):
        def run(simulator_class):
            simulator = simulator_class(_ring_oscillator(stages))
            return simulator.run(duration_ps=20_000.0, max_events=100_000)

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_same_timestamp_glitch_on_one_gate(self, order):
        """Two inputs of one AND2 switching at the same instant.

        The reference evaluates the gate after *each* commit, scheduling
        a zero-width glitch (two changes at one future timestamp); the
        batched kernel must reproduce it, not collapse the delta cycle.
        """
        def build():
            netlist = Netlist("glitch")
            netlist.add_primary_input("a", initial=1)
            netlist.add_primary_input("b", initial=0)
            netlist.add_primary_output("y")
            netlist.add_gate("g", STANDARD_LIBRARY.get("AND2"), ["a", "b"], "y")
            return netlist

        def run(simulator_class):
            simulator = simulator_class(build())
            # a falls and b rises at exactly t=100: the AND output is
            # scheduled twice for t=100+delay.
            stimuli = [("a", 0, 100.0), ("b", 1, 100.0)]
            for net, value, time in (stimuli if order == (0, 1) else stimuli[::-1]):
                simulator.schedule(net, value, time)
            return simulator.settle()

        fast = run(EventDrivenSimulator)
        reference = run(_ReferenceEventDrivenSimulator)
        assert _trace_signature(fast) == _trace_signature(reference)

    def test_same_net_conflicting_events_at_same_time(self):
        """Last write wins; the earlier same-time value still commits."""
        def run(simulator_class):
            simulator = simulator_class(random_dag_netlist(3))
            simulator.schedule("in0", 1, 50.0)
            simulator.schedule("in0", 0, 50.0)
            simulator.schedule("in0", 0, 80.0)  # duplicate of current: skipped
            return simulator.settle()

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    def test_zero_delay_environment_cascade(self):
        """A 0 ps handshake rule schedules *at* the committing timestamp;
        the new event must still run inside the same delta cycle sweep."""
        from repro.circuit.simulator import HandshakeEnvironment, HandshakeRule

        def build():
            netlist = Netlist("zero")
            netlist.add_primary_input("req")
            netlist.add_primary_output("ack")
            netlist.add_gate("b", STANDARD_LIBRARY.get("BUF"), ["req"], "ack")
            return netlist

        def run(simulator_class):
            environment = HandshakeEnvironment(
                [
                    HandshakeRule("ack", 1, "req", 0, 0.0),
                    HandshakeRule("ack", 0, "req", 1, 120.0),
                ],
                initial_stimuli=[("req", 1, 10.0)],
            )
            simulator = simulator_class(build(), [environment])
            return simulator.run(duration_ps=5_000.0)

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    def test_wide_gates_use_threshold_rows(self):
        """Gates too wide to enumerate compile to threshold/parity opcodes."""
        from repro.circuit.library import GateType, _and, _nor, _xor
        from repro.engine.events import (
            OP_CALL,
            OP_WIDE_AND,
            OP_WIDE_NOR,
            OP_WIDE_XOR,
            TABLE_MAX_INPUTS,
            CompiledNetlist,
        )

        width = TABLE_MAX_INPUTS + 2
        def wide(name, fn):
            return GateType(
                name=name, num_inputs=width, eval_fn=fn, transistors=2 * width,
                delay_ps=100.0, energy_pj=1.0,
            )

        netlist = Netlist("wide")
        inputs = []
        for i in range(width):
            netlist.add_primary_input(f"in{i}", initial=i % 2)
            inputs.append(f"in{i}")
        netlist.add_gate("wand", wide("WAND", _and), inputs, "yand")
        netlist.add_gate("wnor", wide("WNOR", _nor), inputs, "ynor")
        netlist.add_gate("wxor", wide("WXOR", _xor), inputs, "yxor")
        netlist.add_gate(
            "wodd", wide("WODD", lambda ins, prev: ins[0]), inputs, "yodd"
        )

        compiled = CompiledNetlist(netlist)
        by_name = {g.name: compiled.gate_op[i] for i, g in enumerate(compiled.gates)}
        assert by_name == {
            "wand": OP_WIDE_AND, "wnor": OP_WIDE_NOR,
            "wxor": OP_WIDE_XOR, "wodd": OP_CALL,
        }

        def run(simulator_class):
            simulator = simulator_class(netlist)
            for i in range(width):
                simulator.schedule(f"in{i}", (i + 1) % 2, 40.0 + 10.0 * i)
            return simulator.settle()

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_overunity_jitter_negative_delays_match(self, seed):
        """delay_jitter > 1 makes effective gate delays negative, so gate
        propagation itself can schedule into the past -- the batch drain
        must yield to the earlier timestamp even with no environments."""
        rng = random.Random(seed * 271 + 9)
        netlist = random_dag_netlist(seed)
        stimuli = random_stimuli(rng, netlist)

        def run(simulator_class):
            simulator = simulator_class(netlist, delay_jitter=1.5, seed=seed)
            for net, value, time in stimuli:
                simulator.schedule(net, value, time)
            return simulator.run(duration_ps=5_000.0, max_events=50_000)

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    def test_nonbinary_initial_values_are_coerced_consistently(self):
        """add_net/add_primary_input coerce like set_initial_value, so the
        packed kernel state and the reference dicts see the same bits."""
        def build():
            netlist = Netlist("coerce")
            netlist.add_primary_input("a", initial=2)   # truthy -> 1
            netlist.add_primary_input("b", initial=-1)  # truthy -> 1
            netlist.add_primary_output("y")
            netlist.add_gate("g", STANDARD_LIBRARY.get("AND2"), ["a", "b"], "y")
            return netlist

        assert build().initial_values() == {"a": 1, "b": 1, "y": 0}

        def run(simulator_class):
            simulator = simulator_class(build())
            simulator.schedule("a", 0, 60.0)
            return simulator.settle()

        assert _trace_signature(run(EventDrivenSimulator)) == _trace_signature(
            run(_ReferenceEventDrivenSimulator)
        )

    def test_event_cap_keeps_unprocessed_batch_events(self):
        """When max_events trips mid-batch, the not-yet-processed events
        survive in the queue, exactly as many as the reference keeps."""
        def build_and_overflow(simulator_class):
            simulator = simulator_class(random_dag_netlist(2))
            for i, net in enumerate(["in0", "in1", "in0", "in1"]):
                simulator.schedule(net, i % 2, 100.0)
            with pytest.raises(RuntimeError, match="exceeded 2 events"):
                simulator.run(max_events=2)
            return simulator

        fast = build_and_overflow(EventDrivenSimulator)
        reference = build_and_overflow(_ReferenceEventDrivenSimulator)
        assert len(fast._kernel.queue) == len(reference._queue)

    @pytest.mark.parametrize("max_events", [*range(1, 9), 100])
    def test_callback_pushes_into_cached_bucket_and_past(self, max_events):
        """A Python callback scheduling through the public API mid-drain.

        When ``a`` rises at t=100 its buffer pushes ``b`` for t=180 (the
        drain's one-entry bucket cache); the callback then schedules
        ``x`` onto that same t=180 bucket and ``z`` into the past
        (t=95), preempting the rest of the t=100 batch.  The t=180 batch
        ends up as ``[b, x, yb]``; caps 4-6 land inside it, and the
        post-raise waveforms, event count and queue length must match.
        """
        from repro.circuit.simulator import CallbackEnvironment

        def build():
            netlist = Netlist("callback")
            buf = STANDARD_LIBRARY.get("BUF")
            for net in ("a", "y", "x", "z"):
                netlist.add_primary_input(net)
                netlist.add_gate(f"g{net}", buf, [net], f"{net}b")
            return netlist

        def react(simulator, net, value, time):
            if net == "a" and value:
                simulator.schedule("x", 1, time + 80.0)
                simulator.schedule("z", 1, time - 5.0)

        def run(simulator_class):
            simulator = simulator_class(build(), [CallbackEnvironment(react)])
            simulator.schedule("a", 1, 100.0)
            simulator.schedule("y", 1, 100.0)
            try:
                simulator.run(max_events=max_events)
            except RuntimeError as error:
                assert f"exceeded {max_events} events" in str(error)
            queue = getattr(simulator, "_queue", None)
            return (
                {net: w.changes for net, w in simulator.waveforms.items()},
                simulator.event_count,
                len(simulator._kernel.queue if queue is None else queue),
            )

        fast = run(EventDrivenSimulator)
        assert fast == run(_ReferenceEventDrivenSimulator)
        assert fast[1] == min(max_events, 8)

    def test_unenumerable_gate_falls_back_to_call_and_matches(self):
        """An eval_fn that raises during offline enumeration compiles to
        OP_CALL: per-event evaluation, reference-identical traces and
        reference-identical errors."""
        from repro.circuit.library import GateType
        from repro.engine.events import OP_CALL, CompiledNetlist

        def touchy(inputs, prev):
            if inputs[0] and inputs[1]:
                raise RuntimeError("pull-down fight on touchy gate")
            return inputs[0] or inputs[1]

        gate_type = GateType(
            name="TOUCHY", num_inputs=2, eval_fn=touchy,
            transistors=4, delay_ps=90.0, energy_pj=0.4,
        )

        def build():
            netlist = Netlist("touchy")
            netlist.add_primary_input("a")
            netlist.add_primary_input("b")
            netlist.add_primary_output("y")
            netlist.add_gate("g", gate_type, ["a", "b"], "y")
            return netlist

        compiled = CompiledNetlist(build())
        assert compiled.gate_op == [OP_CALL]

        def run(simulator_class, drive_both):
            simulator = simulator_class(build())
            simulator.schedule("a", 1, 10.0)
            if drive_both:
                simulator.schedule("b", 1, 200.0)
            return simulator.settle()

        # Benign stimulus: traces identical through the call fallback.
        assert _trace_signature(run(EventDrivenSimulator, False)) == (
            _trace_signature(run(_ReferenceEventDrivenSimulator, False))
        )
        # Poison stimulus: both raise the gate's own error at runtime
        # (never at compile time).
        messages = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            with pytest.raises(RuntimeError) as excinfo:
                run(simulator_class, True)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] == "pull-down fight on touchy gate"

    def test_broken_eval_fn_raises_at_compile_time(self):
        """A buggy eval_fn (bad signature -> TypeError, typo ->
        AttributeError) is not a *partial* gate function: enumeration
        must propagate the bug at CompiledNetlist construction instead
        of demoting the gate to OP_CALL, where the error would only
        resurface mid-simulation."""
        from repro.circuit.library import GateType
        from repro.engine.events import CompiledNetlist

        def build(eval_fn):
            gate_type = GateType(
                name="BROKEN", num_inputs=2, eval_fn=eval_fn,
                transistors=4, delay_ps=90.0, energy_pj=0.4,
            )
            netlist = Netlist("broken")
            netlist.add_primary_input("a")
            netlist.add_primary_input("b")
            netlist.add_primary_output("y")
            netlist.add_gate("g", gate_type, ["a", "b"], "y")
            return netlist

        def bad_signature(inputs):  # missing the prev-state parameter
            return inputs[0] and inputs[1]

        with pytest.raises(TypeError):
            CompiledNetlist(build(bad_signature))

        def typo(inputs, prev):
            return inputs.andd(prev)  # no such list attribute

        with pytest.raises(AttributeError):
            CompiledNetlist(build(typo))


class TestSimulatorReset:
    """reset() fully re-arms the simulator, its RNG and its environments."""

    def _run_once(self, simulator):
        simulator.schedule("li", 1, 50.0)
        return simulator.run(duration_ps=25_000.0, max_events=200_000)

    def test_same_instance_runs_twice_identically(self, fifo_rt):
        from repro.circuit.analysis import fifo_environment_rules
        from repro.circuit.simulator import HandshakeEnvironment

        environment = HandshakeEnvironment(
            fifo_environment_rules(), jitter=0.25, seed=3
        )
        simulator = EventDrivenSimulator(
            fifo_rt.netlist, [environment], delay_jitter=0.1, seed=3
        )
        first = _trace_signature(self._run_once(simulator))
        simulator.reset()
        second = _trace_signature(self._run_once(simulator))
        assert first == second

    def test_reference_reset_matches_kernel_reset(self):
        netlist = random_dag_netlist(17)
        rng = random.Random(99)
        stimuli = random_stimuli(rng, netlist)

        def run_twice(simulator_class):
            simulator = simulator_class(netlist, delay_jitter=0.2, seed=17)
            signatures = []
            for _ in range(2):
                for net, value, time in stimuli:
                    simulator.schedule(net, value, time)
                signatures.append(
                    _trace_signature(simulator.run(duration_ps=5_000.0))
                )
                simulator.reset()
            return signatures

        fast_first, fast_second = run_twice(EventDrivenSimulator)
        ref_first, ref_second = run_twice(_ReferenceEventDrivenSimulator)
        assert fast_first == fast_second == ref_first == ref_second

    def test_reset_drops_stale_queue_state(self):
        """Events left pending by a duration-capped run never leak into
        the next run after reset."""
        simulator = EventDrivenSimulator(_ring_oscillator(5))
        simulator.run(duration_ps=1_000.0, max_events=100_000)
        assert len(simulator._kernel.queue) > 0  # oscillator still live
        simulator.reset()
        assert len(simulator._kernel.queue) == 0
        trace = simulator.run(duration_ps=1_000.0, max_events=100_000)
        fresh = EventDrivenSimulator(_ring_oscillator(5)).run(
            duration_ps=1_000.0, max_events=100_000
        )
        assert _trace_signature(trace) == _trace_signature(fresh)


class TestLazyWaveforms:
    """The columnar trace materialises Waveform objects on first access."""

    def _trace(self):
        simulator = EventDrivenSimulator(random_dag_netlist(5))
        simulator.schedule("in0", 1, 25.0)
        simulator.schedule("in1", 1, 75.0)
        return simulator.settle()

    def test_mapping_protocol(self):
        trace = self._trace()
        waveforms = trace.waveforms
        assert set(dict(waveforms)) == set(waveforms.keys())
        assert waveforms.get("definitely-missing") is None
        with pytest.raises(KeyError):
            waveforms["definitely-missing"]
        assert len(waveforms) == len(list(waveforms))

    def test_materialised_objects_are_cached(self):
        trace = self._trace()
        first = trace.waveforms["in0"]
        assert trace.waveforms["in0"] is first
        assert isinstance(first, Waveform)
        assert first.changes[0] == (0.0, first.changes[0][1])

    def test_held_waveform_catches_up_after_second_run(self):
        """A waveform materialised from run #1 is extended in place when
        the mapping is read again after more simulation (aliasing like
        the reference's live objects, caught up at lookup time)."""
        simulator = EventDrivenSimulator(random_dag_netlist(5))
        simulator.schedule("in0", 1, 25.0)
        trace = simulator.settle()
        held = trace.waveforms["in0"]
        length_after_first = len(held.changes)
        simulator.schedule("in0", 0, trace.end_time + 40.0)
        simulator.settle()
        assert trace.waveforms["in0"] is held
        assert len(held.changes) == length_after_first + 1

    def test_columns_round_trip_through_value_at(self):
        trace = self._trace()
        for net, waveform in trace.waveforms.items():
            for probe, _value in waveform.changes:
                assert waveform.value_at(probe) == _reference_value_at(
                    waveform, probe
                )


from repro.circuit.analysis import (
    chain_environment_rules as _chain_rules,
    fifo_environment_rules as _fifo_rules,
)
from repro.circuit.netlist import chain_handshake_cells
from repro.circuit.simulator import HandshakeEnvironment, HandshakeRule


# ---------------------------------------------------------------------------
# Periodic steady-state extrapolation and compiled handshake environments
# ---------------------------------------------------------------------------


def _run_signature(simulator, trace):
    """Everything a run exposes: waveforms, counts, times, final values.

    Waveforms are copied: a later run on the same simulator extends them.
    """
    return (
        {net: list(waveform.changes) for net, waveform in trace.waveforms.items()},
        trace.final_values,
        trace.end_time,
        trace.event_count,
        simulator.time,
        simulator.event_count,
        dict(simulator.values),
    )


def _post_state(simulator):
    """Observable state after a run raised: columns, counts, queue, time."""
    queue = getattr(simulator, "_queue", None)
    return (
        {net: list(w.changes) for net, w in simulator.waveforms.items()},
        simulator.event_count,
        simulator.time,
        dict(simulator.values),
        len(simulator._kernel.queue if queue is None else queue),
    )


@pytest.fixture
def replicated(monkeypatch):
    """Record every extrapolation the simulator's period hunt makes."""
    from repro.engine import simkernel

    calls = []
    original = simkernel._PeriodHunt._replicate

    def spy(self, lengths, period, cycles):
        calls.append((period, cycles))
        return original(self, lengths, period, cycles)

    monkeypatch.setattr(simkernel._PeriodHunt, "_replicate", spy)
    return calls


class TestPeriodicExtrapolationDifferential:
    """Runs the simulator extrapolates, and the runs it must not.

    A jitter-free run with integral delays and no Python callbacks
    settles into an exact period; ``SimKernel.drain`` arms the kernel's
    period hunt, which appends whole periods of waveform columns instead
    of simulating them.  Every case here is bit-identical to the
    one-event-at-a-time reference: waveforms, event counts, end and
    simulator times, final values, raised errors and post-error state.
    """

    @staticmethod
    def _chain(fifo_rt, stages):
        return (
            chain_handshake_cells(fifo_rt.netlist, stages),
            _chain_rules(stages),
            [("s0_li", 1, 50.0)],
        )

    @staticmethod
    def _simulate(simulator_class, netlist, rules, stimuli, **knobs):
        environment = HandshakeEnvironment(
            rules,
            jitter=knobs.pop("environment_jitter", 0.0),
            seed=3,
            initial_stimuli=stimuli,
        )
        return simulator_class(netlist, [environment], seed=3, **knobs)

    @pytest.mark.parametrize("duration", [9_000.0, 33_333.0, 170_000.0])
    @pytest.mark.parametrize("stages", [4, 8, 16])
    def test_fifo_chain_extrapolates_identically(
        self, fifo_rt, replicated, stages, duration
    ):
        netlist, rules, stimuli = self._chain(fifo_rt, stages)
        signatures = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = self._simulate(simulator_class, netlist, rules, stimuli)
            trace = simulator.run(duration_ps=duration, max_events=2_000_000)
            signatures.append(_run_signature(simulator, trace))
        assert signatures[0] == signatures[1]
        if duration > 30_000.0:
            assert replicated and all(cycles > 0 for _p, cycles in replicated)

    @pytest.mark.parametrize("duration", [1_000.0, 20_001.0, 150_000.0])
    @pytest.mark.parametrize("stages", [3, 31])
    def test_ring_oscillator_extrapolates_identically(
        self, replicated, stages, duration
    ):
        signatures = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = simulator_class(_ring_oscillator(stages))
            trace = simulator.run(duration_ps=duration, max_events=1_000_000)
            signatures.append(_run_signature(simulator, trace))
        assert signatures[0] == signatures[1]
        if duration > 100_000.0:
            assert replicated

    @pytest.mark.parametrize("max_events", [600, 2_500, 6_001, 9_000])
    def test_event_cap_inside_extrapolated_span(self, fifo_rt, max_events):
        """The hunt stands down when the span would cross the cap, so the
        drain meets it event by event: same error, same post-error
        waveforms, counts, time and queue -- and a follow-up run after
        the error continues identically."""
        netlist, rules, stimuli = self._chain(fifo_rt, 4)
        states = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = self._simulate(simulator_class, netlist, rules, stimuli)
            with pytest.raises(RuntimeError) as error:
                simulator.run(duration_ps=170_000.0, max_events=max_events)
            trace = simulator.run(duration_ps=20_000.0, max_events=2_000_000)
            states.append(
                (str(error.value), _post_state(simulator), _trace_signature(trace))
            )
        assert states[0] == states[1]
        assert f"exceeded {max_events} events" in states[0][0]

    @pytest.mark.parametrize(
        "knobs",
        [
            {"delay_jitter": 0.1},
            {"environment_jitter": 0.25},
            {"stimulus_time": 50.5},
            {"rule_delay": 200.5},
        ],
        ids=["delay-jitter", "environment-jitter", "fractional-stimulus", "fractional-rule"],
    )
    def test_inexact_runs_skip_the_hunt_and_match(self, fifo_rt, replicated, knobs):
        knobs = dict(knobs)
        netlist, rules, _stimuli = self._chain(fifo_rt, 4)
        stimuli = [("s0_li", 1, knobs.pop("stimulus_time", 50.0))]
        rules = _chain_rules(4, right_delay_ps=knobs.pop("rule_delay", 200.0))
        signatures = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = self._simulate(
                simulator_class, netlist, rules, stimuli, **dict(knobs)
            )
            trace = simulator.run(duration_ps=60_000.0, max_events=2_000_000)
            signatures.append(_run_signature(simulator, trace))
        assert signatures[0] == signatures[1]
        assert replicated == []

    def test_fractional_gate_delay_skips_the_hunt_and_matches(self, replicated):
        import dataclasses

        inverter = dataclasses.replace(STANDARD_LIBRARY.get("INV"), delay_ps=90.5)
        netlist = Netlist("ring_fractional")
        for i in range(5):
            netlist.add_gate(f"inv{i}", inverter, [f"n{i}"], f"n{(i + 1) % 5}")
        netlist.set_initial_value("n0", 1)
        signatures = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = simulator_class(netlist)
            trace = simulator.run(duration_ps=50_000.0, max_events=1_000_000)
            signatures.append(_run_signature(simulator, trace))
        assert signatures[0] == signatures[1]
        assert replicated == []

    def test_handshake_subclass_keeps_its_callback(self, fifo_rt, replicated):
        """A subclass may override ``on_change``; it is called, not compiled."""

        class CountingEnvironment(HandshakeEnvironment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.calls = 0

            def on_change(self, simulator, net, value, time):
                self.calls += 1
                super().on_change(simulator, net, value, time)

        netlist = fifo_rt.netlist
        results = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            environment = CountingEnvironment(
                _fifo_rules(), initial_stimuli=[("li", 1, 50.0)]
            )
            simulator = simulator_class(netlist, [environment])
            trace = simulator.run(duration_ps=40_000.0, max_events=200_000)
            results.append((_run_signature(simulator, trace), environment.calls))
        assert results[0] == results[1]
        assert results[0][1] == results[0][0][5] > 0
        assert replicated == []

    @pytest.mark.parametrize("jitter", [0.0, 0.25])
    def test_rule_targeting_unknown_net_raises_identically(self, fifo_rt, jitter):
        rules = _fifo_rules() + [HandshakeRule("lo", 1, "nowhere", 1, 25.0)]
        states = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            environment = HandshakeEnvironment(
                rules, jitter=jitter, seed=5, initial_stimuli=[("li", 1, 50.0)]
            )
            simulator = simulator_class(fifo_rt.netlist, [environment])
            with pytest.raises(NetlistError) as error:
                simulator.run(duration_ps=40_000.0, max_events=200_000)
            states.append(
                (str(error.value), _post_state(simulator), environment._rng.getstate())
            )
        assert states[0] == states[1]
        assert "nowhere" in states[0][0]

    def test_malformed_rule_fails_when_it_fires_like_reference(self, fifo_rt):
        """A rule that cannot compile keeps the callback path: the run
        proceeds until the rule fires, then raises the reference error."""
        rules = _fifo_rules() + [HandshakeRule("lo", 1, "li", 0, "soon")]
        states = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            environment = HandshakeEnvironment(rules, initial_stimuli=[("li", 1, 50.0)])
            simulator = simulator_class(fifo_rt.netlist, [environment])
            with pytest.raises(TypeError) as error:
                simulator.run(duration_ps=30_000.0, max_events=200_000)
            states.append((str(error.value), _post_state(simulator)))
        assert states[0] == states[1]
        assert states[0][1][1] > 0

    def test_rules_on_unknown_or_impossible_triggers_never_fire(self, fifo_rt):
        rules = _fifo_rules() + [
            HandshakeRule("ghost", 1, "li", 0, 10.0),
            HandshakeRule("lo", 2, "li", 0, 10.0),
        ]
        signatures = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            environment = HandshakeEnvironment(rules, initial_stimuli=[("li", 1, 50.0)])
            simulator = simulator_class(fifo_rt.netlist, [environment])
            trace = simulator.run(duration_ps=30_000.0, max_events=200_000)
            signatures.append(_run_signature(simulator, trace))
        assert signatures[0] == signatures[1]

    @pytest.mark.parametrize("delay_jitter", [0.0, 0.1])
    def test_jittered_compiled_rules_draw_in_reference_order(
        self, fifo_rt, delay_jitter
    ):
        netlist, rules, stimuli = self._chain(fifo_rt, 4)
        results = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            environment = HandshakeEnvironment(
                rules, jitter=0.25, seed=11, initial_stimuli=stimuli
            )
            simulator = simulator_class(
                netlist, [environment], delay_jitter=delay_jitter, seed=11
            )
            trace = simulator.run(duration_ps=40_000.0, max_events=2_000_000)
            results.append(
                (
                    _run_signature(simulator, trace),
                    environment._rng.getstate(),
                    simulator._rng.getstate(),
                )
            )
        assert results[0] == results[1]

    def test_run_reset_run_and_continued_runs_match(self, fifo_rt, replicated):
        netlist, rules, stimuli = self._chain(fifo_rt, 8)
        histories = []
        for simulator_class in (EventDrivenSimulator, _ReferenceEventDrivenSimulator):
            simulator = self._simulate(simulator_class, netlist, rules, stimuli)
            history = []
            for duration in (60_000.0, 45_000.0):  # the second run continues
                trace = simulator.run(duration_ps=duration, max_events=2_000_000)
                history.append(_run_signature(simulator, trace))
            simulator.reset()
            trace = simulator.run(duration_ps=60_000.0, max_events=2_000_000)
            history.append(_run_signature(simulator, trace))
            histories.append(history)
        assert histories[0] == histories[1]
        assert histories[0][0] == histories[0][2]
        assert len(replicated) >= 2


# ---------------------------------------------------------------------------
# Batch fault simulation: FaultSimEngine vs the per-fault reference loop
# ---------------------------------------------------------------------------


from repro.engine.faultsim import REASON_ABNORMAL, FaultSimEngine, _chunk_bounds
from repro.testability import stuck_at_coverage
from repro.testability.simulation import (
    _inject_fault,
    _reference_simulate_faults,
    campaign_signature as _campaign_signature,
    simulate_faults,
)
from repro.testability.faults import StuckAtFault, enumerate_faults


class TestFaultSimDifferential:
    """The batch fault engine against the retained per-fault loop.

    The contract is total: same detected/undetected split, same reason
    strings (including the oscillation error for faults whose copy blows
    past ``max_events``), same order, and therefore the same coverage
    percentages -- for every shard count and for the pooled path.
    """

    @pytest.mark.parametrize("fixture", ["fifo_rt", "fifo_si", "fifo_bm"])
    def test_fifo_fixture_campaigns_match(self, request, fixture):
        netlist = request.getfixturevalue(fixture).netlist
        stimuli = [("li", 1, 50.0)]
        reference = _reference_simulate_faults(
            netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        batch = simulate_faults(
            netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)

    def test_pipeline_fixture_campaign_matches(self, pipeline_si):
        netlist = pipeline_si.netlist
        rules = [
            HandshakeRule("a0", 1, "r0", 0, 200.0),
            HandshakeRule("a0", 0, "r0", 1, 200.0),
        ]
        stimuli = [("r0", 1, 50.0)]
        reference = _reference_simulate_faults(
            netlist, rules, stimuli, duration_ps=30_000.0
        )
        batch = simulate_faults(netlist, rules, stimuli, duration_ps=30_000.0)
        assert _campaign_signature(batch) == _campaign_signature(reference)

    @pytest.mark.parametrize("shards", range(1, 5))
    def test_shard_sweep_matches_reference(self, fifo_rt, shards):
        """Shard counts 1-4 (in-process split) are verdict-identical."""
        netlist = chain_handshake_cells(fifo_rt.netlist, 4)
        stimuli = [("s0_li", 1, 50.0)]
        reference = _reference_simulate_faults(
            netlist, _chain_rules(4), stimuli, duration_ps=20_000.0
        )
        batch = simulate_faults(
            netlist,
            _chain_rules(4),
            stimuli,
            duration_ps=20_000.0,
            shards=shards,
            use_processes=False,
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)

    def test_buffered_chain_campaign_matches(self, fifo_rt):
        """Driven inter-stage wiring (wire_buffers) is verdict-identical.

        The buffered chain is the corpus where static fault collapsing
        actually bites (the BUF hops merge onto their forced outputs),
        so this pins the collapsed batch campaign against the per-fault
        reference loop on exactly that structure.
        """
        netlist = chain_handshake_cells(fifo_rt.netlist, 2, wire_buffers=2)
        stimuli = [("s0_li", 1, 50.0)]
        reference = _reference_simulate_faults(
            netlist, _chain_rules(2), stimuli, duration_ps=20_000.0
        )
        batch = simulate_faults(
            netlist, _chain_rules(2), stimuli, duration_ps=20_000.0
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)

    def test_pooled_campaign_matches_in_process(self, fifo_rt):
        """The worker-pool path (shared campaign payload) is identical."""
        netlist = chain_handshake_cells(fifo_rt.netlist, 4)
        stimuli = [("s0_li", 1, 50.0)]
        local = simulate_faults(
            netlist,
            _chain_rules(4),
            stimuli,
            duration_ps=20_000.0,
            use_processes=False,
        )
        pooled = simulate_faults(
            netlist,
            _chain_rules(4),
            stimuli,
            duration_ps=20_000.0,
            shards=2,
            use_processes=True,
        )
        assert _campaign_signature(pooled) == _campaign_signature(local)

    def test_coverage_reports_match(self, fifo_bm):
        """Coverage numbers (the paper's Table 2 column) are identical."""
        stimuli = [("li", 1, 50.0)]
        reference = _reference_simulate_faults(
            fifo_bm.netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        report = stuck_at_coverage(
            fifo_bm.netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        detected = sum(1 for result in reference if result.detected)
        assert report.total_faults == len(reference)
        assert report.detected_faults == detected
        assert report.undetected == [
            result.fault for result in reference if not result.detected
        ]

    def test_campaigns_are_deterministic(self, fifo_rt):
        stimuli = [("li", 1, 50.0)]
        first = simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        second = simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, duration_ps=30_000.0
        )
        assert _campaign_signature(first) == _campaign_signature(second)

    @pytest.mark.parametrize("value", [0, 1])
    def test_stuck_at_overlay_matches_injected_netlist(self, fifo_rt, value):
        """The simulator's ``stuck_at`` hook (compiled-table overlay)
        reproduces the rebuilt ``*_SA`` netlist trace bit for bit."""
        netlist = fifo_rt.netlist
        fault_net = sorted(
            net for net in netlist.nets if net not in netlist.primary_inputs
        )[0]
        fault = StuckAtFault(fault_net, value)

        def run(simulator):
            simulator.schedule("li", 1, 50.0)
            return simulator.run(duration_ps=10_000.0, max_events=200_000)

        overlay_trace = run(
            EventDrivenSimulator(netlist, stuck_at=(fault.net, fault.value))
        )
        injected_trace = run(EventDrivenSimulator(_inject_fault(netlist, fault)))
        assert _trace_signature(overlay_trace) == _trace_signature(injected_trace)

    def test_unknown_fault_net_is_undetected_like_reference(self, fifo_rt):
        stimuli = [("li", 1, 50.0)]
        faults = [StuckAtFault("no_such_net", 1)]
        reference = _reference_simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, faults=faults,
            duration_ps=10_000.0,
        )
        batch = simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, faults=faults,
            duration_ps=10_000.0,
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)
        assert not batch[0].detected

    def test_rule_on_impossible_trigger_value_never_fires(self, fifo_rt):
        """A trigger value no net takes (2) never fires in the reference
        environment; the campaign must not flatten it into a 1."""
        rules = _fifo_rules() + [HandshakeRule("lo", 2, "ri", 1, 10.0)]
        stimuli = [("li", 1, 50.0)]
        fast = simulate_faults(fifo_rt.netlist, rules, stimuli, duration_ps=5_000.0)
        reference = _reference_simulate_faults(
            fifo_rt.netlist, rules, stimuli, duration_ps=5_000.0
        )
        assert [(r.fault, r.detected, r.reason) for r in fast] == [
            (r.fault, r.detected, r.reason) for r in reference
        ]

    def test_primary_input_faults_match(self, fifo_rt):
        """PI faults (pinned initial, still driven by the environment)
        behave identically in overlay and rebuilt form."""
        stimuli = [("li", 1, 50.0)]
        faults = enumerate_faults(fifo_rt.netlist, include_primary_inputs=True)
        reference = _reference_simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, faults=faults,
            duration_ps=20_000.0,
        )
        batch = simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, faults=faults,
            duration_ps=20_000.0,
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)


def _gated_ring_netlist() -> Netlist:
    """A ring oscillator gated off by ``en``: stable fault-free, but
    ``en`` stuck-at-1 closes a 3-inversion loop that oscillates forever."""
    netlist = Netlist("gated_ring")
    netlist.add_primary_input("en", initial=0)
    netlist.add_primary_output("n0")
    netlist.add_gate(
        "g0", STANDARD_LIBRARY.get("NAND2"), ["en", "n2"], "n0", output_initial=1
    )
    netlist.add_gate("g1", STANDARD_LIBRARY.get("INV"), ["n0"], "n1", output_initial=0)
    netlist.add_gate("g2", STANDARD_LIBRARY.get("INV"), ["n1"], "n2", output_initial=1)
    return netlist


class TestJitteredFaultSimDifferential:
    """Jittered campaigns on the batch engine vs the per-fault reference.

    ``delay_jitter`` randomises every gate delay, ``environment_jitter``
    every handshake-rule response; the reference loop gives each fault
    copy a standalone simulator + environment whose RNGs restart from
    the campaign seed.  The batch engine must keep the full bit-identity
    contract under jitter -- verdicts, reason strings, coverage, and the
    per-copy RNG draw order -- with the periodic-trajectory shortcut
    standing down (jittered trajectories are never periodic) and the
    provable event-cap shortcut staying active.
    """

    JITTER_CASES = [(0.1, 0.0), (0.0, 0.25), (0.08, 0.3)]

    @pytest.mark.parametrize("delay_jitter,environment_jitter", JITTER_CASES)
    @pytest.mark.parametrize("fixture", ["fifo_rt", "fifo_si"])
    def test_jittered_fifo_campaigns_match(
        self, request, fixture, delay_jitter, environment_jitter
    ):
        netlist = request.getfixturevalue(fixture).netlist
        stimuli = [("li", 1, 50.0)]
        kwargs = dict(
            duration_ps=20_000.0,
            seed=11,
            delay_jitter=delay_jitter,
            environment_jitter=environment_jitter,
        )
        reference = _reference_simulate_faults(
            netlist, _fifo_rules(), stimuli, **kwargs
        )
        batch = simulate_faults(netlist, _fifo_rules(), stimuli, **kwargs)
        assert _campaign_signature(batch) == _campaign_signature(reference)

    def test_overunity_jitter_campaign_matches(self, fifo_rt):
        """delay_jitter > 1: negative effective delays schedule into the
        past mid-batch; the packed copies must yield exactly like the
        kernel (and therefore like the reference simulator)."""
        stimuli = [("li", 1, 50.0)]
        kwargs = dict(
            duration_ps=15_000.0, seed=2, delay_jitter=1.5, environment_jitter=0.5
        )
        reference = _reference_simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, **kwargs
        )
        batch = simulate_faults(fifo_rt.netlist, _fifo_rules(), stimuli, **kwargs)
        assert _campaign_signature(batch) == _campaign_signature(reference)

    @pytest.mark.parametrize("shards", range(1, 5))
    def test_jittered_shard_sweep_matches_reference(self, fifo_rt, shards):
        """Shards 1-4 of a jittered chained-FIFO campaign are identical."""
        netlist = chain_handshake_cells(fifo_rt.netlist, 4)
        stimuli = [("s0_li", 1, 50.0)]
        kwargs = dict(duration_ps=15_000.0, delay_jitter=0.1, environment_jitter=0.25)
        reference = _reference_simulate_faults(
            netlist, _chain_rules(4), stimuli, **kwargs
        )
        batch = simulate_faults(
            netlist,
            _chain_rules(4),
            stimuli,
            shards=shards,
            use_processes=False,
            **kwargs,
        )
        assert _campaign_signature(batch) == _campaign_signature(reference)

    def test_jittered_pooled_campaign_matches_in_process(self, fifo_rt):
        """The worker-pool path ships the jitter knobs + seed in the
        published campaign payload; verdicts stay identical."""
        netlist = chain_handshake_cells(fifo_rt.netlist, 4)
        stimuli = [("s0_li", 1, 50.0)]
        kwargs = dict(duration_ps=15_000.0, delay_jitter=0.1, environment_jitter=0.25)
        local = simulate_faults(
            netlist, _chain_rules(4), stimuli, use_processes=False, **kwargs
        )
        pooled = simulate_faults(
            netlist, _chain_rules(4), stimuli, shards=2, use_processes=True, **kwargs
        )
        assert _campaign_signature(pooled) == _campaign_signature(local)

    def test_jittered_coverage_matches_reference(self, fifo_rt):
        stimuli = [("li", 1, 50.0)]
        kwargs = dict(duration_ps=15_000.0, delay_jitter=0.05, environment_jitter=0.3)
        reference = _reference_simulate_faults(
            fifo_rt.netlist, _fifo_rules(), stimuli, **kwargs
        )
        report = stuck_at_coverage(fifo_rt.netlist, _fifo_rules(), stimuli, **kwargs)
        assert report.total_faults == len(reference)
        assert report.detected_faults == sum(1 for r in reference if r.detected)
        assert report.undetected == [
            r.fault for r in reference if not r.detected
        ]

    def test_rng_draw_order_matches_standalone_simulators(self, fifo_rt):
        """Each copy's final (simulator RNG, environment RNG) states equal
        those of a standalone EventDrivenSimulator + HandshakeEnvironment
        run of the injected netlist with the same seed: the draws were
        the same draws, in the same order."""
        netlist = fifo_rt.netlist
        rules = _fifo_rules()
        stimuli = [("li", 1, 50.0)]
        faults = enumerate_faults(netlist)
        engine = FaultSimEngine(
            netlist,
            rules,
            stimuli,
            duration_ps=12_000.0,
            seed=5,
            delay_jitter=0.1,
            environment_jitter=0.25,
        )
        try:
            verdicts = engine.run(faults, use_processes=False)
            states = engine._sweep.rng_states

            def reference_states(reference_netlist):
                environment = HandshakeEnvironment(
                    rules, jitter=0.25, seed=5, initial_stimuli=stimuli
                )
                simulator = EventDrivenSimulator(
                    reference_netlist, [environment], delay_jitter=0.1, seed=5
                )
                simulator.run(duration_ps=12_000.0, max_events=500_000)
                return (simulator._rng.getstate(), environment._rng.getstate())

            assert engine._sweep.golden_rng_state == reference_states(netlist)
            checked = 0
            for fault, (_detected, reason), state in zip(faults, verdicts, states):
                if reason.startswith("abnormal"):
                    continue  # raising copies legitimately cut the drain short
                assert state == reference_states(_inject_fault(netlist, fault))
                checked += 1
            assert checked, "campaign produced no completed copies to compare"
        finally:
            engine.close()

    def test_jittered_oscillating_fault_matches_reference(self):
        """A fault that closes a free-running ring under jitter: the copy
        drains in full (no extrapolation) and the verdict still matches."""
        netlist = _gated_ring_netlist()
        faults = [StuckAtFault("en", 1), StuckAtFault("n1", 0)]
        kwargs = dict(
            faults=faults, duration_ps=20_000.0, seed=9,
            delay_jitter=0.2, environment_jitter=0.0,
        )
        reference = _reference_simulate_faults(netlist, [], [], **kwargs)
        batch = simulate_faults(netlist, [], [], **kwargs)
        assert _campaign_signature(batch) == _campaign_signature(reference)
        assert batch[0].detected  # the closed ring transitions forever

    def test_jittered_event_cap_reports_reference_oscillation_error(self):
        """With no time limit the event cap is provably crossed; the
        shortcut raise must word the error exactly like the reference."""
        netlist = _gated_ring_netlist()
        engine = FaultSimEngine(
            netlist, [], [], duration_ps=None, max_events=5_000,
            seed=3, delay_jitter=0.1,
        )
        try:
            verdicts = engine.run([StuckAtFault("en", 1)], use_processes=False)
        finally:
            engine.close()
        assert verdicts == [
            (
                True,
                "abnormal behaviour: simulation exceeded 5000 events; "
                "the circuit is probably oscillating",
            )
        ]

    def test_jitter_free_campaign_keeps_extrapolation(self, fifo_rt):
        """Both knobs zero: the sweep still snapshot-hunts for periods
        (the jittered gate must not disable the exact shortcut)."""
        engine = FaultSimEngine(
            fifo_rt.netlist, _fifo_rules(), [("li", 1, 50.0)],
            duration_ps=10_000.0,
        )
        try:
            assert not engine._sweep.jittered
            assert engine._sweep.integral_times
            jittered = FaultSimEngine(
                fifo_rt.netlist, _fifo_rules(), [("li", 1, 50.0)],
                duration_ps=10_000.0, delay_jitter=0.1,
            )
            try:
                assert jittered._sweep.jittered
            finally:
                jittered.close()
        finally:
            engine.close()


def _standalone_rng_states(netlist, rules, stimuli, duration_ps, seed, jitters):
    """Final (simulator, environment) RNG states of one standalone run."""
    delay_jitter, environment_jitter = jitters
    environment = HandshakeEnvironment(
        rules, jitter=environment_jitter, seed=seed, initial_stimuli=stimuli
    )
    simulator = EventDrivenSimulator(
        netlist, [environment], delay_jitter=delay_jitter, seed=seed
    )
    simulator.run(duration_ps=duration_ps, max_events=500_000)
    return simulator._rng.getstate(), environment._rng.getstate()


def _gated_ring_with_handshake() -> Netlist:
    """The gated ring (held off: no golden event ever touches it) beside a
    toggling handshake ``a -> y`` that keeps the RNG streams drawing, and
    an observable buffer ``z`` of an input ``b`` that never moves."""
    netlist = _gated_ring_netlist()
    netlist.add_primary_input("a", initial=0)
    netlist.add_primary_input("b", initial=0)
    netlist.add_primary_output("y")
    netlist.add_primary_output("z")
    netlist.add_gate("g3", STANDARD_LIBRARY.get("INV"), ["a"], "y", output_initial=1)
    netlist.add_gate("g4", STANDARD_LIBRARY.get("BUF"), ["b"], "z", output_initial=0)
    return netlist


class TestForkAtFirstTouch:
    """Fault copies fork off one golden drain at their first touch.

    A copy equals golden everywhere but its faulted net, pending entry
    and driver state until an event can read them; it forks at the
    batch boundary before that event with golden's state and RNG
    positions, runs whole when its settle pass already differs, and
    reads its verdict off the golden finals when nothing ever touches
    it.  Each path must stay bit-identical to the per-fault reference,
    RNG draw order included.
    """

    HANDSHAKE = [HandshakeRule("y", 0, "a", 0, 100.0), HandshakeRule("y", 1, "a", 1, 100.0)]
    JITTERS = (0.2, 0.3)

    def test_untouched_faults_keep_verdict_and_golden_rng_state(self):
        netlist = _gated_ring_with_handshake()
        stimuli = [("a", 1, 50.0)]
        faults = [
            StuckAtFault("en", 0),
            StuckAtFault("n0", 1),
            StuckAtFault("z", 1),
            StuckAtFault("a", 0),
        ]
        kwargs = dict(
            duration_ps=5_000.0,
            seed=4,
            delay_jitter=self.JITTERS[0],
            environment_jitter=self.JITTERS[1],
        )
        reference = _reference_simulate_faults(
            netlist, self.HANDSHAKE, stimuli, faults=faults, **kwargs
        )
        engine = FaultSimEngine(netlist, self.HANDSHAKE, stimuli, **kwargs)
        try:
            verdicts = engine.run(faults, use_processes=False)
            sweep = engine._sweep
            slots = [engine.compiled.net_index[fault.net] for fault in faults]
            assert [sweep.touch_times[slot] for slot in slots] == [
                math.inf, math.inf, math.inf, 50.0,
            ]
            assert verdicts == [(r.detected, r.reason) for r in reference]
            assert [detected for detected, _ in verdicts[:3]] == [False, False, True]
            golden = _standalone_rng_states(
                netlist, self.HANDSHAKE, stimuli, 5_000.0, 4, self.JITTERS
            )
            assert sweep.golden_rng_state == golden
            assert golden[0][1][1] > 0  # the handshake really drew
            for fault, state in zip(faults, sweep.rng_states):
                assert state == _standalone_rng_states(
                    _inject_fault(netlist, fault), self.HANDSHAKE, stimuli,
                    5_000.0, 4, self.JITTERS,
                )
            assert sweep.rng_states[:3] == [golden] * 3
        finally:
            engine.close()

    # A driven net the environment also writes: an event on it is queued
    # at the fork (a stimulus) or pushed by a rule whose trigger has
    # nothing to do with the net's driver.
    QUEUED_CASES = {
        "stimulus": ([("y", 0, 100.0), ("a", 1, 200.0)], [], 1),
        "rule": (
            [("b", 1, 100.0), ("a", 1, 300.0)],
            [HandshakeRule("b", 1, "y", 0, 50.0)],
            0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(QUEUED_CASES))
    @pytest.mark.parametrize("jitters", [(0.0, 0.0), (0.1, 0.2)])
    def test_environment_events_on_a_driven_net_fork_in_time(self, case, jitters):
        """The fork keeps golden's pending entry for a net with a queued
        event, and a net's own events -- stimuli, rule pushes -- bound
        its fork time even when its driver's inputs commit much later."""
        netlist = Netlist("driven_by_two")
        netlist.add_primary_input("a", initial=0)
        netlist.add_primary_input("b", initial=0)
        netlist.add_primary_output("y")
        netlist.add_gate("g", STANDARD_LIBRARY.get("INV"), ["a"], "y", output_initial=1)
        stimuli, rules, pinned = self.QUEUED_CASES[case]
        faults = [StuckAtFault("y", pinned)]
        kwargs = dict(
            duration_ps=2_000.0, seed=6, delay_jitter=jitters[0],
            environment_jitter=jitters[1],
        )
        reference = _reference_simulate_faults(
            netlist, rules, stimuli, faults=faults, **kwargs
        )
        engine = FaultSimEngine(netlist, rules, stimuli, **kwargs)
        try:
            assert engine._sweep.touch_times[engine.compiled.net_index["y"]] == 100.0
            verdicts = engine.run(faults, use_processes=False)
            assert verdicts == [(r.detected, r.reason) for r in reference]
            assert verdicts[0][0]
            if jitters != (0.0, 0.0):
                assert engine._sweep.rng_states == [
                    _standalone_rng_states(
                        _inject_fault(netlist, faults[0]), rules, stimuli,
                        2_000.0, 6, jitters,
                    )
                ]
        finally:
            engine.close()

    def test_stimulus_past_the_duration_never_touches(self):
        """A net's own event beyond the time limit never runs, so it
        cannot touch the copy: the golden prefix must not run past the
        limit to fork it."""
        netlist = Netlist("late_stimulus")
        netlist.add_primary_input("a", initial=0)
        netlist.add_primary_output("y")
        netlist.add_gate("g", STANDARD_LIBRARY.get("INV"), ["a"], "y", output_initial=1)
        stimuli = [("y", 0, 5_000.0)]
        faults = [StuckAtFault("y", 1), StuckAtFault("y", 0)]
        reference = _reference_simulate_faults(
            netlist, [], stimuli, faults=faults, duration_ps=1_000.0
        )
        engine = FaultSimEngine(netlist, [], stimuli, duration_ps=1_000.0)
        try:
            assert engine._sweep.touch_times[engine.compiled.net_index["y"]] == math.inf
            verdicts = engine.run(faults, use_processes=False)
        finally:
            engine.close()
        assert verdicts == [(r.detected, r.reason) for r in reference]
        assert [detected for detected, _ in verdicts] == [False, True]

    # bm_cell's undetected faults in its 30 ns jitter-free campaign: each
    # is touched mid-trajectory, so it forks and drains to the end.
    BM_UNDETECTED = [
        ("lo_p3", 0), ("ro_p1", 0), ("x1_p2", 0), ("x2", 1), ("x2_b", 0), ("x2_p1", 1),
    ]

    @pytest.mark.parametrize("jitters", [(0.0, 0.0), (0.08, 0.3)])
    def test_bm_cell_touched_undetected_faults_match_reference(self, fifo_bm, jitters):
        netlist = fifo_bm.netlist
        stimuli = [("li", 1, 50.0)]
        faults = [StuckAtFault(net, value) for net, value in self.BM_UNDETECTED]
        kwargs = dict(
            duration_ps=30_000.0,
            seed=11,
            delay_jitter=jitters[0],
            environment_jitter=jitters[1],
        )
        reference = _reference_simulate_faults(
            netlist, _fifo_rules(), stimuli, faults=faults, **kwargs
        )
        engine = FaultSimEngine(netlist, _fifo_rules(), stimuli, **kwargs)
        try:
            sweep = engine._sweep
            for fault in faults:
                slot = engine.compiled.net_index[fault.net]
                assert 0 < sweep.touch_times[slot] < math.inf
                assert not sweep._settles_apart(slot, fault.value)
            verdicts = engine.run(faults, use_processes=False)
            assert verdicts == [(r.detected, r.reason) for r in reference]
            if jitters == (0.0, 0.0):
                assert not any(detected for detected, _ in verdicts)
            else:
                for fault, state in zip(faults, sweep.rng_states):
                    assert state == _standalone_rng_states(
                        _inject_fault(netlist, fault), _fifo_rules(), stimuli,
                        30_000.0, 11, jitters,
                    )
        finally:
            engine.close()

    def test_settle_deviators_run_whole_and_match_reference(self, fifo_bm):
        netlist = fifo_bm.netlist
        stimuli = [("li", 1, 50.0)]
        jitters = (0.1, 0.25)
        kwargs = dict(
            duration_ps=12_000.0, seed=5, delay_jitter=jitters[0],
            environment_jitter=jitters[1],
        )
        engine = FaultSimEngine(netlist, _fifo_rules(), stimuli, **kwargs)
        try:
            sweep = engine._sweep
            index = engine.compiled.net_index
            faults = [
                fault
                for fault in enumerate_faults(netlist)
                if sweep._settles_apart(index[fault.net], fault.value)
            ]
            assert StuckAtFault("lo", 1) in faults
            verdicts = engine.run(faults, use_processes=False)
            reference = _reference_simulate_faults(
                netlist, _fifo_rules(), stimuli, faults=faults, **kwargs
            )
            assert verdicts == [(r.detected, r.reason) for r in reference]
            for fault, (_detected, reason), state in zip(
                faults, verdicts, sweep.rng_states
            ):
                if not reason.startswith(REASON_ABNORMAL):
                    assert state == _standalone_rng_states(
                        _inject_fault(netlist, fault), _fifo_rules(), stimuli,
                        12_000.0, 5, jitters,
                    )
        finally:
            engine.close()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_pooled_chain8_matches_in_process(self, fifo_rt, shards, monkeypatch):
        from repro.engine import pool, resilience

        netlist = chain_handshake_cells(fifo_rt.netlist, 8)
        stimuli = [("s0_li", 1, 50.0)]
        local = simulate_faults(
            netlist, _chain_rules(8), stimuli, duration_ps=30_000.0,
            use_processes=False,
        )
        dispatched = []
        supervised_map = resilience.supervised_map

        def spy(executor, fn, items, **kwargs):
            dispatched.append(len(items))
            return supervised_map(executor, fn, items, **kwargs)

        monkeypatch.setattr(resilience, "supervised_map", spy)
        pooled = simulate_faults(
            netlist, _chain_rules(8), stimuli, duration_ps=30_000.0,
            shards=shards, use_processes=True,
        )
        assert pool.LAST_DECISION["use_pool"]
        assert _campaign_signature(pooled) == _campaign_signature(local)
        # Several small chunks per worker, not one aliased slice each.
        assert dispatched and all(shards < chunks <= 4 * shards for chunks in dispatched)

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7, 8, 12, 1_000])
    def test_chunk_split_is_contiguous_and_keeps_nets_together(self, fifo_rt, chunks):
        netlist = chain_handshake_cells(fifo_rt.netlist, 4)
        index = {net: slot for slot, net in enumerate(sorted(netlist.nets))}
        slot_faults = [
            (index[fault.net], fault.value) for fault in enumerate_faults(netlist)
        ]
        slot_faults.append((-1, 1))  # an unknown net rides along
        bounds = _chunk_bounds(slot_faults, chunks)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(slot_faults)
        assert all(end == nxt for (_s, end), (nxt, _e) in zip(bounds, bounds[1:]))
        assert all(start < end for start, end in bounds)
        assert len(bounds) <= chunks
        chunk_of_net = {}
        for chunk, (start, end) in enumerate(bounds):
            for slot, _value in slot_faults[start:end]:
                chunk_of_net.setdefault(slot, set()).add(chunk)
        assert all(len(chunk_set) == 1 for chunk_set in chunk_of_net.values())
        assert {value for _slot, value in slot_faults[:2]} == {0, 1}


# ---------------------------------------------------------------------------
# RAPPID batched runner
# ---------------------------------------------------------------------------


def _rappid_signature(result):
    return (
        result.instruction_count,
        result.line_count,
        result.total_time_ps,
        result.issue_times_ps,
        result.instruction_latencies_ps,
        result.tag_intervals_ps,
        result.line_intervals_ps,
        result.steer_intervals_ps,
    )


class TestRappidDifferential:
    @pytest.mark.parametrize("seed", RAPPID_SEEDS)
    def test_batched_run_matches_reference(self, seed):
        rng = random.Random(seed)
        config = RappidConfig(
            rows=rng.randint(1, 6),
            prefetch_depth=rng.randint(1, 4),
        )
        generator = WorkloadGenerator(seed=seed)
        if rng.random() < 0.3:
            instructions = generator.fixed_length_instructions(
                rng.randint(1, 400), rng.randint(1, 11)
            )
        else:
            instructions = generator.instructions(rng.randint(1, 400))
        lines = generator.cache_lines(instructions)
        decoder = RappidDecoder(config)
        fast = decoder.run(instructions, lines)
        reference = decoder._reference_run(instructions, lines)
        assert _rappid_signature(fast) == _rappid_signature(reference)
        assert math.isclose(fast.energy_pj, reference.energy_pj, rel_tol=1e-9)

    def test_fractional_calibration_takes_fallback_and_matches(self):
        """Non-integer cycle time disables the vectorised steering scan."""
        config = RappidConfig(output_buffer_cycle_ps=380.25)
        generator = WorkloadGenerator(seed=11)
        instructions, lines = generator.workload(500)
        decoder = RappidDecoder(config)
        assert _rappid_signature(decoder.run(instructions, lines)) == _rappid_signature(
            decoder._reference_run(instructions, lines)
        )

    def test_empty_stream(self):
        decoder = RappidDecoder()
        assert decoder.run([], []).instruction_count == 0


class TestLineGeometryDifferential:
    """line_bytes other than 16 must agree between engine and reference."""

    @pytest.mark.parametrize("line_bytes", [8, 32])
    @pytest.mark.parametrize("seed", range(8))
    def test_engine_matches_reference(self, line_bytes, seed):
        rng = random.Random(seed * 7907 + line_bytes)
        config = RappidConfig(
            line_bytes=line_bytes,
            rows=rng.randint(1, 6),
            prefetch_depth=rng.randint(1, 4),
        )
        generator = WorkloadGenerator(seed=seed, line_bytes=line_bytes)
        if rng.random() < 0.3:
            instructions = generator.fixed_length_instructions(
                rng.randint(1, 400), rng.randint(1, 11)
            )
        else:
            instructions = generator.instructions(rng.randint(1, 400))
        lines = generator.cache_lines(instructions)
        decoder = RappidDecoder(config)
        fast = decoder.run(instructions, lines)
        reference = decoder._reference_run(instructions, lines)
        assert _rappid_signature(fast) == _rappid_signature(reference)
        assert math.isclose(fast.energy_pj, reference.energy_pj, rel_tol=1e-9)

    def test_long_instructions_cover_whole_8_byte_lines(self):
        """Gap lines (no instruction start) exercise the arrival recursion."""
        generator = WorkloadGenerator(seed=1, line_bytes=8)
        instructions = generator.fixed_length_instructions(300, 11)
        lines = generator.cache_lines(instructions)
        decoder = RappidDecoder(RappidConfig(line_bytes=8))
        assert _rappid_signature(decoder.run(instructions, lines)) == (
            _rappid_signature(decoder._reference_run(instructions, lines))
        )


class TestPrefetchDepthValidation:
    """prefetch_depth=0 is rejected identically by every entry point."""

    def test_all_entry_points_raise_the_same_error(self):
        generator = WorkloadGenerator(seed=0)
        instructions, lines = generator.workload(50)
        decoder = RappidDecoder(RappidConfig(prefetch_depth=0))
        messages = set()
        for runner in (
            lambda: decoder.run(instructions, lines),
            lambda: decoder._reference_run(instructions, lines),
        ):
            with pytest.raises(ValueError) as excinfo:
                runner()
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        assert "prefetch_depth" in messages.pop()

    def test_depth_zero_rejected_even_for_empty_streams(self):
        decoder = RappidDecoder(RappidConfig(prefetch_depth=0))
        with pytest.raises(ValueError):
            decoder.run([], [])


class TestRappidReferenceCycles:
    """A run frees its per-line state by reference counting alone."""

    def test_runs_leave_no_cyclic_garbage(self):
        # 11-byte instructions over 8-byte lines leave lines in which no
        # instruction starts, so the recursive arrival path runs too.
        generator = WorkloadGenerator(seed=1, line_bytes=8)
        instructions = generator.fixed_length_instructions(300, 11)
        lines = generator.cache_lines(instructions)
        decoder = RappidDecoder(RappidConfig(line_bytes=8))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for runner in (decoder.run, decoder._reference_run):
                runner(instructions, lines)
                assert gc.collect() == 0, runner.__name__
        finally:
            if was_enabled:
                gc.enable()


# ---------------------------------------------------------------------------
# Columnar instruction streams vs the per-object generator oracle
# ---------------------------------------------------------------------------


def _grouped_lines(instructions, line_bytes):
    """The per-object cache-line grouping the lazy ``CacheLines`` replaced."""
    if not instructions:
        return []
    last = instructions[-1]
    count = (last.start_byte + last.length + line_bytes - 1) // line_bytes
    lines = [CacheLine(index=i) for i in range(count)]
    for instruction in instructions:
        lines[instruction.line_of(line_bytes)].instructions.append(instruction)
    return lines


class TestInstructionStreamDifferential:
    @pytest.mark.parametrize("size", [0, 1, 400])
    @pytest.mark.parametrize("line_bytes", [8, 16, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_stream_matches_reference_generator(self, seed, line_bytes, size):
        columnar = WorkloadGenerator(seed=seed, line_bytes=line_bytes)
        oracle = WorkloadGenerator(seed=seed, line_bytes=line_bytes)
        stream, lines = columnar.workload(size)
        expected = oracle._reference_instructions(size)
        assert len(stream) == size
        assert list(stream) == expected
        # Same number of draws: the generators' next rolls agree.
        assert columnar._rng.random() == oracle._rng.random()
        grouped = _grouped_lines(expected, line_bytes)
        assert len(lines) == len(grouped)
        assert list(lines) == grouped

    @pytest.mark.parametrize("length", range(1, 12))
    def test_fixed_length_sweep(self, length):
        generator = WorkloadGenerator(seed=2)
        stream = generator.fixed_length_instructions(300, length)
        expected = [
            Instruction(i, length, class_of_length(length), i * length)
            for i in range(300)
        ]
        assert list(stream) == expected
        assert list(generator.cache_lines(stream)) == _grouped_lines(expected, 16)
        # A fixed-length stream draws nothing.
        assert generator._rng.random() == random.Random(2).random()

    def test_distribution_short_of_one_clamps_to_last_bucket(self):
        classes = [
            LengthClass(1, InstructionClass.COMMON, 0.5),
            LengthClass(4, InstructionClass.MODRM, 0.3),
            LengthClass(6, InstructionClass.IMMEDIATE, 0.0),
            LengthClass(9, InstructionClass.COMPLEX, 0.195),
        ]
        assert sum(c.probability for c in classes) < 0.9951
        columnar = WorkloadGenerator(seed=5, length_classes=classes)
        oracle = WorkloadGenerator(seed=5, length_classes=classes)
        stream = columnar.instructions(3000)
        assert list(stream) == oracle._reference_instructions(3000)
        assert columnar._rng.random() == oracle._rng.random()
        rolls = random.Random(5)
        assert any(rolls.random() > 0.995 for _ in range(3000)), (
            "no roll fell above the last cumulative bound"
        )
        assert 6 not in stream.lengths

    def test_views_index_like_lists(self):
        generator = WorkloadGenerator(seed=9)
        stream, lines = generator.workload(400)
        expected = WorkloadGenerator(seed=9)._reference_instructions(400)
        grouped = _grouped_lines(expected, 16)
        assert stream[-1] == expected[-1]
        assert stream[-400] == expected[0]
        assert stream[3:40:7] == expected[3:40:7]
        assert lines[-1] == grouped[-1]
        assert lines[2:9] == grouped[2:9]
        for view, size in ((stream, 400), (lines, len(grouped))):
            with pytest.raises(IndexError):
                view[size]
            with pytest.raises(IndexError):
                view[-size - 1]

    @pytest.mark.parametrize("prefetch_depth", [1, 2])
    @pytest.mark.parametrize("line_bytes", [8, 16, 32])
    def test_run_reads_streams_and_lists_alike(self, line_bytes, prefetch_depth):
        generator = WorkloadGenerator(
            seed=line_bytes + prefetch_depth, line_bytes=line_bytes
        )
        stream, lines = generator.workload(400)
        decoder = RappidDecoder(
            RappidConfig(line_bytes=line_bytes, prefetch_depth=prefetch_depth)
        )
        columnar = decoder.run(stream, lines)
        marshalled = decoder.run(list(stream), list(lines))
        reference = decoder._reference_run(list(stream), list(lines))
        assert _rappid_signature(columnar) == _rappid_signature(marshalled)
        assert _rappid_signature(columnar) == _rappid_signature(reference)
        assert columnar.energy_pj == marshalled.energy_pj
        assert math.isclose(columnar.energy_pj, reference.energy_pj, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# State graph (ported construction) vs reachability cross-check
# ---------------------------------------------------------------------------


class TestEncodingConsistency:
    @pytest.mark.parametrize("seed", range(20))
    def test_codec_cache_invalidated_by_mutation(self, seed):
        net = random_bounded_net(seed)
        codec = NetEncoding.for_net(net)
        assert NetEncoding.for_net(net) is codec  # cached
        net.add_place("extra_place")
        rebuilt = NetEncoding.for_net(net)
        assert rebuilt is not codec
        assert "extra_place" in rebuilt.place_index

    @pytest.mark.parametrize("seed", PETRI_SEEDS)
    def test_reachable_marking_sets_equal_as_sets(self, seed):
        """Order aside, the reachable SETS agree (belt and braces)."""
        net = random_bounded_net(seed)
        fast = build_reachability_graph(net, max_states=5_000)
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        assert set(fast.markings) == set(reference.markings)
        assert len(fast.markings) == len(reference.markings)
