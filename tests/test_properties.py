"""Property-based tests on core data structures and flow invariants.

The first half uses hypothesis; the engine-related properties at the
bottom use stdlib ``random`` with fixed seeds so they add no dependency
surface.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.simulator import EventDrivenSimulator
from repro.engine.marking import EncodingError, NetEncoding
from repro.petrinet import Marking, build_reachability_graph
from repro.stg import validate_stg
from repro.stategraph import build_state_graph, find_csc_conflicts
from repro.synthesis.logic import derive_function_specs, synthesize_covers


# ---------------------------------------------------------------------------
# Markings behave like multisets
# ---------------------------------------------------------------------------

place_names = st.sampled_from(["p0", "p1", "p2", "p3", "p4"])
token_maps = st.dictionaries(place_names, st.integers(min_value=0, max_value=3))


class TestMarkingProperties:
    @given(token_maps)
    @settings(max_examples=100, deadline=None)
    def test_total_tokens_matches_sum(self, tokens):
        marking = Marking(tokens)
        assert marking.total_tokens() == sum(tokens.values())

    @given(token_maps, token_maps)
    @settings(max_examples=100, deadline=None)
    def test_add_is_componentwise(self, base, delta):
        marking = Marking(base)
        combined = marking.add(delta)
        for place in set(base) | set(delta):
            assert combined[place] == base.get(place, 0) + delta.get(place, 0)

    @given(token_maps, token_maps)
    @settings(max_examples=100, deadline=None)
    def test_covers_is_a_partial_order(self, a, b):
        ma, mb = Marking(a), Marking(b)
        if ma.covers(mb) and mb.covers(ma):
            assert ma == mb


# ---------------------------------------------------------------------------
# Randomly generated handshake pipelines stay well-formed through the flow
# ---------------------------------------------------------------------------

@st.composite
def pipeline_spec(draw):
    """A chain of N four-phase handshakes, each driving the next."""
    stages = draw(st.integers(min_value=1, max_value=3))
    return stages


# The pipeline family lives beside conftest so other modules can share it.
from _spec_helpers import build_pipeline  # noqa: E402


class TestFlowInvariants:
    @given(pipeline_spec())
    @settings(max_examples=6, deadline=None)
    def test_pipeline_specs_are_valid_and_synthesizable(self, stages):
        stg = build_pipeline(stages)
        report = validate_stg(stg)
        assert report.bounded and report.consistent

        graph = build_state_graph(stg)
        assert graph.initial_state is not None
        # Codes have one bit per signal.
        assert all(len(s.code) == len(graph.signal_order) for s in graph.states)

        if not find_csc_conflicts(graph):
            covers = synthesize_covers(derive_function_specs(graph))
            # The synthesized cover reproduces the next-state value in every
            # reachable state.
            for signal, cover in covers.items():
                for state in graph.states:
                    assert int(cover.evaluate(state.code)) == graph.next_value(
                        state, signal
                    )

    @given(st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_state_codes_are_consistent_with_transitions(self, stages):
        stg = build_pipeline(stages)
        graph = build_state_graph(stg)
        for (state, transition), successor in graph.edges.items():
            label = graph.stg.label_of(transition)
            if label is None:
                assert state.code == successor.code
                continue
            index = graph.signal_index(label.signal)
            assert state.code[index] == (0 if label.is_rising else 1)
            assert successor.code[index] == (1 if label.is_rising else 0)
            # All other bits unchanged.
            for position, (before, after) in enumerate(zip(state.code, successor.code)):
                if position != index:
                    assert before == after


# ---------------------------------------------------------------------------
# Engine properties (stdlib random, fixed seeds -- no new dependencies)
# ---------------------------------------------------------------------------


class TestReachabilityMonotonicity:
    """Adding tokens never disables behaviour (Petri net monotonicity)."""

    @pytest.mark.parametrize("seed", range(50))
    def test_firing_sequences_survive_token_addition(self, seed):
        from test_engine_differential import random_bounded_net

        rng = random.Random(seed)
        net = random_bounded_net(seed)
        base = net.initial_marking

        # Walk a random enabled firing sequence from the base marking.
        sequence = []
        current = base
        for _ in range(rng.randint(1, 12)):
            enabled = net.enabled_transitions(current)
            if not enabled:
                break
            choice = rng.choice(enabled)
            sequence.append(choice)
            current = net.fire(choice, current)

        extra_place = rng.choice([p.name for p in net.places])
        richer = base.add({extra_place: 1})

        # Every transition enabled in the base marking stays enabled.
        assert set(net.enabled_transitions(base)) <= set(
            net.enabled_transitions(richer)
        )
        # The same sequence fires, landing exactly one token higher.
        final = net.fire_sequence(sequence, richer)
        assert final == current.add({extra_place: 1})

    @pytest.mark.parametrize("seed", range(20))
    def test_reachable_set_grows_pointwise(self, seed):
        """Each marking reachable from M0 is reachable from M0+e, shifted."""
        from test_engine_differential import random_bounded_net

        rng = random.Random(seed + 1000)
        net = random_bounded_net(seed)
        extra_place = rng.choice([p.name for p in net.places])

        graph = build_reachability_graph(net, max_states=2_000)
        richer_net = net.copy()
        richer_net.set_initial_marking(
            net.initial_marking.add({extra_place: 1}).as_dict()
        )
        richer_reachable = set(
            build_reachability_graph(richer_net, max_states=20_000).markings
        )
        for marking in graph.markings:
            assert marking.add({extra_place: 1}) in richer_reachable


class TestSimulatorDeterminism:
    @pytest.mark.parametrize("seed", range(50))
    def test_same_seed_same_waveforms(self, seed):
        from test_engine_differential import random_dag_netlist, random_stimuli

        rng = random.Random(seed)
        netlist = random_dag_netlist(seed)
        stimuli = random_stimuli(rng, netlist)

        def run():
            simulator = EventDrivenSimulator(
                netlist, delay_jitter=0.2, seed=seed
            )
            for net, value, time in stimuli:
                simulator.schedule(net, value, time)
            trace = simulator.run(duration_ps=5_000.0, max_events=50_000)
            return (
                {net: w.changes for net, w in trace.waveforms.items()},
                trace.final_values,
                trace.event_count,
            )

        assert run() == run()


class TestHandshakeJitterDeterminism:
    """HandshakeEnvironment jitter is seeded: reruns are reproducible and
    seed changes actually move the response times."""

    def _changes(self, netlist, env_seed):
        from repro.circuit.analysis import fifo_environment_rules
        from repro.circuit.simulator import HandshakeEnvironment

        environment = HandshakeEnvironment(
            fifo_environment_rules(),
            jitter=0.3,
            seed=env_seed,
            initial_stimuli=[("li", 1, 50.0)],
        )
        simulator = EventDrivenSimulator(netlist, [environment], seed=0)
        trace = simulator.run(duration_ps=30_000.0, max_events=200_000)
        return {net: waveform.changes for net, waveform in trace.waveforms.items()}

    @pytest.mark.parametrize("env_seed", range(5))
    def test_same_seed_same_trace(self, fifo_rt, env_seed):
        netlist = fifo_rt.netlist
        assert self._changes(netlist, env_seed) == self._changes(netlist, env_seed)

    def test_different_seeds_produce_different_traces(self, fifo_rt):
        netlist = fifo_rt.netlist
        baseline = self._changes(netlist, 0)
        assert any(
            self._changes(netlist, env_seed) != baseline for env_seed in (1, 2)
        ), "jitter seed change never altered the trace"

    def test_reset_rearms_environment_jitter(self, fifo_rt):
        """After reset() the environment RNG restarts from its seed, so a
        second run on the same simulator instance reproduces the first."""
        from repro.circuit.analysis import fifo_environment_rules
        from repro.circuit.simulator import HandshakeEnvironment

        environment = HandshakeEnvironment(
            fifo_environment_rules(),
            jitter=0.3,
            seed=11,
            initial_stimuli=[("li", 1, 50.0)],
        )
        simulator = EventDrivenSimulator(fifo_rt.netlist, [environment], seed=11)
        first = simulator.run(duration_ps=20_000.0, max_events=200_000)
        first_changes = {n: list(w.changes) for n, w in first.waveforms.items()}
        simulator.reset()
        second = simulator.run(duration_ps=20_000.0, max_events=200_000)
        assert {n: list(w.changes) for n, w in second.waveforms.items()} == (
            first_changes
        )


class TestMarkingEncodingRoundTrip:
    @pytest.mark.parametrize("seed", range(50))
    def test_decode_encode_identity(self, seed):
        from test_engine_differential import random_bounded_net

        rng = random.Random(seed)
        net = random_bounded_net(seed)
        codec = NetEncoding.for_net(net)
        places = [p.name for p in net.places]
        for _ in range(20):
            tokens = {p: rng.randint(0, 3) for p in places}
            marking = Marking(tokens)
            key = codec.encode(marking)
            # decode(encode(x)) == x, including the hash contract.
            decoded = codec.decode(key)
            assert decoded == marking
            assert hash(decoded) == hash(marking)
            # encode(decode(k)) == k
            assert codec.encode(decoded) == key

    @pytest.mark.parametrize("seed", range(50))
    def test_bitmask_roundtrip_on_safe_markings(self, seed):
        from test_engine_differential import random_bounded_net

        rng = random.Random(seed + 31)
        net = random_bounded_net(seed, unit_weights=True)
        codec = NetEncoding.for_net(net)
        places = [p.name for p in net.places]
        for _ in range(20):
            tokens = {p: rng.randint(0, 1) for p in places}
            marking = Marking(tokens)
            bits = codec.encode_bits(marking)
            decoded = codec.decode_bits(bits)
            assert decoded == marking
            assert hash(decoded) == hash(marking)
            assert codec.encode_bits(decoded) == bits

    def test_unsafe_marking_rejected_by_bitmask(self):
        from repro.petrinet import PetriNet

        net = PetriNet("unsafe")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.set_initial_marking({"p": 1})
        codec = NetEncoding.for_net(net)
        with pytest.raises(EncodingError):
            codec.encode_bits(Marking({"p": 2}))
        with pytest.raises(EncodingError):
            codec.encode(Marking({"not_a_place": 1}))
