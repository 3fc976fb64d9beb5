"""Partial-order reduced reachability: differential and property tests.

The stubborn-set exploration (:func:`repro.petrinet.reachability.explore`)
promises exactly one thing -- the reduced graph contains **the same
deadlock markings** as the full graph, at a fraction of the states.
These tests pin that contract against the retained full-BFS oracle
``_reference_build_reachability_graph`` over seeded random nets, every
specification in the STG library, and the RAPPID control family; the
rest of the module covers the guard rails around it (``ReductionError``
on full-graph queries, the tri-state boundedness check, derived-set
caching, and the conformance verifier's prebuilt spec graph).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analysis
from repro.petrinet import PetriNet
from repro.petrinet.net import PetriNetError
from repro.petrinet.properties import (
    deadlock_markings,
    is_bounded,
    is_deadlock_free,
    is_live,
    is_reversible,
    is_safe,
    max_bound,
)
from repro.petrinet.reachability import (
    Boundedness,
    Reduction,
    ReductionError,
    TruncatedExplorationError,
    UnboundedNetError,
    _reference_build_reachability_graph,
    build_reachability_graph,
    check_boundedness,
    explore,
)
from repro.stg import specs
from repro.verification.conformance import verify_conformance

REDUCTION_SEEDS = range(40)


def random_bounded_net(seed: int) -> PetriNet:
    """Seeded random net that cannot gain tokens (mirrors the generator
    in ``test_engine_differential.py``: per transition the produced
    token count never exceeds the consumed count)."""
    rng = random.Random(seed)
    net = PetriNet(f"por{seed}")
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
            weight = 1 if rng.random() < 0.8 else 2
            net.add_arc(place, name, weight)
        for place in outputs:
            net.add_arc(name, place)
    marking = {p: rng.randint(0, 2) for p in places}
    if not any(marking.values()):
        marking[rng.choice(places)] = 1
    net.set_initial_marking(marking)
    return net


def cycle_net(length: int = 3) -> PetriNet:
    """A single token circulating through ``length`` places."""
    net = PetriNet(f"cycle{length}")
    for i in range(length):
        net.add_place(f"p{i}")
    for i in range(length):
        net.add_transition(f"t{i}")
        net.add_arc(f"p{i}", f"t{i}")
        net.add_arc(f"t{i}", f"p{(i + 1) % length}")
    net.set_initial_marking({"p0": 1})
    return net


def chain_net(length: int) -> PetriNet:
    """A token walking down a ``length``-place chain (terminates)."""
    net = PetriNet(f"chain{length}")
    for i in range(length):
        net.add_place(f"p{i}")
    for i in range(length - 1):
        net.add_transition(f"t{i}")
        net.add_arc(f"p{i}", f"t{i}")
        net.add_arc(f"t{i}", f"p{i + 1}")
    net.set_initial_marking({"p0": 1})
    return net


def producer_net() -> PetriNet:
    net = PetriNet("producer")
    net.add_place("p")
    net.add_transition("t")
    net.add_arc("t", "p")
    net.set_initial_marking({})
    return net


# ---------------------------------------------------------------------------
# Reduced vs full: the deadlock-preservation contract
# ---------------------------------------------------------------------------


class TestReducedVersusFullOracle:
    @pytest.mark.parametrize("seed", REDUCTION_SEEDS)
    def test_random_nets_preserve_deadlocks(self, seed):
        net = random_bounded_net(seed)
        full = _reference_build_reachability_graph(net, max_states=5_000)
        reduced = explore(net, max_states=5_000)
        assert reduced.is_reduced
        assert reduced.reduction is Reduction.DEADLOCKS
        assert set(reduced.markings) <= set(full.markings)
        assert set(reduced.deadlocks()) == set(full.deadlocks())
        assert len(reduced) <= len(full)

    @pytest.mark.parametrize("seed", REDUCTION_SEEDS)
    def test_no_false_deadlocks_in_reduced_graph(self, seed):
        """A reduced marking is a sink iff the *net* enables nothing
        there -- the stubborn subset is never empty at a live marking."""
        net = random_bounded_net(seed)
        reduced = explore(net, max_states=5_000)
        sinks = set(reduced.deadlocks())
        for marking in reduced.markings:
            assert (marking in sinks) == (not net.enabled_transitions(marking))

    @pytest.mark.parametrize("name", sorted(specs.ALL_SPECS))
    def test_library_specs_preserve_deadlocks(self, name):
        net = specs.ALL_SPECS[name]().net
        full = build_reachability_graph(net)
        reduced = explore(net)
        assert set(reduced.markings) <= set(full.markings)
        assert set(reduced.deadlocks()) == set(full.deadlocks())

    def test_full_mode_explore_delegates_to_builder(self):
        net = random_bounded_net(7)
        via_explore = explore(net, reduction=Reduction.FULL)
        via_builder = build_reachability_graph(net)
        assert not via_explore.is_reduced
        assert via_explore.markings == via_builder.markings
        assert via_explore.edges == via_builder.edges

    def test_reduction_accepts_string_values(self):
        net = cycle_net()
        reduced = build_reachability_graph(net, reduction="deadlocks")
        assert reduced.reduction is Reduction.DEADLOCKS
        full = explore(net, reduction="full")
        assert full.reduction is Reduction.FULL
        with pytest.raises(ValueError):
            build_reachability_graph(net, reduction="ample")

    def test_safe_net_bound_one_takes_bitmask_path(self):
        """bound=1 on a safe net runs the bitmask core; the deadlock set
        still matches the full graph and the reduction is recorded."""
        net = specs.fifo_controller().net
        reduced = explore(net, bound=1)
        full = build_reachability_graph(net, bound=1)
        assert set(reduced.deadlocks()) == set(full.deadlocks())
        assert len(reduced) <= len(full)

    def test_bound_violation_under_reduction_is_genuine(self):
        """When the reduced exploration raises a bound violation, the
        full exploration agrees (one-sided soundness, raising side)."""
        net = PetriNet("double")
        net.add_place("p")
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        net.add_arc("t", "q")  # weight 2: q reaches 2 tokens
        net.set_initial_marking({"p": 1})
        with pytest.raises(UnboundedNetError):
            explore(net, bound=1)
        with pytest.raises(UnboundedNetError):
            build_reachability_graph(net, bound=1)

    def test_state_cap_applies_to_reduced_exploration(self):
        with pytest.raises(UnboundedNetError, match="state cap"):
            explore(producer_net(), max_states=40)


# ---------------------------------------------------------------------------
# The RAPPID control family: where the reduction actually pays
# ---------------------------------------------------------------------------


class TestRappidControlFamily:
    @pytest.mark.parametrize("n_bytes,n_columns", [(1, 1), (1, 2), (2, 1)])
    def test_small_sizes_match_full_oracle(self, n_bytes, n_columns):
        net = specs.rappid_control(n_bytes, n_columns).net
        full = _reference_build_reachability_graph(net, max_states=20_000)
        reduced = explore(net, max_states=20_000)
        assert set(reduced.deadlocks()) == set(full.deadlocks())
        assert set(reduced.markings) <= set(full.markings)

    def test_marked_graph_structure_gives_large_reduction(self):
        """The control STG is a marked graph (no choice), so stubborn
        sets shrink to singletons and the reduced graph stays near-linear
        while the full graph explodes."""
        net = specs.rappid_control(1, 2).net
        full = build_reachability_graph(net)
        for bound in (None, 1):  # count-tuple and bitmask cores
            reduced = explore(net, bound=bound)
            assert not reduced.deadlocks()
            assert len(full) >= 5 * len(reduced)

    def test_paper_scale_spec_verifies_reduced(self):
        """A size far beyond the flat-BFS budget: the reduced exploration
        finishes in a few hundred states and proves deadlock freedom."""
        net = specs.rappid_control(8, 4).net
        reduced = explore(net, max_states=50_000)
        assert not reduced.deadlocks()
        assert is_deadlock_free(net)

    def test_column_controller_feeds_properties_layer(self):
        net = specs.rappid_column_controller(2).net
        assert is_deadlock_free(net)
        assert is_safe(net)
        assert max_bound(net) == 1


# ---------------------------------------------------------------------------
# Tri-state boundedness
# ---------------------------------------------------------------------------


class TestBoundednessTriState:
    def test_producer_is_unbounded_even_with_tiny_limit(self):
        assert check_boundedness(producer_net(), limit=4) is Boundedness.UNBOUNDED
        # The witness is checked before the cap, even on the state that
        # would exceed it.
        assert check_boundedness(producer_net(), limit=1) is Boundedness.UNBOUNDED
        assert is_bounded(producer_net(), limit=4) is False

    def test_large_bounded_net_truncates_then_decides(self):
        net = chain_net(20)
        assert check_boundedness(net, limit=3) is Boundedness.TRUNCATED
        assert check_boundedness(net, limit=100) is Boundedness.BOUNDED

    def test_is_bounded_raises_on_truncation(self):
        with pytest.raises(TruncatedExplorationError, match="truncated at 3"):
            is_bounded(chain_net(20), limit=3)
        assert is_bounded(chain_net(20), limit=100) is True

    def test_cycle_is_bounded(self):
        assert check_boundedness(cycle_net()) is Boundedness.BOUNDED

    @pytest.mark.parametrize("seed", range(20))
    def test_random_token_conserving_nets_are_bounded(self, seed):
        assert check_boundedness(random_bounded_net(seed)) in (
            Boundedness.BOUNDED,
            Boundedness.TRUNCATED,  # large but never a false "unbounded"
        )

    def test_pumping_loop_with_net_gain_is_unbounded(self):
        net = PetriNet("pump")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        net.add_arc("t", "p")  # consumes 1, produces 2
        net.set_initial_marking({"p": 1})
        assert check_boundedness(net) is Boundedness.UNBOUNDED

    def test_capacity_violation_raises_like_the_engine(self):
        net = PetriNet("capped")
        net.add_place("p")
        net.add_place("q", capacity=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        net.add_arc("t", "q")
        net.set_initial_marking({"p": 1})
        with pytest.raises(PetriNetError, match="exceeds capacity"):
            check_boundedness(net)


# ---------------------------------------------------------------------------
# Guard rails: full-graph queries refuse reduced graphs
# ---------------------------------------------------------------------------


class TestReductionGuards:
    @pytest.fixture(scope="class")
    def reduced_fifo(self):
        return explore(specs.fifo_controller().net)

    def test_max_bound_refuses_reduced_graph(self, reduced_fifo):
        with pytest.raises(ReductionError, match="max_bound"):
            max_bound(reduced_fifo.net, reduced_fifo)

    def test_is_safe_refuses_reduced_graph(self, reduced_fifo):
        with pytest.raises(ReductionError):
            is_safe(reduced_fifo.net, reduced_fifo)

    def test_is_live_refuses_reduced_graph(self, reduced_fifo):
        with pytest.raises(ReductionError, match="is_live"):
            is_live(reduced_fifo.net, reduced_fifo)

    def test_is_reversible_refuses_reduced_graph(self, reduced_fifo):
        with pytest.raises(ReductionError, match="is_reversible"):
            is_reversible(reduced_fifo.net, reduced_fifo)

    def test_error_names_the_rebuild_remedy(self, reduced_fifo):
        with pytest.raises(ReductionError, match="Reduction.FULL"):
            reduced_fifo.require_full("state-graph construction")

    def test_require_full_is_a_no_op_on_full_graphs(self):
        graph = build_reachability_graph(cycle_net())
        graph.require_full("anything")  # must not raise

    def test_deadlock_queries_accept_either_mode(self):
        net = specs.fifo_controller().net
        full = build_reachability_graph(net)
        reduced = explore(net)
        assert deadlock_markings(net, full) == deadlock_markings(net, reduced)
        assert is_deadlock_free(net, full) == is_deadlock_free(net, reduced)
        # And the graph-free default (which builds reduced) agrees.
        assert is_deadlock_free(net) is True


# ---------------------------------------------------------------------------
# Derived-set caching on ReachabilityGraph
# ---------------------------------------------------------------------------


class TestDerivedSetCaching:
    @pytest.fixture()
    def graph(self):
        return build_reachability_graph(specs.fifo_controller().net)

    def test_deadlocks_cached_and_copied(self, graph):
        first = graph.deadlocks()
        assert graph._cached_deadlocks is not None
        second = graph.deadlocks()
        assert first == second
        assert first is not second  # callers get a copy, not the cache
        second.append("sentinel")
        assert graph.deadlocks() == first

    def test_successor_index_built_once(self, graph):
        index = graph._successor_index()
        assert graph._successor_index() is index
        initial = graph.initial_marking
        assert list(graph.successors(initial)) == index[initial]
        assert graph.enabled(initial) == [t for t, _m in index[initial]]

    def test_membership_set_built_once(self, graph):
        assert graph.initial_marking in graph
        cached = graph._marking_set()
        assert graph._marking_set() is cached
        assert len(cached) == len(graph)

    def test_occurrence_counts_sum_to_edge_count(self, graph):
        names = {t for (_m, t) in graph.edges}
        total = sum(graph.transition_occurrences(t) for t in names)
        assert total == len(graph.edges)
        assert graph.transition_occurrences("no_such_transition") == 0


# ---------------------------------------------------------------------------
# is_live / is_reversible edge cases
# ---------------------------------------------------------------------------


class TestLivenessEdgeCases:
    def test_zero_transition_net_is_vacuously_live_and_reversible(self):
        net = PetriNet("frozen")
        net.add_place("p")
        net.set_initial_marking({"p": 1})
        assert is_live(net) is True  # no transitions to violate liveness
        assert is_reversible(net) is True
        assert is_deadlock_free(net) is False  # but it deadlocks instantly

    def test_never_enabled_transition_kills_liveness(self):
        net = cycle_net()
        net.add_place("dead_p")
        net.add_transition("dead_t")
        net.add_arc("dead_p", "dead_t")
        assert is_live(net) is False
        assert is_reversible(net) is True  # the cycle itself still returns

    def test_terminating_chain_is_neither_live_nor_reversible(self):
        net = chain_net(4)
        assert is_live(net) is False
        assert is_reversible(net) is False

    def test_simple_cycle_is_live_and_reversible(self):
        net = cycle_net(4)
        assert is_live(net) is True
        assert is_reversible(net) is True


# ---------------------------------------------------------------------------
# Hypothesis: the contract over generated nets
# ---------------------------------------------------------------------------


@st.composite
def token_conserving_nets(draw):
    """Small nets where every transition produces at most as many tokens
    as it consumes (unit arcs), so the state space is finite."""
    num_places = draw(st.integers(min_value=2, max_value=5))
    num_transitions = draw(st.integers(min_value=1, max_value=5))
    places = [f"p{i}" for i in range(num_places)]
    net = PetriNet("hyp")
    for place in places:
        net.add_place(place)
    for j in range(num_transitions):
        name = f"t{j}"
        net.add_transition(name)
        inputs = draw(
            st.lists(
                st.sampled_from(places), min_size=1, max_size=3, unique=True
            )
        )
        outputs = draw(
            st.lists(
                st.sampled_from(places),
                min_size=0,
                max_size=len(inputs),
                unique=True,
            )
        )
        for place in inputs:
            net.add_arc(place, name)
        for place in outputs:
            net.add_arc(name, place)
    tokens = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=num_places,
            max_size=num_places,
        )
    )
    marking = dict(zip(places, tokens))
    if not any(marking.values()):
        marking[places[0]] = 1
    net.set_initial_marking(marking)
    return net


class TestReductionProperties:
    @given(token_conserving_nets())
    @settings(max_examples=80, deadline=None)
    def test_deadlock_sets_agree_with_oracle(self, net):
        full = _reference_build_reachability_graph(net, max_states=5_000)
        reduced = explore(net, max_states=5_000)
        assert set(reduced.deadlocks()) == set(full.deadlocks())
        assert set(reduced.markings) <= set(full.markings)

    @given(token_conserving_nets())
    @settings(max_examples=80, deadline=None)
    def test_fired_subset_is_enabled_and_nonempty(self, net):
        """At every reduced marking, the fired transitions are a nonempty
        subset of the enabled set (unless nothing is enabled at all)."""
        reduced = explore(net, max_states=5_000)
        for marking in reduced.markings:
            fired = reduced.enabled(marking)
            enabled = set(net.enabled_transitions(marking))
            assert set(fired) <= enabled
            assert bool(fired) == bool(enabled)

    @given(token_conserving_nets())
    @settings(max_examples=60, deadline=None)
    def test_full_mode_is_bit_identical_to_reference(self, net):
        fast = build_reachability_graph(net, max_states=5_000)
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        assert fast.markings == reference.markings
        assert fast.edges == reference.edges

    @given(token_conserving_nets())
    @settings(max_examples=60, deadline=None)
    def test_max_bound_needs_and_matches_the_full_graph(self, net):
        reference = _reference_build_reachability_graph(net, max_states=5_000)
        expected = max(
            (count for m in reference.markings for _p, count in m.items()),
            default=0,
        )
        assert max_bound(net) == expected
        assert check_boundedness(net, limit=10_000) is Boundedness.BOUNDED


@st.composite
def prefix_then_cycle_nets(draw):
    """A guarded token ring whose initial marking is a prefix never revisited.

    Ring places ``c0 .. c{k-1}`` carry one token and a pool of ``n`` tokens
    starts on ``u``.  ``fill`` moves a pool token from ``u`` to ``v``;
    leaving ``c0`` returns a ``v`` token to ``u``; re-entering ``c0`` needs
    a ``v`` token and keeps it.  Every transition recurs from every marking,
    but the ring is never back at ``c0`` with ``v`` empty: live, not
    reversible.
    """
    length = draw(st.integers(min_value=2, max_value=5))
    pool = draw(st.integers(min_value=1, max_value=3))
    net = PetriNet(f"prefix{length}x{pool}")
    ring = [f"c{i}" for i in range(length)]
    for place in ring + ["u", "v"]:
        net.add_place(place)
    net.add_transition("fill")
    net.add_arc("u", "fill")
    net.add_arc("fill", "v")
    for i, place in enumerate(ring):
        name = f"r{i}"
        net.add_transition(name)
        net.add_arc(place, name)
        net.add_arc(name, ring[(i + 1) % length])
        if i == 0:
            net.add_arc("v", name)
            net.add_arc(name, "u")
        elif i == length - 1:
            net.add_arc("v", name)
            net.add_arc(name, "v")
    net.set_initial_marking({"c0": 1, "u": pool})
    return net


def _walk_is_live(net, graph):
    """Liveness by one forward walk per marking (the pre-closure check)."""
    occurring = {t for (_m, t) in graph.edges}
    if occurring != {t.name for t in net.transitions}:
        return False
    for marking in graph.markings:
        fired, stack, visited = set(), [marking], {marking}
        while stack:
            for transition, target in graph.successors(stack.pop()):
                fired.add(transition)
                if target not in visited:
                    visited.add(target)
                    stack.append(target)
        if fired != occurring:
            return False
    return True


def _walk_is_reversible(net, graph):
    """Reversibility by one forward walk per marking."""
    initial = net.initial_marking
    for marking in graph.markings:
        stack, visited = [marking], {marking}
        while stack and initial not in visited:
            for _transition, target in graph.successors(stack.pop()):
                if target not in visited:
                    visited.add(target)
                    stack.append(target)
        if initial not in visited:
            return False
    return True


class TestLivenessClosures:
    """``is_live``/``is_reversible`` are backward closures; they must agree
    with a brute-force walk from every marking."""

    @given(st.one_of(token_conserving_nets(), prefix_then_cycle_nets()))
    @settings(max_examples=100, deadline=None)
    def test_closures_match_per_marking_walk(self, net):
        graph = build_reachability_graph(net, max_states=5_000)
        assert is_live(net, graph) == _walk_is_live(net, graph)
        assert is_reversible(net, graph) == _walk_is_reversible(net, graph)

    @given(prefix_then_cycle_nets())
    @settings(max_examples=20, deadline=None)
    def test_prefix_then_cycle_is_live_but_not_reversible(self, net):
        graph = build_reachability_graph(net)
        assert _walk_is_live(net, graph) and not _walk_is_reversible(net, graph)
        assert is_live(net, graph) and not is_reversible(net, graph)

    # The walk is one search per marking; on rappid_control's 4,212
    # markings that is most of a minute, so the family stays out.
    @pytest.mark.parametrize("name", sorted(set(specs.ALL_SPECS) - {"rappid_control"}))
    def test_library_specs_match_per_marking_walk(self, name):
        net = specs.load_spec(name).net
        graph = build_reachability_graph(net)
        assert is_live(net, graph) == _walk_is_live(net, graph)
        assert is_reversible(net, graph) == _walk_is_reversible(net, graph)


# ---------------------------------------------------------------------------
# Conformance with a prebuilt spec graph
# ---------------------------------------------------------------------------


def _conformance_signature(result):
    return (
        result.conforms,
        [(f.kind, str(f.event)) for f in result.failures],
        result.states_explored,
        result.deadlocks,
    )


class TestConformanceSpecGraph:
    def test_prebuilt_graph_is_bit_identical_on_conforming_circuit(self, fifo_si):
        stg = fifo_si.encoded_stg
        graph = analysis.get(stg.net, "reachability-full")
        with_graph = verify_conformance(fifo_si.netlist, stg, spec_graph=graph)
        without = verify_conformance(fifo_si.netlist, stg)
        assert _conformance_signature(with_graph) == _conformance_signature(without)
        assert with_graph.conforms

    def test_prebuilt_graph_is_bit_identical_on_failing_circuit(
        self, celement_netlist, celement_stg
    ):
        graph = build_reachability_graph(celement_stg.net)
        with_graph = verify_conformance(
            celement_netlist, celement_stg, spec_graph=graph
        )
        without = verify_conformance(celement_netlist, celement_stg)
        assert _conformance_signature(with_graph) == _conformance_signature(without)
        assert not with_graph.conforms

    def test_reduced_spec_graph_is_rejected(self, fifo_si):
        stg = fifo_si.encoded_stg
        reduced = explore(stg.net)
        with pytest.raises(ReductionError, match="verify_conformance"):
            verify_conformance(fifo_si.netlist, stg, spec_graph=reduced)

    def test_graph_for_a_different_net_is_rejected(self, fifo_si):
        stg = fifo_si.encoded_stg
        foreign = build_reachability_graph(cycle_net())
        with pytest.raises(ValueError, match="different net"):
            verify_conformance(fifo_si.netlist, stg, spec_graph=foreign)


# ---------------------------------------------------------------------------
# Analysis-pass integration
# ---------------------------------------------------------------------------


class TestReachabilityPasses:
    def test_full_and_reduced_passes_cache_independently(self):
        net = specs.rappid_control(1, 2).net
        manager = analysis.PassManager()
        manager.register(analysis.ReachabilityFullAnalysis)
        manager.register(analysis.ReachabilityReducedAnalysis)
        full = manager.get(net, "reachability-full")
        reduced = manager.get(net, "reachability-reduced")
        assert manager.get(net, "reachability-full") is full
        assert manager.get(net, "reachability-reduced") is reduced
        assert not full.is_reduced
        assert reduced.is_reduced
        assert set(reduced.deadlocks()) == set(full.deadlocks())

    def test_marking_mutation_invalidates_cached_graphs(self):
        net = cycle_net(3)
        manager = analysis.PassManager()
        manager.register(analysis.ReachabilityFullAnalysis)
        first = manager.get(net, "reachability-full")
        net.set_initial_marking({"p1": 1})
        second = manager.get(net, "reachability-full")
        assert second is not first
        assert second.initial_marking["p1"] == 1

    def test_content_keyed_cache_survives_no_op_marking_rewrite(self):
        net = cycle_net(3)
        manager = analysis.PassManager()
        manager.register(analysis.ReachabilityFullAnalysis)
        first = manager.get(net, "reachability-full")
        net.set_initial_marking({"p0": 1})  # same content, new version
        assert manager.get(net, "reachability-full") is first
