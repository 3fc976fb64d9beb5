"""Tests for the Relative Timing core: assumptions, lazy graphs, generation,
back-annotation."""

import pytest

from repro.core import (
    AssumptionKind,
    AssumptionSet,
    RelativeTimingAssumption,
    apply_assumptions,
    assume,
    back_annotate,
    early_enable_candidates,
    generate_automatic_assumptions,
)
from repro.stg import specs
from repro.stg.model import SignalTransition
from repro.stategraph import build_state_graph, resolve_csc
from repro.synthesis.logic import derive_function_specs, synthesize_covers


class TestAssumptions:
    def test_assume_parses_events(self):
        assumption = assume("ri-", "li+")
        assert assumption.before.signal == "ri" and assumption.before.is_falling
        assert assumption.after.signal == "li" and assumption.after.is_rising
        assert assumption.kind is AssumptionKind.USER

    def test_occurrence_indices_are_normalised(self):
        assumption = RelativeTimingAssumption(
            before=SignalTransition.parse("a+/2"), after=SignalTransition.parse("b-")
        )
        assert assumption.before.index == 0

    def test_set_deduplicates(self):
        assumptions = AssumptionSet()
        assert assumptions.add(assume("a+", "b+"))
        assert not assumptions.add(assume("a+", "b+"))
        assert len(assumptions) == 1
        assert ("a+", "b+") in assumptions

    def test_contradiction_rejected(self):
        assumptions = AssumptionSet([assume("a+", "b+")])
        with pytest.raises(ValueError):
            assumptions.add(assume("b+", "a+"))

    def test_user_vs_automatic_partition(self):
        assumptions = AssumptionSet(
            [assume("a+", "b+"), assume("c-", "d-", kind=AssumptionKind.AUTOMATIC)]
        )
        assert len(assumptions.user_assumptions) == 1
        assert len(assumptions.automatic_assumptions) == 1

    def test_merged_with(self):
        first = AssumptionSet([assume("a+", "b+")])
        second = AssumptionSet([assume("c+", "d+")])
        merged = first.merged_with(second)
        assert len(merged) == 2


class TestLazyStateGraph:
    def test_concurrency_reduction_removes_states(self):
        stg = specs.fifo_controller()
        graph = build_state_graph(stg)
        # In the FIFO, li- and ro+ can be concurrently enabled; forcing ro+
        # first removes interleavings.
        assumptions = AssumptionSet([assume("ro+", "li-")])
        lazy = apply_assumptions(graph, assumptions)
        assert len(lazy.reduced.edges) < len(graph.edges)
        assert len(lazy.reduced.states) <= len(graph.states)
        assert lazy.removed_edges
        assert lazy.statistics()["original_states"] == len(graph.states)

    def test_reduction_preserves_initial_state(self):
        graph = build_state_graph(specs.fifo_controller())
        lazy = apply_assumptions(graph, AssumptionSet([assume("ro+", "li-")]))
        assert lazy.reduced.initial_state == graph.initial_state

    def test_no_assumptions_is_identity(self):
        graph = build_state_graph(specs.simple_handshake())
        lazy = apply_assumptions(graph, AssumptionSet())
        assert len(lazy.reduced.states) == len(graph.states)
        assert not lazy.removed_edges
        assert not lazy.early_enablings

    def test_early_enabling_candidates_exist_for_fifo(self):
        encoded = resolve_csc(specs.fifo_controller()).stg
        graph = build_state_graph(encoded)
        candidates = early_enable_candidates(graph)
        assert candidates
        # Candidates only target non-input signals.
        non_inputs = set(encoded.non_input_signals)
        assert all(lazy.signal in non_inputs for _trigger, lazy in candidates)

    def test_local_dont_cares_recorded_per_signal(self):
        encoded = resolve_csc(specs.fifo_controller()).stg
        graph = build_state_graph(encoded)
        assumptions = generate_automatic_assumptions(graph)
        lazy = apply_assumptions(graph, assumptions)
        internal = encoded.internals
        assert internal
        assert any(lazy.local_dont_cares(signal) for signal in internal)


class TestConcurrencyReductionPins:
    """Exact outputs of the one concurrency reduction behind both timing-aware
    state encoding and lazy state graphs (order included)."""

    def test_timing_aware_fifo_encoding(self):
        result = resolve_csc(specs.fifo_controller(), timing_aware=True)
        assert result.inserted_signals == ["x", "x1", "x2"]
        assert not result.resolved
        assert [str(point) for point in result.insertion_points] == [
            "x+ triggered by lo-, acknowledged by ",
            "x- triggered by lo+, acknowledged by ro+",
            "x1+ triggered by ro+, acknowledged by lo-",
            "x1- triggered by x+^lo-, acknowledged by eps",
            "x2+ triggered by ro-, acknowledged by ",
            "x2- triggered by ri-, acknowledged by ro+",
        ]
        assert [(str(b), str(a)) for b, a in result.implied_orderings] == [
            ("x+", "li+"),
            ("x1+", "ri+"),
            ("x2+", "ri-"),
        ]

    def test_timing_aware_fifo_decoupled_encoding(self):
        result = resolve_csc(specs.fifo_controller_decoupled(), timing_aware=True)
        assert result.inserted_signals == ["x", "x1"]
        assert result.resolved
        assert [str(point) for point in result.insertion_points] == [
            "x+ triggered by li+, acknowledged by lo+",
            "x- triggered by ro+, acknowledged by ",
            "x1+ triggered by li+, acknowledged by lo+, x+^li+",
            "x1- triggered by lo+, acknowledged by ro+",
        ]
        assert [(str(b), str(a)) for b, a in result.implied_orderings] == [
            ("x-", "ri+")
        ]

    def test_fifo_removed_edges_order(self):
        graph = build_state_graph(resolve_csc(specs.fifo_controller()).stg)
        assert graph.signal_order == ["li", "lo", "ri", "ro", "x", "x1", "x2"]
        lazy = apply_assumptions(graph, generate_automatic_assumptions(graph))
        removed = [
            (graph.code_string(r.state), r.transition, str(r.event), str(r.assumption))
            for r in lazy.removed_edges
        ]
        assert all(transition == event for _c, transition, event, _a in removed)
        assert [(c, t, a) for c, t, _e, a in removed] == [
            ("1100111", "li-", "x- before li- [auto]"),
            ("1101011", "li-", "x1- before li- [auto]"),
            ("1101011", "ri+", "x1- before ri+ [auto]"),
            ("0101011", "ri+", "x1- before ri+ [auto]"),
            ("1101001", "li-", "x2- before li- [auto]"),
            ("1101001", "ri+", "x2- before ri+ [auto]"),
            ("0101001", "ri+", "x2- before ri+ [auto]"),
            ("0001000", "li+", "x1+ before li+ [auto]"),
            ("0001000", "ri+", "x1+ before ri+ [auto]"),
            ("1110000", "li-", "x2+ before li- [auto]"),
            ("1110000", "ri-", "x2+ before ri- [auto]"),
            ("0011000", "li+", "x1+ before li+ [auto]"),
            ("0110000", "ri-", "x2+ before ri- [auto]"),
            ("0010000", "li+", "x1+ before li+ [auto]"),
            ("0010000", "ri-", "x2+ before ri- [auto]"),
            ("1001010", "ri+", "x+ before ri+ [auto]"),
            ("0010010", "ri-", "x2+ before ri- [auto]"),
            ("0010010", "li+", "x2+ before li+ [auto]"),
            ("0010001", "li+", "x1+ before li+ [auto]"),
            ("0010001", "ri-", "x1+ before ri- [auto]"),
            ("1010010", "ri-", "x2+ before ri- [auto]"),
            ("0000001", "li+", "x1+ before li+ [auto]"),
            ("1101110", "li-", "x- before li- [auto]"),
            ("1101110", "ri+", "x- before ri+ [auto]"),
            ("1010110", "ri-", "x2+ before ri- [auto]"),
            ("1010011", "ri-", "x+ before ri- [auto]"),
            ("1111110", "li-", "x- before li- [auto]"),
            ("1110110", "li-", "x- before li- [auto]"),
            ("1110110", "ri-", "x2+ before ri- [auto]"),
            ("1110010", "li-", "x2+ before li- [auto]"),
            ("1110010", "ri-", "x2+ before ri- [auto]"),
            ("1110111", "li-", "x- before li- [auto]"),
            ("1110111", "ri-", "x- before ri- [auto]"),
            ("0110010", "ri-", "x2+ before ri- [auto]"),
        ]
        # Every cut edge is gone from the reduced graph, from a kept state.
        kept = set(lazy.reduced.states)
        assert all(r.state in kept for r in lazy.removed_edges)
        assert not any(
            (r.state, r.transition) in lazy.reduced.edges for r in lazy.removed_edges
        )


class TestGeneration:
    def test_automatic_assumptions_target_state_signals(self):
        encoded = resolve_csc(specs.fifo_controller()).stg
        graph = build_state_graph(encoded)
        assumptions = generate_automatic_assumptions(graph)
        assert len(assumptions) > 0
        internals = set(encoded.internals)
        inputs = set(encoded.inputs)
        for assumption in assumptions:
            assert assumption.kind is AssumptionKind.AUTOMATIC
            # Every generated ordering involves a state signal or orders the
            # circuit before the environment.
            assert (
                assumption.before.signal in internals
                or assumption.after.signal in internals
                or assumption.after.signal in inputs
            )

    def test_existing_user_assumptions_preserved(self):
        encoded = resolve_csc(specs.fifo_controller()).stg
        graph = build_state_graph(encoded)
        user = AssumptionSet([assume("ri-", "li+")])
        assumptions = generate_automatic_assumptions(graph, existing=user)
        assert ("ri-", "li+") in assumptions
        assert len(assumptions.user_assumptions) == 1

    def test_no_assumptions_for_csc_free_simple_spec(self):
        graph = build_state_graph(specs.simple_handshake())
        assumptions = generate_automatic_assumptions(graph)
        # The plain handshake has no internal signals and no simultaneous
        # internal/input enabling, so the basic rules stay silent.
        assert len(assumptions) == 0


class TestBackAnnotation:
    def test_untimed_covers_need_no_constraints(self):
        encoded = resolve_csc(specs.fifo_controller()).stg
        graph = build_state_graph(encoded)
        specs_map = derive_function_specs(graph)
        covers = synthesize_covers(specs_map)
        assumptions = generate_automatic_assumptions(graph)
        annotation = back_annotate(graph, assumptions, covers)
        assert annotation.constraints == []
        assert len(annotation.unused_assumptions) == len(assumptions)

    def test_rt_covers_backannotate_constraints(self, fifo_rt):
        # The RT synthesis result's constraints must be consistent with its
        # own assumption set and make the circuit correct.
        constraints = fifo_rt.constraints
        assert constraints
        orderings = {a.ordering() for a in fifo_rt.assumptions}
        for constraint in constraints:
            assert (constraint.before, constraint.after) in orderings

    def test_constraint_set_is_sufficient(self, fifo_rt):
        from repro.core.assumptions import AssumptionSet, RelativeTimingAssumption
        from repro.core.lazy import apply_assumptions

        selected = AssumptionSet(
            RelativeTimingAssumption(before=c.before, after=c.after)
            for c in fifo_rt.constraints
        )
        lazy = apply_assumptions(fifo_rt.untimed_graph, selected)
        dont_cares = {
            signal: lazy.local_dont_cares(signal) for signal in fifo_rt.covers
        }
        for signal, cover in fifo_rt.covers.items():
            for state in lazy.reduced.states:
                if state.code in dont_cares[signal]:
                    continue
                assert int(cover.evaluate(state.code)) == lazy.reduced.next_value(
                    state, signal
                )
