"""Unit tests for the STG model, builder, parser and spec library."""

import pytest

from repro.stg import (
    Direction,
    SignalTransition,
    StgBuilder,
    StgError,
    parse_g,
    specs,
    validate_stg,
    write_g,
)
from repro.petrinet.reachability import build_reachability_graph
from repro.stg.model import SignalKind, SignalTransitionGraph
from repro.stg.validation import check_consistency, check_output_persistency


class TestSignalTransition:
    def test_parse_rising_and_falling(self):
        rise = SignalTransition.parse("req+")
        fall = SignalTransition.parse("ack-")
        assert rise.signal == "req" and rise.direction is Direction.RISE
        assert fall.signal == "ack" and fall.is_falling

    def test_parse_with_index(self):
        event = SignalTransition.parse("a+/2")
        assert event.index == 2
        assert str(event) == "a+/2"
        assert event.base_name() == "a+"

    def test_parse_rejects_garbage(self):
        with pytest.raises(StgError):
            SignalTransition.parse("notatransition")

    def test_opposite_direction(self):
        assert Direction.RISE.opposite is Direction.FALL
        assert Direction.FALL.opposite is Direction.RISE


class TestBuilder:
    def test_handshake_structure(self):
        stg = specs.simple_handshake()
        assert set(stg.inputs) == {"req"}
        assert set(stg.outputs) == {"ack"}
        assert len(stg.transition_names) == 4

    def test_duplicate_signal_rejected(self):
        builder = StgBuilder()
        builder.input("a")
        with pytest.raises(StgError):
            builder.input("a")

    def test_undeclared_signal_rejected(self):
        builder = StgBuilder()
        builder.input("a")
        with pytest.raises(StgError):
            builder.arc("a+", "b+")

    def test_silent_transition_reuse_by_key(self):
        builder = StgBuilder()
        builder.inputs("a")
        builder.output("b")
        eps = builder.silent("eps")
        builder.arc("a+", eps)
        builder.arc(eps, "b+")
        stg = builder.build()
        # Only one silent transition should exist.
        assert stg.silent_transitions == ["eps"]

    def test_chain_helper(self):
        builder = StgBuilder()
        builder.input("r")
        builder.output("a")
        builder.chain("r+", "a+", "r-", "a-", close=True, marked_last=True)
        report = validate_stg(builder.build())
        assert report.ok

    def test_initial_values(self):
        builder = StgBuilder()
        builder.input("r", initial=1)
        builder.output("a")
        stg = builder.build()
        assert stg.initial_value("r") == 1
        assert stg.initial_value("a") == 0
        stg.set_initial_value("a", 1)
        assert stg.initial_value("a") == 1

    def test_hide_signal(self):
        stg = specs.fifo_controller()
        stg.hide_signal("lo")
        assert "lo" not in stg.signals
        assert all(
            stg.label_of(name) is None or stg.label_of(name).signal != "lo"
            for name in stg.transition_names
        )


class TestSpecsLibrary:
    @pytest.mark.parametrize("name", sorted(specs.ALL_SPECS))
    def test_all_specs_are_valid(self, name):
        stg = specs.load_spec(name)
        report = validate_stg(stg)
        assert report.ok, f"{name}: {report.summary()}"

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            specs.load_spec("nonexistent")

    def test_fifo_signal_roles(self):
        stg = specs.fifo_controller()
        assert set(stg.inputs) == {"li", "ri"}
        assert set(stg.outputs) == {"lo", "ro"}
        assert stg.silent_transitions  # the epsilon of Figure 3

    def test_celement_structure(self):
        stg = specs.celement()
        assert set(stg.inputs) == {"a", "b"}
        assert stg.outputs == ["c"]

    def test_ring_spec_adds_guarantee(self):
        ring = specs.fifo_ring_environment()
        assert ring.net.has_place("p_ring_guarantee")


class TestValidation:
    def test_inconsistent_stg_detected(self):
        builder = StgBuilder()
        builder.input("a")
        builder.output("b")
        # Two consecutive rising transitions of b: inconsistent.
        builder.arc("a+", "b+", target_key="b+/1")
        builder.arc("b+", "b+", source_key="b+/1", target_key="b+/2")
        builder.arc("b+", "a+", source_key="b+/2", marked=True)
        violations = check_consistency(builder.build())
        assert violations

    def test_consistency_violations_per_state_in_bfs_order(self):
        """One violation per (state, transition) pair that fires against
        its signal's value, in BFS discovery order of the states: here two
        states enable ``b+`` and ``c+`` while both are already high."""
        builder = StgBuilder()
        builder.input("a")
        builder.output("b")
        builder.output("c")
        builder.arc("a+", "b+", target_key="b+/1")
        builder.arc("a+", "c+", target_key="c+/1")
        builder.arc("b+", "b+", source_key="b+/1", target_key="b+/2")
        builder.arc("c+", "c+", source_key="c+/1", target_key="c+/2")
        builder.arc("b+", "a-", source_key="b+/2")
        builder.arc("c+", "a-", source_key="c+/2")
        builder.arc("a-", "a+", marked=True)
        stg = builder.build()
        b_twice = "transition b+ fires while b=1"
        c_twice = "transition c+ fires while c=1"
        assert check_consistency(stg) == [b_twice, c_twice, b_twice, c_twice]
        report = validate_stg(stg)
        assert not report.consistent
        assert report.consistency_violations == check_consistency(stg)

    def test_persistency_violation_detected(self):
        # Output y+ enabled, then disabled by input a- (choice place).
        builder = StgBuilder()
        builder.input("a")
        builder.output("y")
        stg = builder.build()
        stg.add_transition(SignalTransition.parse("a+"), name="a+")
        stg.add_transition(SignalTransition.parse("a-"), name="a-")
        stg.add_transition(SignalTransition.parse("y+"), name="y+")
        start = stg.add_place("start")
        stg.add_arc(start, "a+")
        choice = stg.add_place("choice")
        stg.add_arc("a+", choice)
        stg.add_arc(choice, "y+")
        stg.add_arc(choice, "a-")
        stg.set_initial_marking({"start": 1})
        violations = check_output_persistency(stg)
        assert any("y+" in violation for violation in violations)

    def test_full_report_fields(self):
        report = validate_stg(specs.simple_handshake())
        assert report.ok
        assert report.bounded and report.safe
        assert report.consistent and report.output_persistent
        assert "yes" in report.summary()


def _refiring_persistency(stg):
    """The persistency scan as it was before it read graph edges: every
    (marking, victim, aggressor) triple is re-fired through the net."""
    net = stg.net
    violations, seen_pairs = [], set()
    for marking in build_reachability_graph(net).markings:
        enabled = net.enabled_transitions(marking)
        for victim in enabled:
            victim_label = stg.label_of(victim)
            if victim_label is None:
                continue
            if stg.signal_kind(victim_label.signal) is SignalKind.INPUT:
                continue
            for aggressor in enabled:
                if aggressor == victim:
                    continue
                aggressor_label = stg.label_of(aggressor)
                if (
                    aggressor_label is not None
                    and aggressor_label.signal == victim_label.signal
                ):
                    continue
                successor = net.fire(aggressor, marking)
                if not net.is_enabled(victim, successor):
                    key = (str(victim_label), str(aggressor_label))
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        violations.append(
                            f"{victim_label} disabled by firing "
                            f"{aggressor_label if aggressor_label else aggressor}"
                        )
    return violations


def _choice_stg(victims, aggressor, input_aggressor=False, cycles=1):
    """``victims`` (outputs) and ``aggressor`` compete for one marked place.

    ``aggressor`` is a signal transition text like ``"a-"`` or ``None`` for
    a silent transition.  With ``cycles=2`` the choice sits on a two-token
    ring, so the same violating pair shows up in several markings.
    """
    stg = SignalTransitionGraph("choice")
    for victim in victims:
        stg.declare_output(victim[:-1])
    names = [stg.add_transition(SignalTransition.parse(v), name=v) for v in victims]
    if aggressor is None:
        names.append(stg.add_transition(None, name="eps_hazard"))
    else:
        signal = aggressor[:-1]
        if input_aggressor:
            stg.declare_input(signal, initial=1)
        else:
            stg.declare_output(signal, initial=1)
        names.append(stg.add_transition(SignalTransition.parse(aggressor), name=aggressor))
    choice = stg.add_place("choice")
    for name in names:
        stg.add_arc(choice, name)
    marking = {"choice": 1}
    if cycles == 2:
        stg.declare_input("r")
        stg.add_transition(SignalTransition.parse("r+"), name="r+")
        stg.add_transition(SignalTransition.parse("r-"), name="r-")
        stg.connect("r+", "r-")
        marking[stg.connect("r-", "r+")] = 1
    stg.set_initial_marking(marking)
    return stg


class TestPersistencyReadsEdges:
    """``check_output_persistency`` reads the full graph's edges; it must
    return exactly the list the re-firing scan returns."""

    @pytest.mark.parametrize("name", sorted(specs.ALL_SPECS))
    def test_library_matches_refiring_scan(self, name):
        stg = specs.load_spec(name)
        assert check_output_persistency(stg) == _refiring_persistency(stg)

    def test_rappid_control_matches_refiring_scan(self):
        stg = specs.rappid_control(1, 2)
        assert check_output_persistency(stg) == _refiring_persistency(stg)

    @pytest.mark.parametrize(
        "stg, expected",
        [
            pytest.param(
                _choice_stg(["y+"], "a-", input_aggressor=True),
                ["y+ disabled by firing a-"],
                id="input-takes-choice-place",
            ),
            pytest.param(
                _choice_stg(["y+", "z+"], "w-"),
                [
                    "y+ disabled by firing z+",
                    "y+ disabled by firing w-",
                    "z+ disabled by firing y+",
                    "z+ disabled by firing w-",
                    "w- disabled by firing y+",
                    "w- disabled by firing z+",
                ],
                id="output-disabled-by-output",
            ),
            pytest.param(
                _choice_stg(["y+"], None),
                ["y+ disabled by firing eps_hazard"],
                id="silent-aggressor-named-by-transition",
            ),
            pytest.param(
                _choice_stg(["y+"], None, cycles=2),
                ["y+ disabled by firing eps_hazard"],
                id="pair-reported-once-across-markings",
            ),
        ],
    )
    def test_hand_built_violations(self, stg, expected):
        assert _refiring_persistency(stg) == expected
        assert check_output_persistency(stg) == expected
        assert validate_stg(stg).persistency_violations == expected


class TestParser:
    FIFO_G = """
    .model fifo_example
    .inputs li ri
    .outputs lo ro
    .graph
    li+ lo+
    lo+ li-
    li- lo-
    lo- li+
    lo+ ro+
    ro+ ri+
    ri+ ro-
    ro- ri-
    ri- ro+
    ro+ lo-
    .marking { <lo-,li+> <ri-,ro+> }
    .end
    """

    def test_parse_basic_file(self):
        stg = parse_g(self.FIFO_G)
        assert set(stg.inputs) == {"li", "ri"}
        assert set(stg.outputs) == {"lo", "ro"}
        report = validate_stg(stg)
        assert report.ok

    def test_roundtrip_preserves_behaviour(self):
        original = parse_g(self.FIFO_G)
        text = write_g(original)
        reparsed = parse_g(text)
        from repro.stategraph import build_state_graph

        assert len(build_state_graph(original)) == len(build_state_graph(reparsed))

    def test_explicit_places_and_initial_values(self):
        text = """
        .model toy
        .inputs a
        .outputs b
        .graph
        a+ p1
        p1 b+
        b+ a-
        a- b-
        b- a+
        .marking { <b-,a+> }
        .initial a=0 b=0
        .end
        """
        stg = parse_g(text)
        assert stg.net.has_place("p1")
        assert validate_stg(stg).ok

    def test_malformed_graph_line_rejected(self):
        with pytest.raises(StgError):
            parse_g(".model x\n.inputs a\n.graph\nonlyonetoken\n.end\n")

    def test_marking_with_unknown_place_rejected(self):
        text = ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\n.marking { nowhere }\n.end\n"
        with pytest.raises(StgError):
            parse_g(text)
