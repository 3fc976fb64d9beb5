"""Tests for scripts/lint_contracts.py on injected tmp-file violations.

The lint guards the repo's conventions -- every ``_reference_*`` oracle
is pinned by the differential suite, every reduced exploration path in
the petrinet package is differentially pinned against the full-graph
oracle, engine modules never draw from module-global RNG state, pool
dispatch call sites never hide worker application errors behind broad
exception catches, service handlers reach the engine only through
vetted entry points, gate opcodes are dispatched only by the
kernel's one evaluator and drain, Petri-net exploration loops over the
firing tables only in ``engine/marking.py``'s two cores, the net's
firing rule is called only in ``petrinet/net.py`` (plus the oracles and
the conformance spec index), and engine/RAPPID code holds no
self-calling closures.  Each rule is proven to fire on synthetic
violations and to stay quiet on the real tree (the same invocation
``scripts/check.sh`` runs).
"""

import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import lint_contracts  # noqa: E402

REPO = Path(__file__).resolve().parent.parent


def write(path: Path, body: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


class TestOracleRule:
    def test_untested_oracle_reported_with_location(self, tmp_path):
        src = tmp_path / "src"
        module = write(
            src / "fast.py",
            """\
            def _reference_widget(x):
                return x

            def fast_widget(x):
                return x
            """,
        )
        findings = lint_contracts.run(src, tmp_path / "engine", tmp_path / "t.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "oracle-untested"
        assert "_reference_widget" in finding.message
        assert finding.describe().startswith(f"{module}:1:")

    def test_referenced_oracle_passes(self, tmp_path):
        src = tmp_path / "src"
        write(src / "fast.py", "def _reference_widget(x):\n    return x\n")
        test = write(
            tmp_path / "t.py",
            "from fast import _reference_widget\n",
        )
        assert lint_contracts.run(src, tmp_path / "engine", test) == []

    def test_collect_oracles_sees_nested_defs(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "deep" / "mod.py",
            """\
            class Holder:
                def _reference_method(self):
                    return 1
            """,
        )
        oracles = lint_contracts.collect_oracles(src)
        assert [o.message for o in oracles] == ["_reference_method"]


class TestReductionRule:
    def test_unpinned_reduced_function_reported(self, tmp_path):
        src = tmp_path / "src"
        module = write(
            src / "petrinet" / "reachability.py",
            """\
            def explore(net):
                return net

            def _explore_reduced_counts(codec):
                return codec
            """,
        )
        findings = lint_contracts.run(src, tmp_path / "engine", tmp_path / "t.py")
        assert [f.rule for f in findings] == ["reduction-untested"] * 2
        assert "explore" in findings[0].message
        assert "_reference_build_reachability_graph" in findings[0].message
        assert findings[0].describe().startswith(f"{module}:1:")

    def test_pinned_reduced_function_passes(self, tmp_path):
        src = tmp_path / "src"
        write(src / "petrinet" / "reachability.py", "def explore(net):\n    pass\n")
        test = write(
            tmp_path / "t.py",
            "from reachability import explore\n"
            "from reachability import _reference_build_reachability_graph\n",
        )
        assert lint_contracts.run(src, tmp_path / "engine", test) == []

    def test_reference_without_oracle_still_fires(self, tmp_path):
        """Mentioning the reduced function is not enough: the test must
        also reference the full-graph oracle it is compared against."""
        src = tmp_path / "src"
        write(src / "petrinet" / "core.py", "def _walk_reduced(net):\n    pass\n")
        test = write(tmp_path / "t.py", "from core import _walk_reduced\n")
        findings = lint_contracts.run(src, tmp_path / "engine", test)
        assert [f.rule for f in findings] == ["reduction-untested"]
        assert "_walk_reduced" in findings[0].message

    def test_unreduced_functions_are_ignored(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "petrinet" / "props.py",
            "def max_bound(net):\n    pass\n\ndef explorer(net):\n    pass\n",
        )
        assert lint_contracts.run(src, tmp_path / "engine", tmp_path / "t.py") == []

    def test_property_accessors_are_ignored(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "petrinet" / "graph.py",
            """\
            class Graph:
                @property
                def is_reduced(self):
                    return True
            """,
        )
        assert lint_contracts.run(src, tmp_path / "engine", tmp_path / "t.py") == []


class TestRngRule:
    def test_module_global_draw_reported(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "hot.py",
            """\
            import random

            def jitter():
                return random.random()
            """,
        )
        findings = lint_contracts.check_engine_rng(engine)
        assert len(findings) == 1
        assert findings[0].rule == "unpinned-rng"
        assert findings[0].line == 4
        assert "random.random" in findings[0].message

    def test_from_import_of_draw_reported(self, tmp_path):
        engine = tmp_path / "engine"
        write(engine / "hot.py", "from random import choice, Random\n")
        findings = lint_contracts.check_engine_rng(engine)
        assert len(findings) == 1
        assert "choice" in findings[0].message
        assert "Random" not in findings[0].message.split("import ")[1].split(" ")[0]

    def test_pinned_stream_construction_allowed(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "hot.py",
            """\
            import random

            def streams(seed):
                return random.Random(seed), random.Random(seed + 1)
            """,
        )
        assert lint_contracts.check_engine_rng(engine) == []


class TestGateDispatchRule:
    def test_second_dispatch_copy_reported(self, tmp_path):
        engine = tmp_path / "engine"
        module = write(
            engine / "sweep.py",
            """\
            from repro.engine import events
            from repro.engine.events import OP_CONST, OP_TABLE

            def evaluate(op, row, state, bits):
                if op == OP_TABLE:
                    return (row >> (state * 2 + bits)) & 1
                if op in (OP_CONST, events.OP_WIDE_AND):
                    return row
                return -1
            """,
        )
        findings = lint_contracts.check_gate_dispatch(engine)
        assert [(f.rule, f.line) for f in findings] == [
            ("gate-dispatch-single-owner", 5),
            ("gate-dispatch-single-owner", 7),
        ]
        assert "OP_CONST, OP_WIDE_AND" in findings[1].message
        assert findings[0].describe().startswith(f"{module}:5:")
        assert len(lint_contracts.run(tmp_path, engine, tmp_path / "t.py")) == 2

    def test_private_arity_rows_reported(self, tmp_path):
        engine = tmp_path / "engine"
        write(engine / "loop.py", "def f(op):\n    return op != _OP_TABLE3\n")
        findings = lint_contracts.check_gate_dispatch(engine)
        assert [f.line for f in findings] == [2]

    def test_owners_and_non_comparisons_are_allowed(self, tmp_path):
        engine = tmp_path / "engine"
        dispatch = "def f(op):\n    return op == OP_TABLE\n"
        write(engine / "events.py", dispatch)
        write(engine / "simkernel.py", dispatch)
        write(
            engine / "faultsim.py",
            """\
            from repro.engine.simkernel import eval_gate

            PATCHED = {OP_CONST: "const"}

            def changed(op, base):
                return op != base
            """,
        )
        assert lint_contracts.check_gate_dispatch(engine) == []


class TestPeriodHuntRule:
    def test_second_hunt_reported(self, tmp_path):
        engine = tmp_path / "engine"
        module = write(
            engine / "faultsim.py",
            """\
            def visit(queue, now, seen):
                key = queue.relative_snapshot(now)
                return seen.get(key)
            """,
        )
        findings = lint_contracts.check_period_hunt(engine)
        assert [(f.rule, f.line) for f in findings] == [
            ("period-hunt-single-owner", 2)
        ]
        assert findings[0].describe().startswith(f"{module}:2:")
        assert len(lint_contracts.run(tmp_path, engine, tmp_path / "t.py")) == 1

    def test_bare_call_reported(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "sweep" / "hunt.py",
            "from q import relative_snapshot\nkey = relative_snapshot(0.0)\n",
        )
        findings = lint_contracts.check_period_hunt(engine)
        assert [f.line for f in findings] == [2]

    def test_owner_definition_and_mentions_pass(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "simkernel.py",
            "def visit(queue, now):\n    return queue.relative_snapshot(now)\n",
        )
        write(
            engine / "events.py",
            """\
            class BatchEventQueue:
                def relative_snapshot(self, now):
                    return ()

            HUNT_KEY = BatchEventQueue.relative_snapshot
            """,
        )
        assert lint_contracts.check_period_hunt(engine) == []


class TestSingleEventLoopRule:
    def test_second_event_loop_reported(self, tmp_path):
        engine = tmp_path / "engine"
        module = write(
            engine / "faultsim.py",
            """\
            from heapq import heappop

            def leader(heap_times, buckets):
                while heap_times:
                    batch_time = heappop(heap_times)
                    buckets.pop(batch_time)
            """,
        )
        findings = lint_contracts.check_single_event_loop(engine)
        assert [(f.rule, f.line) for f in findings] == [("single-event-loop", 5)]
        assert findings[0].describe().startswith(f"{module}:5:")
        assert len(lint_contracts.run(tmp_path, engine, tmp_path / "t.py")) == 1

    def test_module_qualified_call_reported(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "sweep" / "loop.py",
            "import heapq\n\ntime = heapq.heappop([1.0])\n",
        )
        findings = lint_contracts.check_single_event_loop(engine)
        assert [f.line for f in findings] == [3]

    def test_owners_and_mentions_pass(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "simkernel.py",
            "from heapq import heappop\n\ndef drain(times):\n    return heappop(times)\n",
        )
        write(
            engine / "events.py",
            """\
            import heapq

            class BatchEventQueue:
                def pop_batch(self):
                    return heapq.heappop(self._times)
            """,
        )
        write(engine / "faultsim.py", "from heapq import heappop\nPOP = heappop\n")
        assert lint_contracts.check_single_event_loop(engine) == []


class TestSingleExplorationLoopRule:
    def test_second_exploration_loop_reported(self, tmp_path):
        src = tmp_path / "src"
        module = write(
            src / "petrinet" / "reachability.py",
            """\
            def check_boundedness(codec, initial):
                keys = [initial]
                head = 0
                while head < len(keys):
                    marking = keys[head]
                    head += 1
                    for t, pre in enumerate(codec.consume):
                        keys.append(marking)
            """,
        )
        findings = lint_contracts.check_single_exploration_loop(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("single-exploration-loop", 1)
        ]
        assert "check_boundedness" in findings[0].message
        assert "consume" in findings[0].message
        assert findings[0].describe().startswith(f"{module}:1:")
        assert len(lint_contracts.run(src, src / "engine", tmp_path / "t.py")) == 1

    def test_hoisted_table_and_nested_loop_reported_once(self, tmp_path):
        """A table read hoisted out of a nested looping closure, or a
        method of a class, is still one finding at the outermost def."""
        src = tmp_path / "src"
        write(
            src / "stategraph" / "graph.py",
            """\
            def build(codec):
                masks = codec.need_mask

                def walk(keys):
                    while keys:
                        keys.pop()
                return walk

            class Explorer:
                def run(self, codec, keys):
                    while keys:
                        keys.pop() & codec.produce_mask[0]
            """,
        )
        findings = lint_contracts.check_single_exploration_loop(src)
        assert [(f.line, f.message.split("()")[0]) for f in findings] == [
            (1, "build"),
            (10, "run"),
        ]

    def test_owner_and_loop_free_table_reads_pass(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "engine" / "marking.py",
            """\
            class NetEncoding:
                def explore_counts(self, initial):
                    keys = [initial]
                    while keys:
                        keys.pop() and self.consume
            """,
        )
        write(
            src / "petrinet" / "reachability.py",
            """\
            class _StubbornRelations:
                def __init__(self, codec):
                    self.pre = [sum(slot for slot, _w in c) for c in codec.consume]
                    self.post = list(codec.produce)

            def _stubborn_subset(relations, enabled):
                stack = list(enabled)
                while stack:
                    stack.pop()
                return enabled
            """,
        )
        assert lint_contracts.check_single_exploration_loop(src) == []


class TestSingleFiringRule:
    def test_refiring_scan_reported(self, tmp_path):
        src = tmp_path / "src"
        module = write(
            src / "stg" / "validation.py",
            """\
            def check_output_persistency(stg, graph):
                net = stg.net
                for marking in graph.markings:
                    for victim in graph.enabled(marking):
                        for aggressor in graph.enabled(marking):
                            successor = net.fire(aggressor, marking)
                            if not net.is_enabled(victim, successor):
                                yield victim
            """,
        )
        findings = lint_contracts.check_single_firing_rule(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("single-firing-rule", 6),
            ("single-firing-rule", 7),
        ]
        assert ".fire()" in findings[0].message
        assert ".is_enabled()" in findings[1].message
        assert findings[0].describe().startswith(f"{module}:6:")
        assert len(lint_contracts.run(src, src / "engine", tmp_path / "t.py")) == 2

    def test_owner_oracles_and_spec_index_pass(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "petrinet" / "net.py",
            """\
            class PetriNet:
                def fire(self, transition, marking):
                    return self.is_enabled(transition, marking)
            """,
        )
        write(
            src / "petrinet" / "reachability.py",
            """\
            def _reference_build_reachability_graph(net, marking):
                def step(t):
                    return net.fire(t, marking)
                return [step(t) for t in net.enabled_transitions(marking)]
            """,
        )
        write(
            src / "verification" / "conformance.py",
            """\
            class _SpecIndex:
                def entries(self, marking):
                    return [self._net.fire(t, marking) for t in self._ts]
            """,
        )
        assert lint_contracts.check_single_firing_rule(src) == []

    def test_spec_index_exemption_is_per_file(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "stg" / "validation.py",
            """\
            class _SpecIndex:
                def entries(self, net, marking):
                    return net.fire("t", marking)
            """,
        )
        findings = lint_contracts.check_single_firing_rule(src)
        assert [(f.rule, f.line) for f in findings] == [("single-firing-rule", 3)]

    def test_enabled_set_and_fire_sequence_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "stg" / "validation.py",
            """\
            def check_output_persistency(stg, graph):
                net = stg.net
                for marking in graph.markings:
                    for aggressor in net.enabled_transitions(marking):
                        successor = net.fire_sequence([aggressor], marking)
                        yield aggressor, successor
            """,
        )
        findings = lint_contracts.check_single_firing_rule(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("single-firing-rule", 4),
            ("single-firing-rule", 5),
        ]
        assert ".enabled_transitions()" in findings[0].message
        assert ".fire_sequence()" in findings[1].message


class TestClosureSelfReferenceRule:
    def test_self_calling_nested_def_reported(self, tmp_path):
        src = tmp_path / "src"
        module = write(
            src / "rappid" / "model.py",
            """\
            def run(lines):
                arrival = {}

                def arrival_of(line):
                    if line not in arrival:
                        arrival[line] = arrival_of(line - 1) if line else 0.0
                    return arrival[line]

                return [arrival_of(line) for line in lines]
            """,
        )
        findings = lint_contracts.check_closure_self_reference([src / "rappid"])
        assert [(f.rule, f.line) for f in findings] == [
            ("closure-self-reference", 4)
        ]
        assert "arrival_of" in findings[0].message
        assert findings[0].describe().startswith(f"{module}:4:")
        assert len(lint_contracts.run(src, tmp_path / "engine", tmp_path / "t.py")) == 1

    def test_engine_root_is_scanned(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "walk.py",
            """\
            class Walker:
                def walk(self, node):
                    def visit(n):
                        return [visit(c) for c in n.children]
                    return visit(node)
            """,
        )
        findings = lint_contracts.run(tmp_path / "src", engine, tmp_path / "t.py")
        assert [(f.rule, f.line) for f in findings] == [("closure-self-reference", 3)]

    def test_module_level_recursion_and_plain_closures_pass(self, tmp_path):
        engine = tmp_path / "engine"
        write(
            engine / "ok.py",
            """\
            def arrival_of(line, arrival):
                if line not in arrival:
                    arrival[line] = arrival_of(line - 1, arrival) if line else 0.0
                return arrival[line]

            class Walker:
                def walk(self, node):
                    return [self.walk(c) for c in node.children]

            def run(lines):
                arrival = {}

                def lookup(line):
                    return arrival_of(line, arrival)

                return [lookup(line) for line in lines]
            """,
        )
        assert lint_contracts.check_closure_self_reference([engine]) == []


class TestDispatchCatchRule:
    def test_broad_catch_around_submit_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "dispatch.py",
            """\
            def fan_out(executor, fn, items):
                try:
                    futures = [executor.submit(fn, item) for item in items]
                except Exception:
                    return None
                return futures
            """,
        )
        findings = lint_contracts.check_dispatch_catches(src)
        assert len(findings) == 1
        assert findings[0].rule == "broad-dispatch-catch"
        assert findings[0].line == 4
        assert "Exception" in findings[0].message

    def test_bare_except_and_runtime_error_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "dispatch.py",
            """\
            def collect(futures):
                try:
                    return [future.result(timeout=60) for future in futures]
                except RuntimeError:
                    return None

            def collect_anything(future):
                try:
                    return future.result()
                except:  # noqa: E722
                    return None
            """,
        )
        findings = lint_contracts.check_dispatch_catches(src)
        assert [f.rule for f in findings] == ["broad-dispatch-catch"] * 2
        assert "RuntimeError" in findings[0].message
        assert "<bare>" in findings[1].message

    def test_broad_tuple_member_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "dispatch.py",
            """\
            def collect(future):
                try:
                    return future.result(timeout=60)
                except (OSError, RuntimeError):
                    return None
            """,
        )
        findings = lint_contracts.check_dispatch_catches(src)
        assert len(findings) == 1
        assert "RuntimeError" in findings[0].message

    def test_infrastructure_set_is_allowed(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "dispatch.py",
            """\
            import pickle
            from concurrent.futures import BrokenExecutor

            INFRA_EXCEPTIONS = (BrokenExecutor, TimeoutError, OSError)

            def collect(future):
                try:
                    return future.result(timeout=60)
                except INFRA_EXCEPTIONS:
                    return None

            def narrow(future):
                try:
                    return future.result(timeout=60)
                except (BrokenExecutor, TimeoutError, OSError, pickle.PicklingError):
                    return None
            """,
        )
        assert lint_contracts.check_dispatch_catches(src) == []

    def test_broad_catch_without_dispatch_is_ignored(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "other.py",
            """\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
        )
        assert lint_contracts.check_dispatch_catches(src) == []


class TestMain:
    def test_exit_status_counts_findings(self, tmp_path, capsys):
        src = tmp_path / "src"
        write(src / "fast.py", "def _reference_a():\n    pass\n")
        write(src / "engine" / "hot.py", "import random\nx = random.randint(0, 1)\n")
        status = lint_contracts.main(
            [
                "--src",
                str(src),
                "--differential-test",
                str(tmp_path / "absent.py"),
            ]
        )
        assert status == 2
        out = capsys.readouterr().out
        assert "oracle-untested" in out and "unpinned-rng" in out

    def test_real_repo_is_clean(self, capsys):
        status = lint_contracts.main(
            [
                "--src",
                str(REPO / "src" / "repro"),
                "--differential-test",
                str(REPO / "tests" / "test_engine_differential.py"),
            ]
        )
        assert status == 0
        assert capsys.readouterr().out == ""


class TestHandlerDispatchRule:
    def test_raw_submit_in_handler_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "service" / "handlers" / "bad.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def run(params, emit):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(sum, [1, 2]).result()
            """,
        )
        findings = lint_contracts.run(
            src, tmp_path / "engine", tmp_path / "t.py"
        )
        rules = {f.rule for f in findings}
        assert "handler-unsupervised-dispatch" in rules
        flagged = [
            f for f in findings if f.rule == "handler-unsupervised-dispatch"
        ]
        # Both the constructor and the .submit call are flagged.
        assert len(flagged) == 2
        assert all(f.path.name == "bad.py" for f in flagged)

    def test_get_pool_in_handler_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "service" / "handlers" / "sneaky.py",
            """\
            from repro.engine import pool

            def run(params, emit):
                executor = pool.get_pool(2)
                return executor
            """,
        )
        findings = lint_contracts.check_handler_dispatch(
            src / "service" / "handlers"
        )
        assert len(findings) == 1
        assert findings[0].rule == "handler-unsupervised-dispatch"
        assert "supervised entry point" in findings[0].message

    def test_handler_without_supervised_entry_reported(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "service" / "handlers" / "sideways.py",
            """\
            def run(params, emit):
                return {"ok": True}
            """,
        )
        findings = lint_contracts.check_handler_dispatch(
            src / "service" / "handlers"
        )
        assert len(findings) == 1
        assert findings[0].line == 1
        assert "references no supervised engine entry point" in findings[0].message

    def test_supervised_handler_passes_and_init_is_skipped(self, tmp_path):
        src = tmp_path / "src"
        write(
            src / "service" / "handlers" / "good.py",
            """\
            from repro.testability import stuck_at_coverage

            def run(params, emit):
                return stuck_at_coverage(None, [], shards=2)
            """,
        )
        write(
            src / "service" / "handlers" / "__init__.py",
            "HANDLERS = {}\n",
        )
        assert (
            lint_contracts.check_handler_dispatch(src / "service" / "handlers")
            == []
        )

    def test_missing_handlers_package_is_quiet(self, tmp_path):
        assert (
            lint_contracts.check_handler_dispatch(tmp_path / "absent") == []
        )

    def test_real_handlers_are_clean(self):
        assert (
            lint_contracts.check_handler_dispatch(
                REPO / "src" / "repro" / "service" / "handlers"
            )
            == []
        )
