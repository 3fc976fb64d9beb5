#!/usr/bin/env python
"""Repository contract lint: differential oracles and pinned RNG streams.

A few conventions keep the fast paths honest, and all of them are easy
to break silently -- a new fast path or reduced exploration lands
without a differential pin, or a convenience ``random.random()`` sneaks
into an engine module and quietly unpins the reference bit-identity
contract.  This lint makes them mechanical:

``oracle-untested``
    Every ``_reference_*`` function under ``src/repro`` is a retained
    slow-path oracle for some engine fast path; each one must be
    referenced from ``tests/test_engine_differential.py`` so the
    differential suite actually pins the fast path against it.

``reduction-untested``
    Every reduced exploration path in ``src/repro/petrinet`` (a function
    named ``explore`` or containing ``_reduced``) prunes interleavings
    on purpose, so nothing short of a differential test notices when it
    prunes one marking too many.  Each such function must be referenced
    from ``tests/test_engine_differential.py`` alongside the full-graph
    oracle ``_reference_build_reachability_graph`` it is pinned against.

``unpinned-rng``
    Engine modules (``src/repro/engine``) may only touch the ``random``
    module to construct ``random.Random`` stream objects -- the pinned
    per-copy streams whose draw order the reference contract fixes.
    Any other draw (``random.random()``, ``random.randint``, a
    ``from random import ...`` of anything but ``Random``) is
    module-global RNG state the sharded sweep cannot reproduce.

``broad-dispatch-catch``
    A ``try`` block that dispatches to the worker pool (an
    ``executor.submit``/``future.result`` call) must not be guarded by a
    bare ``except``, ``except Exception``, ``except BaseException``, or
    ``except RuntimeError``: those swallow *application* errors raised
    inside workers (genuine engine bugs) together with the
    infrastructure failures they meant to absorb -- the exact
    silent-in-process-rerun bug the resilience layer removed.  Dispatch
    sites catch :data:`repro.engine.resilience.INFRA_EXCEPTIONS` or
    route through ``supervised_map``.

``handler-unsupervised-dispatch``
    Service capability handlers (``src/repro/service/handlers``) sit on
    the hot path of every client request, so their engine work must go
    through the supervised entry points built on
    ``resilience.supervised_map`` (``stuck_at_coverage``/
    ``simulate_faults``, ``explore``/``build_reachability_graph``) or an
    in-process entry point that never touches the pool
    (``RappidDecoder``) -- never a raw executor.  A raw
    ``.submit``/``.map``/``get_pool``/``ProcessPoolExecutor`` in a
    handler bypasses retry, respawn, and salvage, turning any worker
    death into a client-visible error; and a handler module that
    references none of those entry points has smuggled its engine
    access in through some unvetted side door.

``gate-dispatch-single-owner``
    Gate evaluation has one owner: ``engine/simkernel.py`` holds the one
    evaluator (``eval_gate``) and the one drain with its arity-specialised
    rows, and ``engine/events.py`` defines and compiles the opcodes.  Any
    other engine module comparing against a gate opcode (``OP_TABLE``,
    ``OP_CONST``, ``OP_CALL``, ``OP_WIDE_*``, ``_OP_TABLEn``) is growing a
    second dispatch copy that the differential suite pins only by
    accident; it must call ``eval_gate`` or run ``drain`` instead.  Static
    analyses outside the engine (``repro.analysis``) read opcodes to
    reason about gates without simulating them and are not scanned.

``period-hunt-single-owner``
    Periodic steady-state extrapolation has one owner:
    ``engine/simkernel.py``'s ``_PeriodHunt``, shared by the simulator
    and the fault engine.  Any other engine module calling
    ``relative_snapshot(`` (the queue's shift-invariant key, the hunt's
    core) is growing a second period hunt whose exactness conditions
    nothing keeps in step with the first; arm the kernel's hunt instead.

``single-event-loop``
    Events are popped in one place: ``engine/simkernel.py``'s ``drain``
    (and the queue that ``engine/events.py`` defines).  Any other engine
    module calling ``heappop`` over event times is growing a second
    per-event loop -- the fault engine's old lockstep leader pass was
    one -- whose delta-cycle semantics the differential suite pins only
    by accident; run ``drain`` with a time limit instead.

``single-exploration-loop``
    Petri-net exploration has one owner: ``engine/marking.py``'s two BFS
    cores (``explore_bits``, ``explore_counts``), which every reachability,
    boundedness, state-graph and consistency exploration drives through
    its ``select``/``relabel``/``discover`` hooks.  Any other function
    that both contains a ``while`` loop and reads a ``NetEncoding``
    firing table (``consume``, ``produce``, ``need_mask``,
    ``consume_mask``, ``produce_mask``) is growing a second hand-copied
    firing rule whose order and error texts nothing keeps in step with
    the cores; pass a hook to a core instead.

``single-firing-rule``
    The Petri-net firing rule has one owner: ``petrinet/net.py``.  Every
    spec-layer question -- persistency, liveness, conformance -- reads the
    graph the exploration core built (``graph.enabled``, ``graph.edges``).
    A ``.fire(``, ``.fire_sequence(``, ``.is_enabled(`` or
    ``.enabled_transitions(`` call anywhere else under ``src/repro``
    re-derives what that graph already holds, a second firing rule whose
    results nothing keeps in step with the edges.  The rule matches the
    method name, not the receiver's type: a graph's own readers of the
    same names are called through their edges (``successors``) instead.
    Exempt are the ``_reference_*`` oracles and
    ``verification/conformance.py``'s ``_SpecIndex``, which resolves spec
    markings on demand when no prebuilt graph is passed in.

``closure-self-reference``
    A nested ``def`` under ``src/repro/engine`` or ``src/repro/rappid``
    that calls itself by name reaches itself through its own closure
    cell: function, cell and function form a reference cycle that only
    a full garbage collection frees, and everything the closure holds
    (a run's per-line dicts, say) stays alive until then.  Recursive
    helpers live at module level and take their state as arguments.

Diagnostics are ``file:line: rule: message`` lines on stdout; the exit
status is the number of findings (0 = clean).  Run by ``scripts/check.sh``
and CI; ``tests/test_lint_contracts.py`` pins every rule on injected
tmp-file violations.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, NamedTuple


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def collect_oracles(src_root: Path) -> List[Finding]:
    """Every ``_reference_*`` def under ``src_root`` as a Finding stub.

    The rule text is filled in by :func:`check_oracle_references`; here
    the tuple just records where each oracle lives.
    """
    oracles: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_reference_"):
                    oracles.append(
                        Finding(path, node.lineno, "oracle", node.name)
                    )
    return oracles


def check_oracle_references(
    src_root: Path, differential_test: Path
) -> List[Finding]:
    """``oracle-untested`` findings: oracles absent from the differential suite."""
    if differential_test.exists():
        test_text = differential_test.read_text()
    else:
        test_text = ""
    findings: List[Finding] = []
    for oracle in collect_oracles(src_root):
        if oracle.message not in test_text:
            findings.append(
                Finding(
                    oracle.path,
                    oracle.line,
                    "oracle-untested",
                    f"{oracle.message} is a retained oracle but is never "
                    f"referenced from {differential_test.name}; add a "
                    "differential test pinning its fast path",
                )
            )
    return findings


# The retained full-BFS oracle every reduced exploration is pinned against.
_REDUCTION_ORACLE = "_reference_build_reachability_graph"


def _is_property(node) -> bool:
    """True for ``@property``-style accessors (not exploration paths)."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in {
            "getter",
            "setter",
            "deleter",
        }:
            return True
    return False


def collect_reduced_functions(petrinet_root: Path) -> List[Finding]:
    """Every ``explore``/``*_reduced*`` def under the petrinet package."""
    reduced: List[Finding] = []
    for path in sorted(petrinet_root.rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (
                    node.name == "explore" or "_reduced" in node.name
                ) and not _is_property(node):
                    reduced.append(
                        Finding(path, node.lineno, "reduced", node.name)
                    )
    return reduced


def check_reduction_references(
    petrinet_root: Path, differential_test: Path
) -> List[Finding]:
    """``reduction-untested`` findings: reduced paths not pinned to the oracle."""
    if differential_test.exists():
        test_text = differential_test.read_text()
    else:
        test_text = ""
    oracle_pinned = _REDUCTION_ORACLE in test_text
    findings: List[Finding] = []
    for function in collect_reduced_functions(petrinet_root):
        if function.message not in test_text or not oracle_pinned:
            findings.append(
                Finding(
                    function.path,
                    function.line,
                    "reduction-untested",
                    f"{function.message} is a reduced exploration path but "
                    f"{differential_test.name} never pins it against "
                    f"{_REDUCTION_ORACLE}; add a differential test comparing "
                    "the reduced deadlock set with the full-graph oracle",
                )
            )
    return findings


def check_engine_rng(engine_root: Path) -> List[Finding]:
    """``unpinned-rng`` findings: module-global RNG use in engine modules."""
    findings: List[Finding] = []
    for path in sorted(engine_root.rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "random"
                and node.attr != "Random"
            ):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "unpinned-rng",
                        f"random.{node.attr} draws from module-global RNG "
                        "state; engine modules must only construct "
                        "random.Random per-copy streams",
                    )
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "unpinned-rng",
                            f"from random import {', '.join(bad)} exposes "
                            "module-global draws; import the module and "
                            "construct random.Random streams instead",
                        )
                    )
    return findings


# Catching any of these (or a bare except) around a dispatch call hides
# worker application errors behind infrastructure recovery.
_BROAD_EXCEPTIONS = {"Exception", "BaseException", "RuntimeError", "<bare>"}
_DISPATCH_METHODS = {"submit", "result"}


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    """Exception names a handler catches (``<bare>`` for ``except:``)."""
    if handler.type is None:
        return ["<bare>"]
    elements = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: List[str] = []
    for element in elements:
        if isinstance(element, ast.Name):
            names.append(element.id)
        elif isinstance(element, ast.Attribute):
            names.append(element.attr)
    return names


def check_dispatch_catches(src_root: Path) -> List[Finding]:
    """``broad-dispatch-catch`` findings: over-wide guards on pool dispatch."""
    findings: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            dispatches = any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _DISPATCH_METHODS
                for statement in node.body
                for call in ast.walk(statement)
            )
            if not dispatches:
                continue
            for handler in node.handlers:
                broad = sorted(
                    set(_handler_names(handler)) & _BROAD_EXCEPTIONS
                )
                if broad:
                    caught = ", ".join(broad)
                    findings.append(
                        Finding(
                            path,
                            handler.lineno,
                            "broad-dispatch-catch",
                            f"except {caught} around a pool dispatch call "
                            "(.submit/.result) swallows worker application "
                            "errors; catch resilience.INFRA_EXCEPTIONS or "
                            "route through supervised_map",
                        )
                    )
    return findings


# The engine entry points whose pool dispatch is already supervised; a
# handler module must reach the engine through (at least) one of these
# or of the in-process entry points below.
_SUPERVISED_ENTRY_POINTS = {
    "supervised_map",
    "stuck_at_coverage",
    "simulate_faults",
    "explore",
    "build_reachability_graph",
}

# Engine entry points that evaluate in-process and never dispatch to the
# pool; reaching the engine through one of these is equally vetted.
_IN_PROCESS_ENTRY_POINTS = {"RappidDecoder"}

# Raw dispatch surfaces a handler must never touch directly.
_RAW_DISPATCH_ATTRS = {
    "submit",
    "map_async",
    "apply_async",
    "imap",
    "imap_unordered",
}
_RAW_DISPATCH_NAMES = {"get_pool", "ProcessPoolExecutor", "ThreadPoolExecutor"}


def check_handler_dispatch(handlers_root: Path) -> List[Finding]:
    """``handler-unsupervised-dispatch``: raw pool use in service handlers."""
    findings: List[Finding] = []
    if not handlers_root.is_dir():
        return findings
    for path in sorted(handlers_root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        text = path.read_text()
        vetted = any(
            entry in text
            for entry in _SUPERVISED_ENTRY_POINTS | _IN_PROCESS_ENTRY_POINTS
        )
        raw_sites: List[int] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RAW_DISPATCH_ATTRS
            ):
                raw_sites.append(node.lineno)
            elif (
                isinstance(func, ast.Name)
                and func.id in _RAW_DISPATCH_NAMES
            ):
                raw_sites.append(node.lineno)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _RAW_DISPATCH_NAMES
            ):
                raw_sites.append(node.lineno)
        for line in raw_sites:
            findings.append(
                Finding(
                    path,
                    line,
                    "handler-unsupervised-dispatch",
                    "capability handler dispatches to the pool directly; "
                    "route engine work through a supervised entry point "
                    "(supervised_map / stuck_at_coverage / explore) so "
                    "retry, respawn, and salvage apply",
                )
            )
        if not vetted and not raw_sites:
            findings.append(
                Finding(
                    path,
                    1,
                    "handler-unsupervised-dispatch",
                    "capability handler references no supervised engine "
                    "entry point (supervised_map / stuck_at_coverage / "
                    "simulate_faults / explore / build_reachability_graph) "
                    "and no in-process one (RappidDecoder); engine access "
                    "must go through one of them",
                )
            )
    return findings


# Gate opcodes: the compiler's (events.py) and the drain's private
# arity-specialised table rows (simkernel.py), their two owners.
_OPCODE = re.compile(r"(OP_TABLE|OP_CONST|OP_CALL|OP_WIDE_\w+|_OP_TABLE\d+)")
_DISPATCH_OWNERS = {"events.py", "simkernel.py"}


def _opcode_names(node: ast.AST) -> List[str]:
    """Gate-opcode names (bare or dotted) anywhere inside ``node``."""
    names = []
    for child in ast.walk(node):
        name = (
            child.id
            if isinstance(child, ast.Name)
            else child.attr if isinstance(child, ast.Attribute) else None
        )
        if name is not None and _OPCODE.fullmatch(name):
            names.append(name)
    return names


def check_gate_dispatch(engine_root: Path) -> List[Finding]:
    """``gate-dispatch-single-owner``: opcode comparisons outside the owners."""
    findings: List[Finding] = []
    for path in sorted(engine_root.rglob("*.py")):
        if path.relative_to(engine_root).as_posix() in _DISPATCH_OWNERS:
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Compare):
                continue
            names = [
                name
                for operand in (node.left, *node.comparators)
                for name in _opcode_names(operand)
            ]
            if names:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "gate-dispatch-single-owner",
                        f"comparison against {', '.join(names)} outside "
                        "engine/events.py and engine/simkernel.py grows a "
                        "second gate dispatch; call simkernel.eval_gate or "
                        "run simkernel.drain instead",
                    )
                )
    return findings


def _owned_calls(
    engine_root: Path, callee: str, owners: set, rule: str, message: str
) -> List[Finding]:
    """Calls to ``callee`` (bare or as an attribute) outside ``owners``."""
    findings: List[Finding] = []
    for path in sorted(engine_root.rglob("*.py")):
        if path.relative_to(engine_root).as_posix() in owners:
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if name == callee:
                findings.append(Finding(path, node.lineno, rule, message))
    return findings


def check_period_hunt(engine_root: Path) -> List[Finding]:
    """``period-hunt-single-owner``: queue snapshots outside simkernel.py."""
    return _owned_calls(
        engine_root,
        "relative_snapshot",
        {"simkernel.py"},
        "period-hunt-single-owner",
        "relative_snapshot() outside engine/simkernel.py grows a second "
        "period hunt; arm simkernel._PeriodHunt instead",
    )


def check_single_event_loop(engine_root: Path) -> List[Finding]:
    """``single-event-loop``: event-time heap pops outside the loop's owners."""
    return _owned_calls(
        engine_root,
        "heappop",
        {"simkernel.py", "events.py"},
        "single-event-loop",
        "heappop() outside engine/simkernel.py and engine/events.py grows a "
        "second per-event loop; run simkernel.drain instead",
    )


# NetEncoding's firing tables, and the one module allowed to loop over them.
_FIRING_TABLES = {"consume", "produce", "need_mask", "consume_mask", "produce_mask"}
_EXPLORATION_OWNER = "engine/marking.py"


def _outermost_defs(node: ast.AST):
    """Module-level functions and methods; nested defs stay inside them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outermost_defs(child)


def check_single_exploration_loop(src_root: Path) -> List[Finding]:
    """``single-exploration-loop``: firing-table loops outside engine/marking.py."""
    findings: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        if path.relative_to(src_root).as_posix() == _EXPLORATION_OWNER:
            continue
        for function in _outermost_defs(_parse(path)):
            nodes = list(ast.walk(function))
            tables = sorted(
                {
                    node.attr
                    for node in nodes
                    if isinstance(node, ast.Attribute)
                    and node.attr in _FIRING_TABLES
                }
            )
            if tables and any(isinstance(node, ast.While) for node in nodes):
                findings.append(
                    Finding(
                        path,
                        function.lineno,
                        "single-exploration-loop",
                        f"{function.name}() loops with while and reads the "
                        f"firing table(s) {', '.join(tables)} outside "
                        f"{_EXPLORATION_OWNER}, a second exploration loop; "
                        "pass a select/relabel/discover hook to "
                        "NetEncoding.explore_bits or explore_counts instead",
                    )
                )
    return findings


# The firing rule's owner, its methods, and the scopes allowed to call them.
_FIRING_RULE_OWNER = "petrinet/net.py"
_FIRING_RULE_CALLS = {"enabled_transitions", "fire", "fire_sequence", "is_enabled"}
_FIRING_RULE_SCOPES = {("verification/conformance.py", "_SpecIndex")}


def _firing_calls(path: Path, node: ast.AST, exempt: set):
    """``single-firing-rule`` findings under ``node``, skipping exempt scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and (child.name.startswith("_reference_") or child.name in exempt):
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in _FIRING_RULE_CALLS
        ):
            yield Finding(
                path,
                child.lineno,
                "single-firing-rule",
                f".{child.func.attr}() outside {_FIRING_RULE_OWNER} grows a "
                "second firing rule; read the explored graph's edges "
                "(graph.enabled, graph.edges) instead",
            )
        yield from _firing_calls(path, child, exempt)


def check_single_firing_rule(src_root: Path) -> List[Finding]:
    """``single-firing-rule``: net firing calls outside petrinet/net.py."""
    findings: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root).as_posix()
        if relative == _FIRING_RULE_OWNER:
            continue
        exempt = {scope for owner, scope in _FIRING_RULE_SCOPES if owner == relative}
        findings.extend(_firing_calls(path, _parse(path), exempt))
    return findings


def _nested_defs(node: ast.AST, inside: bool = False):
    """Every ``def`` nested in another function's body, outermost first."""
    for child in ast.iter_child_nodes(node):
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_def and inside:
            yield child
        yield from _nested_defs(child, inside or is_def)


def check_closure_self_reference(roots: List[Path]) -> List[Finding]:
    """``closure-self-reference``: nested defs that call themselves."""
    findings: List[Finding] = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for inner in _nested_defs(_parse(path)):
                if any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                    for node in ast.walk(inner)
                ):
                    findings.append(
                        Finding(
                            path,
                            inner.lineno,
                            "closure-self-reference",
                            f"nested {inner.name}() calls itself through its "
                            "closure cell, a reference cycle that pins its "
                            "closure until a full collection; make it a "
                            "module-level function",
                        )
                    )
    return findings


def run(src_root: Path, engine_root: Path, differential_test: Path) -> List[Finding]:
    findings = check_oracle_references(src_root, differential_test)
    findings.extend(
        check_reduction_references(src_root / "petrinet", differential_test)
    )
    findings.extend(check_engine_rng(engine_root))
    findings.extend(check_gate_dispatch(engine_root))
    findings.extend(check_period_hunt(engine_root))
    findings.extend(check_single_event_loop(engine_root))
    findings.extend(check_single_exploration_loop(src_root))
    findings.extend(check_single_firing_rule(src_root))
    findings.extend(
        check_closure_self_reference(
            [root for root in (engine_root, src_root / "rappid") if root.is_dir()]
        )
    )
    findings.extend(check_dispatch_catches(src_root))
    findings.extend(
        check_handler_dispatch(src_root / "service" / "handlers")
    )
    return findings


def main(argv: List[str] | None = None) -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=repo / "src" / "repro",
        help="root scanned for _reference_* oracles",
    )
    parser.add_argument(
        "--engine", type=Path, default=None,
        help="engine package checked for unpinned RNG, gate dispatch, "
        "period hunts, event loops and recursive closures "
        "(default: <src>/engine)",
    )
    parser.add_argument(
        "--differential-test", type=Path,
        default=repo / "tests" / "test_engine_differential.py",
        help="test module every oracle must be referenced from",
    )
    args = parser.parse_args(argv)
    engine = args.engine if args.engine is not None else args.src / "engine"
    findings = run(args.src, engine, args.differential_test)
    for finding in findings:
        print(finding.describe())
    if findings:
        print(f"lint_contracts: {len(findings)} finding(s)", file=sys.stderr)
    return len(findings)


if __name__ == "__main__":
    sys.exit(main())
