"""Engine speedup benchmarks: fast paths vs the retained reference code.

Each claim is checked against the naive implementation the engine
replaced (and which remains in-tree for differential testing):

* reachability of the paper's FIFO/ring STGs via the interned marking
  encoding is >= 3x faster than the Marking-object BFS;
* a 10k-cache-line RAPPID workload through the batched runner is >= 3x
  faster than the per-instruction reference loop;
* the opcode simulation kernel's event loop (``drain_tps``) is >= 3x
  the reference simulator on a ring oscillator and on a RAPPID-style
  32-byte-unit netlist; its transitions/sec trajectory -- the raw event
  loop and whole runs, which extrapolate these periodic netlists -- is
  written to ``BENCH_sim.json``.
* the batch fault-simulation engine behind ``simulate_faults`` is >= 6x
  the retained per-fault reference loop on the FIFO corpus (Table 2
  cells plus chained FIFOs) and >= 3x on the jittered rows (where the
  periodic-trajectory extrapolation stands down), verdict-identical
  case by case; its timings, per-case coverage, and per-case speedups
  (order-of-magnitude on the shortcuttable cases, ~2x on the cap-bound
  avalanche case) land in ``BENCH_faultsim.json``, along with a
  pooled-vs-in-process sharded campaign row whose wall-clock assertion
  is gated on multi-CPU hosts.

Timing methodology: the two sides are measured interleaved (reference,
fast, reference, fast, ...) taking each side's best round, so a noisy
neighbour slows both rather than biasing the ratio; the comparison
retries a few times before failing.  Results are additionally asserted
identical, so the benchmark doubles as an end-to-end differential check
at realistic scale.

``REPRO_BENCH_QUICK=1`` (see benchmarks/conftest.py and scripts/check.sh)
shrinks the workloads and skips the timing assertions -- parity is still
checked, making the quick mode a functional smoke test.

The BENCH files land in the gitignored ``.benchmarks/`` directory (the
``bench_dir`` fixture); ``scripts/check.sh --update-baselines`` copies
them over the committed baselines at the repo root.
"""

import gc
import json
import os
import time

from repro.circuit.library import STANDARD_LIBRARY
from repro.circuit.netlist import Netlist, build_ring_oscillator
from repro.circuit.simulator import (
    EventDrivenSimulator,
    _ReferenceEventDrivenSimulator,
)
from repro.engine.simkernel import drain
from repro.petrinet.reachability import (
    _reference_build_reachability_graph,
    build_reachability_graph,
)
from repro.rappid.microarch import RappidDecoder
from repro.rappid.workload import WorkloadGenerator
from repro.stg import specs

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REQUIRED_SPEEDUP = 3.0
ATTEMPTS = 4


def _interleaved_best(reference, fast, rounds):
    """Best wall time of each callable, measured round-robin, GC paused."""
    best_reference = best_fast = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            reference()
            best_reference = min(best_reference, time.perf_counter() - start)
            start = time.perf_counter()
            fast()
            best_fast = min(best_fast, time.perf_counter() - start)
    finally:
        gc.enable()
    return best_reference, best_fast


def _compare_with_retries(reference, fast, rounds, label):
    """Measure with retries; returns (ref_time, fast_time, speedup)."""
    speedup = 0.0
    for _attempt in range(ATTEMPTS):
        reference_time, fast_time = _interleaved_best(reference, fast, rounds)
        speedup = reference_time / fast_time
        if speedup >= REQUIRED_SPEEDUP:
            break
    print(
        f"\n[bench-engine] {label}: reference {reference_time * 1e3:.2f} ms, "
        f"engine {fast_time * 1e3:.2f} ms -> {speedup:.2f}x"
    )
    return reference_time, fast_time, speedup


def test_bench_engine_reachability_speedup():
    """FIFO/ring spec reachability on the interned encoding."""
    nets = [specs.load_spec(name).net for name in ("fifo", "fifo_ring")]
    iterations = 10 if QUICK else 120

    # Parity at full fidelity before timing anything.
    for net in nets:
        fast_graph = build_reachability_graph(net, bound=1)
        reference_graph = _reference_build_reachability_graph(net, bound=1)
        assert fast_graph.markings == reference_graph.markings
        assert fast_graph.edges == reference_graph.edges

    def run_reference():
        for net in nets:
            for _ in range(iterations):
                _reference_build_reachability_graph(net, bound=1)

    def run_fast():
        for net in nets:
            for _ in range(iterations):
                build_reachability_graph(net, bound=1)

    _ref, _fast, speedup = _compare_with_retries(
        run_reference, run_fast, rounds=3 if QUICK else 5, label="fifo/ring reachability"
    )
    if not QUICK:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"reachability engine speedup {speedup:.2f}x below "
            f"{REQUIRED_SPEEDUP}x target"
        )


def test_bench_engine_rappid_speedup():
    """10k-cache-line RAPPID workload through the batched runner."""
    generator = WorkloadGenerator(seed=7)
    instructions = generator.instructions(4_600 if QUICK else 45_600)
    lines = generator.cache_lines(instructions)
    if not QUICK:
        assert len(lines) >= 10_000, "workload must span at least 10k cache lines"
    decoder = RappidDecoder()

    # The reference gets materialised objects, so the ratio compares the
    # two loops rather than the cost of building objects from the views.
    reference_instructions, reference_lines = list(instructions), list(lines)
    fast_result = decoder.run(instructions, lines)
    reference_result = decoder._reference_run(reference_instructions, reference_lines)
    assert fast_result.issue_times_ps == reference_result.issue_times_ps
    assert (
        fast_result.instruction_latencies_ps
        == reference_result.instruction_latencies_ps
    )
    assert fast_result.tag_intervals_ps == reference_result.tag_intervals_ps
    assert fast_result.total_time_ps == reference_result.total_time_ps
    del fast_result, reference_result  # keep the timed heap small

    _ref, _fast, speedup = _compare_with_retries(
        lambda: decoder._reference_run(reference_instructions, reference_lines),
        lambda: decoder.run(instructions, lines),
        rounds=3 if QUICK else 7,
        label=f"rappid {len(lines)} lines / {len(instructions)} instructions",
    )
    if not QUICK:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"rappid engine speedup {speedup:.2f}x below {REQUIRED_SPEEDUP}x target"
        )


def _ring_oscillator_netlist(stages: int = 31) -> Netlist:
    """Odd free-running inverter ring: pure event-loop throughput."""
    return build_ring_oscillator(stages)


def _rappid_byte_unit_netlist(columns: int = 32) -> Netlist:
    """RAPPID-style byte-unit row: a Muller C-element tag ring (one tag
    token circulating, as in the paper's tag unit) with per-column domino
    length-decode load, 32 byte columns wide like the real decode row."""
    netlist = Netlist(f"byte_unit{columns}")
    c2 = STANDARD_LIBRARY.get("C2")
    inv = STANDARD_LIBRARY.get("INV")
    domino = STANDARD_LIBRARY.get("DOMINO_AND2")
    for i in range(columns):
        nxt = (i + 1) % columns
        netlist.add_gate(f"ack{i}", inv, [f"tag{nxt}"], f"a{i}")
        netlist.add_gate(f"c{i}", c2, [f"tag{(i - 1) % columns}", f"a{i}"], f"tag{i}")
        netlist.add_gate(f"dec{i}", domino, [f"tag{i}", f"a{i}"], f"len{i}")
        netlist.add_gate(f"buf{i}", inv, [f"len{i}"], f"steer{i}")
    netlist.set_initial_value("tag0", 1)
    return netlist


def _raw_drain(netlist, duration):
    """One run through ``simkernel.drain`` alone, with no period hunt.

    ``EventDrivenSimulator.run`` extrapolates a free-running netlist's
    periodic steady state; this keeps the event loop's own speed
    visible.  Returns the committed event count.
    """
    simulator = EventDrivenSimulator(netlist)
    kernel = simulator._kernel
    kernel.settle(0.0)
    drain(
        kernel.packed,
        kernel.compiled.gate_call,
        kernel.values,
        kernel.pending,
        kernel.gate_state,
        kernel.queue,
        max_events=4_000_000,
        reacts=bytes(len(kernel.values)),
        limit=duration,
        record=(kernel.col_times, kernel.col_values),
    )
    return kernel.event_count


def _best_time(function, rounds):
    """Best wall time of ``function`` over ``rounds`` calls, GC paused."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_bench_engine_simulator_kernel_speedup(bench_dir):
    """Opcode kernel vs reference simulator; writes ``BENCH_sim.json``.

    Both netlists run free (no environment), so every measured second is
    simulation: gate evaluation, queue churn, transition recording.  The
    ``REQUIRED_SPEEDUP`` gate is on ``drain_tps`` / ``reference_tps``:
    the kernel's event loop alone (``simkernel.drain`` without the
    period hunt) over the same run.  ``kernel_tps`` and ``speedup``
    time whole ``EventDrivenSimulator`` runs, whose period hunt
    extrapolates these periodic netlists' steady state; they are
    recorded, not gated.  The traces are asserted identical before
    timing, so this doubles as a differential check at benchmark scale.
    """
    from repro.engine.pool import worker_count

    duration = 15_000.0 if QUICK else 150_000.0
    cases = {
        "ring_oscillator": _ring_oscillator_netlist(),
        "rappid_byte_unit": _rappid_byte_unit_netlist(),
    }
    summary = {"quick": QUICK, "cpu_count": worker_count(), "cases": {}}
    failures = []
    for label, netlist in cases.items():
        def run(simulator_class):
            simulator = simulator_class(netlist)
            return simulator.run(duration_ps=duration, max_events=4_000_000)

        fast_trace = run(EventDrivenSimulator)
        reference_trace = run(_ReferenceEventDrivenSimulator)
        assert {
            net: waveform.changes for net, waveform in fast_trace.waveforms.items()
        } == {
            net: waveform.changes
            for net, waveform in reference_trace.waveforms.items()
        }
        assert fast_trace.event_count == reference_trace.event_count
        assert _raw_drain(netlist, duration) == reference_trace.event_count
        transitions = fast_trace.total_transitions()
        del fast_trace, reference_trace

        # The gate times the event loop alone: whole runs extrapolate
        # these periodic netlists, which would pass any loop speed.
        reference_time, drain_time, drain_speedup = _compare_with_retries(
            lambda: run(_ReferenceEventDrivenSimulator),
            lambda: _raw_drain(netlist, duration),
            rounds=2 if QUICK else 5,
            label=f"simkernel {label} drain",
        )
        fast_time = _best_time(lambda: run(EventDrivenSimulator), 2 if QUICK else 5)
        summary["cases"][label] = {
            "transitions": transitions,
            "reference_tps": round(transitions / reference_time),
            "kernel_tps": round(transitions / fast_time),
            "drain_tps": round(transitions / drain_time),
            "speedup": round(reference_time / fast_time, 2),
        }
        if drain_speedup < REQUIRED_SPEEDUP:
            failures.append((label, drain_speedup))

    out_path = bench_dir / "BENCH_sim.json"
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not QUICK:
        assert not failures, (
            f"simulation kernel drain below {REQUIRED_SPEEDUP}x on: "
            + ", ".join(f"{label} ({speedup:.2f}x)" for label, speedup in failures)
        )


# Corpus-aggregate floor for the lockstep sweep.  ~7.1x measured
# (CPU-time, interleaved) on the single-CPU reference host; the assert
# sits below that to absorb shared-host wall-clock noise.  The aggregate
# is dominated by bm_cell, whose two avalanche copies drain ~450k
# aperiodic events each straight into the event cap -- the reference
# runs the same compiled kernel there, capping that case near 2x no
# matter how the sweep is organised.  Cases the vectorised sweep can
# actually shortcut (chains, SI cells) measure 8-23x individually; the
# per-case ratios land in BENCH_faultsim.json.
FAULTSIM_REQUIRED_SPEEDUP = 6.0
# Jittered campaigns cannot use the periodic-trajectory extrapolation
# (every copy drains in full), so their floor sits below the jitter-free
# corpus target; 4.2x measured on the single-CPU reference host.
FAULTSIM_JITTERED_REQUIRED_SPEEDUP = 3.0


def _fault_campaign_corpus(fifo_rt, fifo_si, fifo_bm):
    """The FIFO fault-simulation corpus: Table 2 cells plus chained FIFOs.

    Chains are the paper's Figure 6 structure built at netlist level
    (``chain_handshake_cells``), which scales fault sites without
    re-running synthesis.  Quick mode keeps one cell and one short chain.
    """
    from repro.circuit.analysis import (
        chain_environment_rules as chain_rules,
        fifo_environment_rules,
    )
    from repro.circuit.netlist import chain_handshake_cells

    cell_rules = fifo_environment_rules()
    cell_stimuli = [("li", 1, 50.0)]
    rt = fifo_rt.netlist
    si = fifo_si.netlist
    if QUICK:
        return {
            "rt_cell": (rt, cell_rules, cell_stimuli, 15_000.0),
            "rt_chain4": (
                chain_handshake_cells(rt, 4),
                chain_rules(4),
                [("s0_li", 1, 50.0)],
                15_000.0,
            ),
        }
    bm = fifo_bm.netlist
    corpus = {
        "rt_cell": (rt, cell_rules, cell_stimuli, 30_000.0),
        "si_cell": (si, cell_rules, cell_stimuli, 30_000.0),
        "bm_cell": (bm, cell_rules, cell_stimuli, 30_000.0),
    }
    for label, cell in (("rt", rt), ("si", si)):
        for stages in (8, 16):
            corpus[f"{label}_chain{stages}"] = (
                chain_handshake_cells(cell, stages),
                chain_rules(stages),
                [("s0_li", 1, 50.0)],
                30_000.0,
            )
    return corpus


# Jitter knobs of the realistic (jittered) campaign rows: 5% gate-delay
# spread, 25% environment-response spread -- the same magnitudes the
# simulator differential suite exercises.
FAULTSIM_JITTER = {"delay_jitter": 0.05, "environment_jitter": 0.25}


def _jittered_campaign_corpus(fifo_rt, fifo_si):
    """Jittered subset of the FIFO corpus (cells plus one chain).

    Jittered copies drain in full (no periodic extrapolation), so the
    subset is kept smaller than the jitter-free corpus; quick mode keeps
    a single cell.
    """
    from repro.circuit.analysis import (
        chain_environment_rules as chain_rules,
        fifo_environment_rules,
    )
    from repro.circuit.netlist import chain_handshake_cells

    cell_rules = fifo_environment_rules()
    cell_stimuli = [("li", 1, 50.0)]
    rt = fifo_rt.netlist
    if QUICK:
        return {"rt_cell_jittered": (rt, cell_rules, cell_stimuli, 15_000.0)}
    return {
        "rt_cell_jittered": (rt, cell_rules, cell_stimuli, 30_000.0),
        "si_cell_jittered": (fifo_si.netlist, cell_rules, cell_stimuli, 30_000.0),
        "rt_chain8_jittered": (
            chain_handshake_cells(rt, 8),
            chain_rules(8),
            [("s0_li", 1, 50.0)],
            30_000.0,
        ),
    }


def test_bench_engine_faultsim_campaign(fifo_rt, fifo_si, fifo_bm, bench_dir):
    """Batch fault engine vs the per-fault reference on the FIFO corpus.

    Verdicts (detected/undetected, reason strings) are asserted identical
    case by case before any timing, so this doubles as a differential
    check at campaign scale; the wall-clock target is
    ``FAULTSIM_REQUIRED_SPEEDUP`` on the corpus total and
    ``FAULTSIM_JITTERED_REQUIRED_SPEEDUP`` on the jittered rows (which
    cannot use the periodic-trajectory extrapolation).  Writes
    ``BENCH_faultsim.json`` (per-case fault counts, coverage, timings,
    the jittered-campaign row, and the pool decision of the batch run)
    next to the other BENCH files; quick mode shrinks the corpus and
    skips the timing assertions but still writes the summary, marked
    ``"quick": true``.
    """
    from repro.engine import pool as engine_pool
    from repro.engine.pool import worker_count
    from repro.testability.simulation import (
        _reference_simulate_faults,
        campaign_signature,
        simulate_faults,
    )

    corpus = _fault_campaign_corpus(fifo_rt, fifo_si, fifo_bm)

    # Parity at full fidelity before timing anything; the per-case batch
    # results (and the pool decision of each batch run) feed the summary
    # below -- campaigns are deterministic, so no extra pass is needed.
    case_results = {}
    decision = {}
    for label, (netlist, rules, stimuli, duration) in corpus.items():
        batch = simulate_faults(netlist, rules, stimuli, duration_ps=duration)
        decision = dict(engine_pool.LAST_DECISION)
        reference = _reference_simulate_faults(
            netlist, rules, stimuli, duration_ps=duration
        )
        assert campaign_signature(batch) == campaign_signature(reference), label
        case_results[label] = batch

    # Per-case best times, captured inside the same interleaved passes
    # the corpus ratio is measured over (no extra timing runs): the
    # corpus aggregate hides that cap-bound cases (bm_cell's avalanche
    # copies drain ~450k events through the same compiled kernel on
    # both sides) sit near 2x while the cases the vectorised sweep can
    # shortcut reach an order of magnitude.
    case_reference_s: dict = {}
    case_batch_s: dict = {}

    def _timed(into, label, runner):
        start = time.perf_counter()
        runner()
        elapsed = time.perf_counter() - start
        into[label] = min(elapsed, into.get(label, elapsed))

    def run_reference():
        for label, (netlist, rules, stimuli, duration) in corpus.items():
            _timed(
                case_reference_s,
                label,
                lambda: _reference_simulate_faults(
                    netlist, rules, stimuli, duration_ps=duration
                ),
            )

    def run_batch():
        for label, (netlist, rules, stimuli, duration) in corpus.items():
            _timed(
                case_batch_s,
                label,
                lambda: simulate_faults(netlist, rules, stimuli, duration_ps=duration),
            )

    attempts = 1 if QUICK else 3
    speedup = 0.0
    for _attempt in range(attempts):
        reference_time, batch_time = _interleaved_best(
            run_reference, run_batch, rounds=1 if QUICK else 2
        )
        speedup = reference_time / batch_time
        if speedup >= FAULTSIM_REQUIRED_SPEEDUP:
            break

    # Jittered rows: parity first (batch engine runs them now instead of
    # delegating to the reference loop), then the wall-clock comparison.
    jittered_corpus = _jittered_campaign_corpus(fifo_rt, fifo_si)
    jittered_cases = {}
    for label, (netlist, rules, stimuli, duration) in jittered_corpus.items():
        batch = simulate_faults(
            netlist, rules, stimuli, duration_ps=duration, **FAULTSIM_JITTER
        )
        reference = _reference_simulate_faults(
            netlist, rules, stimuli, duration_ps=duration, **FAULTSIM_JITTER
        )
        assert campaign_signature(batch) == campaign_signature(reference), label
        detected = sum(1 for result in batch if result.detected)
        jittered_cases[label] = {
            "faults": len(batch),
            "detected": detected,
            "coverage_percent": round(100.0 * detected / max(len(batch), 1), 1),
        }

    def run_jittered_reference():
        for netlist, rules, stimuli, duration in jittered_corpus.values():
            _reference_simulate_faults(
                netlist, rules, stimuli, duration_ps=duration, **FAULTSIM_JITTER
            )

    def run_jittered_batch():
        for netlist, rules, stimuli, duration in jittered_corpus.values():
            simulate_faults(
                netlist, rules, stimuli, duration_ps=duration, **FAULTSIM_JITTER
            )

    jittered_speedup = 0.0
    for _attempt in range(attempts):
        jittered_reference_time, jittered_batch_time = _interleaved_best(
            run_jittered_reference, run_jittered_batch, rounds=1 if QUICK else 2
        )
        jittered_speedup = jittered_reference_time / jittered_batch_time
        if jittered_speedup >= FAULTSIM_JITTERED_REQUIRED_SPEEDUP:
            break

    summary = {
        "quick": QUICK,
        "cpu_count": worker_count(),
        "reference_s": round(reference_time, 3),
        "batch_s": round(batch_time, 3),
        "speedup": round(speedup, 2),
        "pool_decision": {
            "use_pool": bool(decision.get("use_pool")),
            "reason": decision.get("reason"),
        },
        "jittered": {
            "delay_jitter": FAULTSIM_JITTER["delay_jitter"],
            "environment_jitter": FAULTSIM_JITTER["environment_jitter"],
            "reference_s": round(jittered_reference_time, 3),
            "batch_s": round(jittered_batch_time, 3),
            "speedup": round(jittered_speedup, 2),
            "cases": jittered_cases,
        },
        "cases": {},
    }
    total_faults = 0
    for label, results in case_results.items():
        netlist = corpus[label][0]
        detected = sum(1 for result in results if result.detected)
        total_faults += len(results)
        case = {
            "gates": netlist.gate_count(),
            "faults": len(results),
            "detected": detected,
            "coverage_percent": round(100.0 * detected / max(len(results), 1), 1),
        }
        if label in case_reference_s and label in case_batch_s:
            case["reference_s"] = round(case_reference_s[label], 3)
            case["batch_s"] = round(case_batch_s[label], 3)
            case["speedup"] = round(
                case_reference_s[label] / max(case_batch_s[label], 1e-9), 2
            )
        summary["cases"][label] = case
    summary["faults"] = total_faults
    print(
        f"\n[bench-engine] faultsim corpus ({total_faults} faults): reference "
        f"{reference_time * 1e3:.0f} ms, batch {batch_time * 1e3:.0f} ms "
        f"-> {speedup:.2f}x"
    )

    out_path = bench_dir / "BENCH_faultsim.json"
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"[bench-engine] jittered faultsim: reference "
        f"{jittered_reference_time * 1e3:.0f} ms, batch "
        f"{jittered_batch_time * 1e3:.0f} ms -> {jittered_speedup:.2f}x"
    )

    if not QUICK:
        assert speedup >= FAULTSIM_REQUIRED_SPEEDUP, (
            f"batch fault simulation speedup {speedup:.2f}x below "
            f"{FAULTSIM_REQUIRED_SPEEDUP}x target on the FIFO corpus"
        )
        assert jittered_speedup >= FAULTSIM_JITTERED_REQUIRED_SPEEDUP, (
            f"jittered batch fault simulation speedup {jittered_speedup:.2f}x "
            f"below {FAULTSIM_JITTERED_REQUIRED_SPEEDUP}x target"
        )


def test_bench_engine_faultsim_sharded_wallclock(fifo_rt, bench_dir):
    """Sharded fault campaigns: bit-identity always, wall-clock gated.

    Splits a chained-FIFO campaign over the persistent pool (forced, so
    the pooled path runs even where auto mode would stay in-process) and
    compares against the in-process sweep.  The wall-clock assertion --
    the pooled campaign must beat the in-process one -- applies only in
    full mode on multi-CPU hosts: worker processes cannot beat a single
    loop on one core, which is exactly why the ROADMAP called the
    multi-CPU win unmeasured.  The timings and shard count are appended
    to ``BENCH_faultsim.json`` under ``"sharded"``.
    """
    from repro.circuit.analysis import chain_environment_rules as chain_rules
    from repro.circuit.netlist import chain_handshake_cells
    from repro.engine import pool as engine_pool
    from repro.engine.pool import worker_count
    from repro.testability.simulation import campaign_signature, simulate_faults

    cpus = worker_count()
    stages = 4 if QUICK else 16
    netlist = chain_handshake_cells(fifo_rt.netlist, stages)
    rules = chain_rules(stages)
    stimuli = [("s0_li", 1, 50.0)]
    duration = 15_000.0 if QUICK else 30_000.0
    shards = max(2, min(8, cpus))

    def run_pooled():
        return simulate_faults(
            netlist, rules, stimuli, duration_ps=duration,
            shards=shards, use_processes=True,
        )

    def run_local():
        return simulate_faults(
            netlist, rules, stimuli, duration_ps=duration, use_processes=False,
        )

    pooled = run_pooled()
    decision = dict(engine_pool.LAST_DECISION)
    assert campaign_signature(pooled) == campaign_signature(run_local())

    speedup = 0.0
    # Retrying only helps where a pooled win is possible at all; one
    # core cannot beat the in-process sweep, so single-CPU hosts record
    # a single measurement.
    attempts = 1 if QUICK or cpus <= 1 else ATTEMPTS
    for _attempt in range(attempts):
        local_time, pooled_time = _interleaved_best(
            run_local, run_pooled, rounds=1 if QUICK else 2
        )
        speedup = local_time / pooled_time
        if speedup > 1.0:
            break
    print(
        f"\n[bench-engine] sharded faultsim ({stages}-stage chain, "
        f"{shards} shards): in-process {local_time * 1e3:.0f} ms, pooled "
        f"{pooled_time * 1e3:.0f} ms -> {speedup:.2f}x "
        f"[{decision.get('reason')}]"
    )

    out_path = bench_dir / "BENCH_faultsim.json"
    summary = {}
    if os.path.exists(out_path):
        with open(out_path) as handle:
            summary = json.load(handle)
    summary["sharded"] = {
        "stages": stages,
        "shards": shards,
        "cpu_count": cpus,
        "in_process_s": round(local_time, 3),
        "pooled_s": round(pooled_time, 3),
        "speedup": round(speedup, 3),
    }
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not QUICK and cpus > 1:
        assert speedup > 1.0, (
            f"pooled fault campaign should beat in-process on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )


# Static collapsing must remove at least a quarter of the simulated
# faults on the buffered Table 2 + chain corpus (measured: ~29% with
# six-BUF inter-stage wiring), which is a >=1.3x reduction in simulated
# fault workload.  The *wall* ratio is recorded informationally and not
# gated: the vectorised sweep makes the statically-removed copies
# (freeze faults that deadlock immediately) nearly free, so wall time
# moves far less than the workload does (see docs/analysis.md).
COLLAPSE_REQUIRED_RATIO = 0.25
COLLAPSE_REQUIRED_FAULT_SPEEDUP = 1.3


def test_bench_engine_faultsim_collapsed(fifo_rt, fifo_si, fifo_bm, bench_dir):
    """Static fault collapsing on the buffered corpus; appends to the summary.

    Builds the Table 2 cells plus chained FIFOs with driven inter-stage
    wiring (``wire_buffers=6`` -- the Figure 6 interconnect that classic
    collapsing folds away), runs every campaign with collapsing off and
    on, and asserts the expanded verdicts bit-identical before recording
    anything.  Appends two entries to ``BENCH_faultsim.json``:

    * ``"collapsed"`` -- fault counts before/after collapsing, the
      static-reduction ratio (gated at ``COLLAPSE_REQUIRED_RATIO`` in
      full mode), the simulated-fault workload speedup (gated at
      ``COLLAPSE_REQUIRED_FAULT_SPEEDUP``), and the informational wall
      times of both sweeps.
    * ``"compile_cache"`` -- pass-manager hit/miss counts for a repeat
      campaign on an unmutated netlist, which must construct zero new
      ``CompiledNetlist`` objects (every analysis hits).
    """
    import repro.analysis as analysis
    from repro.circuit.analysis import (
        chain_environment_rules as chain_rules,
        fifo_environment_rules,
    )
    from repro.circuit.netlist import chain_handshake_cells
    from repro.engine.faultsim import FaultSimEngine
    from repro.testability.faults import enumerate_faults

    wire_buffers = 6
    cell_rules = fifo_environment_rules()
    cell_stimuli = [("li", 1, 50.0)]
    rt = fifo_rt.netlist
    si = fifo_si.netlist
    if QUICK:
        corpus = {
            "rt_cell": (rt, cell_rules, cell_stimuli, 15_000.0),
            "rt_chain4_buf": (
                chain_handshake_cells(rt, 4, wire_buffers=wire_buffers),
                chain_rules(4),
                [("s0_li", 1, 50.0)],
                15_000.0,
            ),
        }
    else:
        bm = fifo_bm.netlist
        corpus = {
            "rt_cell": (rt, cell_rules, cell_stimuli, 30_000.0),
            "si_cell": (si, cell_rules, cell_stimuli, 30_000.0),
            "bm_cell": (bm, cell_rules, cell_stimuli, 30_000.0),
        }
        for label, cell in (("rt", rt), ("si", si)):
            for stages in (8, 16):
                corpus[f"{label}_chain{stages}_buf"] = (
                    chain_handshake_cells(
                        cell, stages, wire_buffers=wire_buffers
                    ),
                    chain_rules(stages),
                    [("s0_li", 1, 50.0)],
                    30_000.0,
                )

    totals = {"faults": 0, "simulated": 0, "static": 0, "fallback": 0}
    cases = {}
    uncollapsed_s = 0.0
    collapsed_s = 0.0
    last_case = None
    for label, (netlist, rules, stimuli, duration) in corpus.items():
        faults = enumerate_faults(netlist)
        start = time.perf_counter()
        with FaultSimEngine(
            netlist, rules, stimuli, duration_ps=duration, collapse=False
        ) as engine:
            uncollapsed = engine.run(faults)
        uncollapsed_s += time.perf_counter() - start
        start = time.perf_counter()
        with FaultSimEngine(
            netlist, rules, stimuli, duration_ps=duration
        ) as engine:
            collapsed = engine.run(faults)
            stats = engine.last_collapse
        collapsed_s += time.perf_counter() - start
        # Bit-identical expansion is the admission ticket: verdicts and
        # reason strings must match the uncollapsed sweep exactly.
        assert collapsed == uncollapsed, label
        assert stats is not None and stats["faults"] == len(faults), label
        for key in totals:
            totals[key] += stats[key]
        cases[label] = {
            "faults": stats["faults"],
            "simulated": stats["simulated"],
            "static": stats["static"],
            "fallback": stats["fallback"],
            "ratio": round(1.0 - stats["simulated"] / stats["faults"], 3),
        }
        last_case = (netlist, rules, stimuli, duration, faults)

    collapse_ratio = 1.0 - totals["simulated"] / totals["faults"]
    fault_speedup = totals["faults"] / max(totals["simulated"], 1)
    wall_speedup = uncollapsed_s / max(collapsed_s, 1e-9)

    # Compile-cache hit rate: repeat the last campaign on the unmutated
    # netlist and count manager traffic -- everything must hit (the
    # repeat constructs no CompiledNetlist and replays no golden run).
    manager = analysis.default_manager()
    before = manager.stats()
    netlist, rules, stimuli, duration, faults = last_case
    with FaultSimEngine(
        netlist, rules, stimuli, duration_ps=duration
    ) as engine:
        engine.run(faults)
    after = manager.stats()
    repeat_hits = after["hits"] - before["hits"]
    repeat_misses = after["misses"] - before["misses"]
    assert repeat_misses == 0, (
        f"repeat campaign recomputed {repeat_misses} analyses; the "
        "compile cache should have answered every one"
    )
    assert repeat_hits > 0

    print(
        f"\n[bench-engine] collapsed faultsim ({totals['faults']} faults -> "
        f"{totals['simulated']} simulated, {collapse_ratio * 100:.1f}% removed, "
        f"{fault_speedup:.2f}x workload): uncollapsed {uncollapsed_s * 1e3:.0f} ms, "
        f"collapsed {collapsed_s * 1e3:.0f} ms -> {wall_speedup:.2f}x wall"
    )
    print(
        f"[bench-engine] compile cache on repeat campaign: {repeat_hits} hits, "
        f"{repeat_misses} misses"
    )

    out_path = bench_dir / "BENCH_faultsim.json"
    summary = {}
    if os.path.exists(out_path):
        with open(out_path) as handle:
            summary = json.load(handle)
    summary["collapsed"] = {
        "wire_buffers": wire_buffers,
        "faults": totals["faults"],
        "simulated": totals["simulated"],
        "static": totals["static"],
        "fallback": totals["fallback"],
        "collapse_ratio": round(collapse_ratio, 3),
        "fault_speedup": round(fault_speedup, 2),
        "uncollapsed_s": round(uncollapsed_s, 3),
        "collapsed_s": round(collapsed_s, 3),
        "wall_speedup": round(wall_speedup, 2),
        "cases": cases,
    }
    summary["compile_cache"] = {
        "repeat_hits": repeat_hits,
        "repeat_misses": repeat_misses,
        "hit_rate": round(
            repeat_hits / max(repeat_hits + repeat_misses, 1), 3
        ),
    }
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not QUICK:
        assert collapse_ratio >= COLLAPSE_REQUIRED_RATIO, (
            f"static collapsing removed only {collapse_ratio * 100:.1f}% of "
            f"the corpus faults (target {COLLAPSE_REQUIRED_RATIO * 100:.0f}%)"
        )
        assert fault_speedup >= COLLAPSE_REQUIRED_FAULT_SPEEDUP, (
            f"simulated-fault workload speedup {fault_speedup:.2f}x below "
            f"{COLLAPSE_REQUIRED_FAULT_SPEEDUP}x"
        )


def test_bench_engine_rappid_throughput_summary():
    """Sanity: the batched runner reproduces the paper-scale throughput."""
    generator = WorkloadGenerator(seed=11)
    instructions, lines = generator.workload(2_000 if QUICK else 20_000)
    result = RappidDecoder().run(instructions, lines)
    summary = result.summary()
    print(f"\n[bench-engine] rappid summary: {summary}")
    assert summary["throughput_per_ns"] > 0
    assert result.tag_rate_ghz > result.steering_rate_ghz


# Supervised dispatch may not tax the healthy path: the per-future
# deadline/bookkeeping wrapper must stay within this percentage of raw
# submit/result dispatch over the same fault chunks.
RESILIENCE_MAX_OVERHEAD_PERCENT = 2.0


def test_bench_engine_faultsim_resilience(fifo_rt, bench_dir):
    """Resilient dispatch: healthy-path overhead + salvage under chaos.

    Two rows of evidence for the supervision layer, appended to
    ``BENCH_faultsim.json`` under ``"resilience"``:

    * **Healthy overhead** -- the same fault chunks dispatched through
      ``resilience.supervised_map`` versus a raw submit/result loop on
      the same warm pool; full mode gates the difference at
      ``RESILIENCE_MAX_OVERHEAD_PERCENT``.
    * **Salvage under injection** -- a campaign with one seeded worker
      kill must finish bit-identical to the in-process sweep, and the
      PoolHealth record (respawns, retries, salvaged chunks) is
      persisted next to the timings.
    """
    from repro.circuit.analysis import fifo_environment_rules
    from repro.engine import chaos, resilience
    from repro.engine import pool as engine_pool
    from repro.engine.faultsim import (
        _CHUNKS_PER_WORKER,
        FaultSimEngine,
        _chunk_bounds,
        _run_fault_shard,
    )
    from repro.testability.simulation import campaign_signature, simulate_faults

    rules = fifo_environment_rules()
    stimuli = [("li", 1, 50.0)]
    duration = 10_000.0 if QUICK else 30_000.0
    shard_count = 4

    engine_pool.shutdown()
    engine = FaultSimEngine(fifo_rt.netlist, rules, stimuli, duration_ps=duration)
    try:
        compiled = engine.compiled
        slot_faults = [
            (slot, value)
            for _net, slot in sorted(compiled.net_index.items())
            for value in (0, 1)
        ]
        # The engine's own chunking (FaultSimEngine._sweep_verdicts).
        chunks = [
            [(index, *slot_faults[index]) for index in range(start, end)]
            for start, end in _chunk_bounds(
                slot_faults, shard_count * _CHUNKS_PER_WORKER
            )
        ]
        campaign = engine._campaign()
        items = [(campaign, chunk) for chunk in chunks]
        executor = engine_pool.get_pool()

        def run_raw():
            futures = [
                executor.submit(_run_fault_shard, campaign, chunk)
                for chunk in chunks
            ]
            return [future.result(timeout=600) for future in futures]

        def run_supervised():
            return resilience.supervised_map(
                executor, _run_fault_shard, items, label="bench-resilience"
            )

        # Identical chunk verdicts before timing anything.
        assert run_supervised() == run_raw()

        overhead_percent = float("inf")
        attempts = 1 if QUICK else ATTEMPTS
        for _attempt in range(attempts):
            raw_time, supervised_time = _interleaved_best(
                run_raw, run_supervised, rounds=1 if QUICK else 3
            )
            overhead_percent = (supervised_time - raw_time) / raw_time * 100.0
            if overhead_percent < RESILIENCE_MAX_OVERHEAD_PERCENT:
                break
        print(
            f"\n[bench-engine] supervised dispatch ({len(chunks)} chunks, "
            f"{len(slot_faults)} faults): raw {raw_time * 1e3:.1f} ms, "
            f"supervised {supervised_time * 1e3:.1f} ms -> "
            f"{overhead_percent:+.2f}% overhead"
        )
    finally:
        engine.close()

    # Salvage under one injected worker kill: bit-identity plus the
    # recovery story in the PoolHealth record.
    baseline = simulate_faults(
        fifo_rt.netlist, rules, stimuli, duration_ps=duration,
        use_processes=False,
    )
    with chaos.active(chaos.ChaosPlan(seed=7, worker_kill=1)):
        disturbed = simulate_faults(
            fifo_rt.netlist, rules, stimuli, duration_ps=duration,
            shards=shard_count, use_processes=True,
        )
    identical = campaign_signature(disturbed) == campaign_signature(baseline)
    health = dict(resilience.LAST_HEALTH)
    health.pop("errors", None)
    print(
        f"[bench-engine] chaos salvage (worker-kill): identical={identical}, "
        f"respawns={health.get('respawns')}, retries={health.get('retries')}, "
        f"salvaged={health.get('salvaged')}"
    )
    assert identical, "recovered campaign diverged from the baseline sweep"
    assert health.get("outcome") == "ok"
    engine_pool.shutdown()

    out_path = bench_dir / "BENCH_faultsim.json"
    summary = {}
    if os.path.exists(out_path):
        with open(out_path) as handle:
            summary = json.load(handle)
    summary["resilience"] = {
        "quick": QUICK,
        "chunks": len(chunks),
        "faults": len(slot_faults),
        "raw_s": round(raw_time, 4),
        "supervised_s": round(supervised_time, 4),
        "overhead_percent": round(overhead_percent, 2),
        "chaos_identical": identical,
        "chaos_health": health,
    }
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not QUICK:
        assert overhead_percent < RESILIENCE_MAX_OVERHEAD_PERCENT, (
            f"supervised dispatch overhead {overhead_percent:.2f}% exceeds "
            f"{RESILIENCE_MAX_OVERHEAD_PERCENT}%"
        )
