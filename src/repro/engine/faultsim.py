"""Batch-parallel stuck-at fault simulation.

The engine behind :func:`repro.testability.simulation.simulate_faults`,
which reproduces the paper's COSMOS stuck-at columns.  The per-fault
reference loop rebuilt and recompiled a netlist for every fault; here:

* **One compilation.**  The fault-free netlist compiles once
  (:class:`~repro.engine.events.CompiledNetlist`); the golden run and
  every fault copy execute over the same opcode tables.
* **Faults are overlays, not netlists.**  A stuck-at fault patches the
  faulted net's driver to an ``OP_CONST`` row and pins the net's initial
  value (:meth:`~repro.engine.events.CompiledNetlist.stuck_at_overlay`),
  observably identical to a rebuilt netlist with a constant gate type.
* **Copies fork off one golden drain at first touch.**  A copy differs
  from the golden trajectory in exactly three cells -- its faulted net's
  value and pending entries and the driver's state bit -- until the
  first event that can read them: a commit on an input of the driver or
  of a gate reading the net, or any event on the net itself (before
  that, pushed only by stimuli and by handshake rules, no earlier than
  their trigger's first commit).  The recorded golden run
  (:meth:`_FaultSweep._run_golden`, cached by the ``"golden-signature"``
  analysis) keeps each net's first commit time, so every copy's *fork
  time* is known up front.  :meth:`_FaultSweep.sweep` drains golden once
  through the kernel's one event loop (:func:`repro.engine.simkernel.drain`),
  stopping at the batch boundary just before each fork time, and forks
  the copies due there: golden's planes, queue, counts, event count and
  RNG states, with the three cells overlaid (the pending entry stays
  golden's while an event on the net is still queued).  Each fork
  finishes in the same drain with its overlay tables, **in fault
  order**, so exception propagation matches the reference loop.  A copy
  nothing ever touches reads its verdict off the golden finals; a copy
  whose settle pass already differs runs whole from time 0, as does
  every copy when batch times can run backwards (a negative delay or
  over-unity jitter).
* **Diverged copies retire early.**  Copies count only observable
  transitions, and a count exceeding golden's final count commits the
  detection.  The copy keeps draining so an event-cap overrun still
  reports the reference's oscillation error, but jitter-free copies
  with integral event times arm the kernel's period hunt
  (:class:`~repro.engine.simkernel._PeriodHunt`), which extrapolates a
  periodic orbit exactly, and a provable cap crossing raises at once.
* **Jittered campaigns run exactly.**  The reference gives every copy
  fresh ``random.Random(seed)`` streams for gate delays and handshake
  responses.  Before its fork a copy draws exactly golden's draws, so it
  forks with a ``getstate()`` clone of golden's streams, and a
  never-touched copy ends on golden's final states.  Drawn delays are
  never periodic, so jitter disarms the period hunt.
* **Chunks ride the persistent pool.**  Pooled campaigns split into
  small contiguous chunks, about ``_CHUNKS_PER_WORKER`` per worker, that
  idle workers pull in turn; a chunk costs its copies plus the golden
  prefix up to its last fork, and never separates the faults of one net
  (they share a fork time).  The campaign is pickled **once** into a
  ``(token, blob)`` pair that rides inline in every chunk item, and each
  worker decodes it once and caches the reconstructed sweep per token.
  Netlists with ``OP_CALL`` gates cannot cross a process boundary and
  stay in-process, recorded in ``pool.LAST_DECISION``.

Verdicts -- the detected/undetected split, reason strings, per-copy RNG
draw order, and therefore every coverage percentage -- are bit-identical
to the retained ``_reference_simulate_faults`` loop;
``tests/test_engine_differential.py`` enforces this over the synthesized
FIFO fixtures and seeded handshake pipelines, in process, pooled, and
jittered.
"""

from __future__ import annotations

import math
import pickle
import random
import uuid
from collections import namedtuple
from itertools import chain, groupby
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import analysis as _analysis
from repro.engine import chaos, pool
from repro.engine import resilience as _resilience
from repro.engine.events import BatchEventQueue, CompiledNetlist
from repro.engine.simkernel import (
    _compile_rules,
    _exact_integer,
    _PeriodHunt,
    drain,
    eval_gate,
    pack_fanout_tables,
    rule_triggers,
    settle,
)

# Below this many faults per shard the campaign/IPC overhead outweighs
# parallel sweeping even on warm workers (a fault copy is milliseconds).
FAULTSIM_MIN_FAULTS_PER_SHARD = 8

# Pooled campaigns ship about this many chunks per shard: a chunk costs
# only its copies plus a short golden prefix, so small chunks let idle
# workers balance uneven copies.
_CHUNKS_PER_WORKER = 4

REASON_DIFFERENT = "observable difference"
REASON_SAME = "no observable difference"
REASON_ABNORMAL = "abnormal behaviour"

_INF = float("inf")

# Worker-side cache: campaign token -> reconstructed _FaultSweep,
# so a persistent worker serving many shard calls of one campaign builds
# the sweep (unpickle + golden adoption) exactly once.
_SWEEP_CACHE_MAX = 4
_SWEEP_CACHE: Dict[str, "_FaultSweep"] = {}

class _FaultSweep:
    """Golden run plus a batch of fault copies over one compiled netlist.

    Holds everything a sweep needs -- compiled tables, the compiled
    handshake environment, observable slots, the golden record -- and
    none of the campaign policy (sharding, pooling, fault bookkeeping),
    which lives in :class:`FaultSimEngine`.
    """

    __slots__ = (
        "compiled",
        "rules_by",
        "stimuli",
        "obs_slots",
        "obs_of",
        "max_events",
        "delay_jitter",
        "env_jitter",
        "seed",
        "jittered",
        "integral_times",
        "forkable",
        "golden_finals",
        "golden_counts",
        "golden_events",
        "golden_rng_state",
        "first_commits",
        "touch_times",
        "rng_states",
        "limit",
        "_packed_base",
        "_reacts",
    )

    def __init__(
        self,
        compiled: CompiledNetlist,
        rules_by,
        stimuli: Sequence[Tuple[int, int, float]],
        obs_slots: Sequence[int],
        duration_ps: Optional[float],
        max_events: int,
        delay_jitter: float = 0.0,
        env_jitter: float = 0.0,
        seed: int = 7,
        golden: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.compiled = compiled
        self.rules_by = rules_by
        self.stimuli = tuple(stimuli)
        self.obs_slots = tuple(obs_slots)
        self.obs_of = [-1] * len(compiled.net_names)
        for index, slot in enumerate(self.obs_slots):
            self.obs_of[slot] = index
        self.max_events = max_events
        self.delay_jitter = delay_jitter
        self.env_jitter = env_jitter
        self.seed = seed
        # Jitter draws continuous delays (and advances per-copy RNG
        # state every cycle), so jittered trajectories are never
        # periodic and the extrapolation shortcut must stand down.
        self.jittered = delay_jitter > 0.0 or env_jitter > 0.0
        self.limit = _INF if duration_ps is None else duration_ps
        self._packed_base = None
        self._reacts = rule_triggers(rules_by)
        self.rng_states: List[Optional[Tuple]] = []
        rule_delays = [entry[2] for entries in rules_by for entry in entries]
        # Every event time is a sum of stimulus times and gate/rule
        # delays; when all of those are integers, every time is an
        # exactly-representable double and the periodic-extrapolation
        # shortcut for diverged copies is exact (shifting all queue
        # times by a whole number of periods is lossless).
        self.integral_times = all(
            _exact_integer(value)
            for value in chain(
                compiled.gate_delay,
                [time for _slot, _value, time in self.stimuli],
                rule_delays,
            )
        )
        # Forking at a time boundary needs batch times that never
        # decrease: no delay, nominal or drawn, may be negative.
        self.forkable = (
            min(chain(compiled.gate_delay, rule_delays), default=0) >= 0
            and delay_jitter < 1.0
            and env_jitter < 1.0
        )
        if golden is None:
            # Golden exceptions propagate: an oscillating fault-free
            # circuit is a campaign setup error, exactly as it is for
            # the per-fault reference loop.
            golden = self._run_golden()
        self.golden_finals = golden["finals"]
        self.golden_counts = golden["counts"]
        self.golden_events = golden["events"]
        self.golden_rng_state = golden["rng_state"]
        self.first_commits = golden["first_commits"]
        self.touch_times = self._touch_times()

    def golden_record(self) -> Dict[str, Any]:
        """The golden run as the ``"golden-signature"`` analysis caches it."""
        return {
            "finals": self.golden_finals,
            "counts": self.golden_counts,
            "events": self.golden_events,
            "rng_state": self.golden_rng_state,
            "first_commits": self.first_commits,
        }

    def _run_golden(self) -> Dict[str, Any]:
        """The fault-free run, recording each net's first commit time."""
        num_nets = len(self.compiled.net_names)
        record = ([[] for _ in range(num_nets)], [[] for _ in range(num_nets)])
        golden = self._start(None)
        finals, counts, _diverged = self._finish(None, golden, False, record)
        return {
            "finals": finals,
            "counts": counts,
            "events": golden.processed,
            "rng_state": golden.rng_state(),
            "first_commits": tuple(
                times[0] if times else _INF for times in record[0]
            ),
        }

    def _touch_times(self) -> List[float]:
        """Per net: the earliest golden batch time a copy faulted there may act on.

        A commit on a net feeding the faulted net's driver or a gate
        reading it evaluates that gate, which can act differently for
        the copy; a commit on any other net cannot.  Every event *on*
        the faulted net is a touch, commit or not (the copy's pinned
        value decides the commit), and before the first touch those
        events come only from the stimuli and from handshake rules, each
        pushed no earlier than its trigger net's first commit.  A touch
        past the time limit never happens.
        """
        compiled = self.compiled
        first = self.first_commits
        earliest = [_INF] * len(first)
        for slot, _value, time in self.stimuli:
            earliest[slot] = min(earliest[slot], time)
        for key, entries in enumerate(self.rules_by):
            for target, _value, _delay, _name in entries:
                if target >= 0:
                    earliest[target] = min(earliest[target], first[key >> 1])
        gate_inputs = compiled.gate_inputs
        driver_of = compiled.driver_of
        for slot, gates in enumerate(compiled.fanout):
            driver = driver_of[slot]
            readers = gates if driver < 0 else chain(gates, (driver,))
            for g in readers:
                for net in gate_inputs[g]:
                    if first[net] < earliest[slot]:
                        earliest[slot] = first[net]
        return [time if time <= self.limit else _INF for time in earliest]

    def _settles_apart(self, slot: int, value: int) -> bool:
        """True when the copy's settle pass pushes differently from golden's.

        Settle evaluates every gate against the initial values.  The
        copy's driver is a constant equal to its pinned initial value, so
        it never pushes: a golden push there is a difference.  A gate
        reading the net may evaluate differently (binary outputs make a
        differing output a differing push); an evaluation that raises
        counts as different and raises for real in the copy's own run.
        """
        compiled = self.compiled
        gate_output = compiled.gate_output
        vals = bytearray(compiled.initial_values)

        def output(g: int) -> int:
            return eval_gate(
                compiled.gate_op[g], compiled.gate_row[g], compiled.gate_call[g],
                compiled.gate_inputs[g], vals[gate_output[g]], vals,
            )

        driver = compiled.driver_of[slot]
        if driver >= 0 and output(driver) != vals[slot]:
            return True
        if value == vals[slot]:
            return False
        readers = [(g, output(g)) for g in compiled.fanout[slot] if g != driver]
        vals[slot] = value
        for g, golden_output in readers:
            try:
                if output(g) != golden_output:
                    return True
            except Exception:
                return True
        return False

    # -- the sweep --------------------------------------------------------------------
    def sweep(
        self, faults: Sequence[Tuple[int, int]]
    ) -> List[Tuple[bool, str]]:
        """Verdicts for ``faults`` (``(net slot, value)``; slot -1 = no-op).

        Copies due to fork are forked off one golden drain
        (:meth:`_forks`) and finish through the scalar drain during
        verdict assembly, **in fault order**, so errors propagate exactly
        as they do for C independent passes.  For jittered campaigns,
        ``rng_states`` afterwards holds each copy's final ``(simulator
        RNG, environment RNG)`` states (``None`` for copies that raised),
        letting the differential suite pin the per-copy draw order
        against standalone reference simulators.
        """
        faults = [(slot, int(bool(value))) for slot, value in faults]
        count = len(faults)
        verdicts: List[Optional[Tuple[bool, str]]] = [None] * count
        rng_states: List[Optional[Tuple]] = [None] * count
        self.rng_states = rng_states
        fork_at: Dict[int, float] = {}
        for c, (slot, value) in enumerate(faults):
            if slot < 0:
                touch = _INF  # unknown net: a no-op overlay
            elif self.forkable and not self._settles_apart(slot, value):
                touch = self.touch_times[slot]
            else:
                continue  # runs whole from time 0
            if touch < _INF:
                fork_at[c] = touch
                continue
            # Never touched: golden's state everywhere but the pinned
            # net, golden's counts and draws.
            obs_index = self.obs_of[slot] if slot >= 0 else -1
            detected = obs_index >= 0 and value != self.golden_finals[obs_index]
            verdicts[c] = (True, REASON_DIFFERENT) if detected else (False, REASON_SAME)
            rng_states[c] = self.golden_rng_state
        forks = self._forks(faults, fork_at)
        for c, (slot, value) in enumerate(faults):
            if verdicts[c] is not None:
                continue
            tables = self.compiled.stuck_at_overlay(slot, value)
            try:
                copy = forks.pop(c) if c in forks else self._start(tables)
                finals, counts, diverged = self._finish(tables, copy)
            except (RuntimeError, ValueError) as exc:
                verdicts[c] = (True, f"{REASON_ABNORMAL}: {exc}")
                continue
            rng_states[c] = copy.rng_state()
            detected = (
                diverged or finals != self.golden_finals or counts != self.golden_counts
            )
            verdicts[c] = (True, REASON_DIFFERENT) if detected else (False, REASON_SAME)
        return verdicts  # type: ignore[return-value]

    def _forks(
        self, faults: Sequence[Tuple[int, int]], fork_at: Dict[int, float]
    ) -> Dict[int, "_Copy"]:
        """Drain golden once, forking each copy at its fork time.

        The drain stops at the batch boundary just before each distinct
        fork time (batch times never decrease, so every batch before it
        lies strictly earlier and none touches the copies due there).
        """
        forks: Dict[int, _Copy] = {}
        if not fork_at:
            return forks
        driver_of = self.compiled.driver_of
        golden = self._start(None)
        due = sorted(fork_at, key=fork_at.__getitem__)
        for time, group in groupby(due, key=fork_at.__getitem__):
            self._drain(golden, self._packed(), math.nextafter(time, -_INF))
            queued = golden.queue.nets()
            for c in group:
                slot, value = faults[c]
                forks[c] = golden.fork(slot, value, driver_of[slot], queued)
        return forks

    # -- one copy through the kernel loop ---------------------------------------------
    def _start(self, tables) -> "_Copy":
        """A copy's state after settle and the stimuli (``tables``: its overlay).

        The reference ``run()`` order: settle, then the environment's
        initial stimuli.  Under jitter the copy owns two fresh
        ``random.Random(seed)`` streams (gate delays / handshake rules)
        -- the reference path builds a standalone simulator and
        environment per fault, both seeded with the campaign seed.
        """
        compiled = self.compiled
        if tables is None:
            tables = (compiled.gate_op, compiled.gate_row, compiled.initial_values)
        gate_op, gate_row, initial = tables
        rngs = None
        if self.jittered:
            rngs = (random.Random(self.seed), random.Random(self.seed))
        vals = bytearray(initial)
        pend = vals[:]
        gstate = bytearray(vals[output] for output in compiled.gate_output)
        queue = BatchEventQueue()
        settle(
            compiled, gate_op, gate_row, vals, pend, gstate, queue, 0.0,
            self.delay_jitter, rngs and rngs[0].uniform,
        )
        for slot, value, time in self.stimuli:
            queue.push(time, slot, value)
            pend[slot] = value
        return _Copy(vals, pend, gstate, queue, [0] * len(self.obs_slots), 0, rngs)

    def _finish(
        self,
        tables,
        copy: "_Copy",
        compare: bool = True,
        record: Optional[Tuple[List, List]] = None,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool]:
        """Drain one copy to the duration limit; ``(finals, counts, diverged)``.

        The copy arrives fresh after settle and stimuli, or forked
        mid-trajectory.  ``tables`` is its overlay ``(gate_op, gate_row,
        initial)`` (``None``: golden).  With ``compare`` the copy drops
        out of observable bookkeeping once its counts exceed golden's
        (``diverged`` then forces the detected verdict); ``record``
        collects per-net commit times and values.
        """
        packed = self._packed() if tables is None else self._packed(*tables[:2])
        diverged = self._drain(
            copy, packed, self.limit, self.golden_counts if compare else None, record
        )
        finals = tuple(copy.vals[slot] for slot in self.obs_slots)
        return finals, tuple(copy.counts), diverged

    def _packed(self, gate_op=None, gate_row=None) -> List[Tuple]:
        """Packed fanout tables: the fault-free packing, or an overlay's.

        An overlay rebuilds only the nets feeding its patched driver.
        """
        base = self._packed_base
        if base is None:
            base = self._packed_base = _analysis.get(self.compiled, "packed-fanout")
        if gate_op is None:
            return base
        return pack_fanout_tables(self.compiled, gate_op, gate_row, base)

    def _drain(
        self,
        copy: "_Copy",
        packed: List[Tuple],
        limit: float,
        golden_counts: Optional[Tuple[int, ...]] = None,
        record: Optional[Tuple[List, List]] = None,
    ) -> bool:
        """Run the kernel's one event loop over ``copy`` up to ``limit``.

        Compiled handshake rules, observable counting and -- for fault
        copies compared against ``golden_counts`` with exact (integral)
        event times and no jitter -- the period hunt.  Returns whether
        divergence from the golden counts was committed.
        """
        hunt = None
        if golden_counts is not None and self.integral_times and not self.jittered:
            hunt = _PeriodHunt(
                copy.vals, copy.pend, copy.gstate, copy.queue, limit,
                self.max_events, golden_counts,
            )
        rngs = copy.rngs
        copy.processed, diverged = drain(
            packed,
            self.compiled.gate_call,
            copy.vals,
            copy.pend,
            copy.gstate,
            copy.queue,
            max_events=self.max_events,
            reacts=self._reacts,
            processed=copy.processed,
            limit=limit,
            jitter=self.delay_jitter,
            sim_uniform=rngs and rngs[0].uniform,
            rules_by=self.rules_by,
            env_jitter=self.env_jitter,
            env_uniform=rngs and rngs[1].uniform,
            obs_of=self.obs_of,
            counts=copy.counts,
            golden_counts=golden_counts,
            hunt=hunt,
            record=record,
        )
        return diverged


class _Copy:
    """One trajectory's state: value/pending planes, gate states, queue,
    observable counts, processed events and (under jitter) its two RNG
    streams."""

    __slots__ = ("vals", "pend", "gstate", "queue", "counts", "processed", "rngs")

    def __init__(self, vals, pend, gstate, queue, counts, processed, rngs) -> None:
        self.vals = vals
        self.pend = pend
        self.gstate = gstate
        self.queue = queue
        self.counts = counts
        self.processed = processed
        self.rngs = rngs

    def rng_state(self) -> Optional[Tuple]:
        """The ``(simulator, environment)`` RNG states, or None without jitter."""
        return None if self.rngs is None else tuple(r.getstate() for r in self.rngs)

    def fork(self, slot: int, value: int, driver: int, queued: set) -> "_Copy":
        """An independent copy of this state with ``slot`` stuck at ``value``.

        The net's value and its driver's state take the pinned value; its
        pending entry keeps this state's while an event on the net is
        still ``queued`` (every push to it so far is), else the pinned one.
        """
        vals = bytearray(self.vals)
        vals[slot] = value
        pend = bytearray(self.pend)
        if slot not in queued:
            pend[slot] = value
        gstate = bytearray(self.gstate)
        if driver >= 0:
            gstate[driver] = value
        rngs = None
        if self.rngs is not None:
            rngs = (random.Random(), random.Random())
            for clone, rng in zip(rngs, self.rngs):
                clone.setstate(rng.getstate())
        return _Copy(
            vals, pend, gstate, self.queue.clone(), list(self.counts),
            self.processed, rngs,
        )


# Flattened handshake rule (repro.analysis.compilecache.campaign_params
# order), quacking like HandshakeRule for _compile_rules.
_FlatRule = namedtuple(
    "_FlatRule", "trigger trigger_value target target_value delay_ps"
)


def build_sweep(netlist, compiled: CompiledNetlist, params, golden=None):
    """Construct a :class:`_FaultSweep` from a flattened campaign configuration.

    ``params`` is the dict built by
    :func:`repro.analysis.compilecache.campaign_params`: rules and
    stimuli as plain tuples, observables as a name tuple or ``None``
    (meaning the netlist's primary outputs, falling back to all nets).
    Shared by :class:`FaultSimEngine` and the ``"golden-signature"``
    analysis so both resolve names to slots identically; with ``golden``
    (a :meth:`_FaultSweep.golden_record`) supplied the golden run is
    skipped, exactly as in the worker reconstruction path.
    """
    observables = params["observables"]
    if observables is None:
        observables = netlist.primary_outputs or netlist.nets
    # Observables the netlist does not have contribute the constant
    # (0, 0) signature entry on both sides of every comparison in
    # the reference path, so they can never flip a verdict.
    obs_slots = [
        compiled.net_index[net]
        for net in observables
        if net in compiled.net_index
    ]
    stimuli = []
    for net, value, time in params["stimuli"]:
        slot = compiled.net_index.get(net)
        if slot is None:
            from repro.circuit.netlist import NetlistError

            raise NetlistError(f"unknown net {net!r}")
        stimuli.append((slot, int(bool(value)), float(time)))
    rules_by = _compile_rules(
        [_FlatRule(*entry) for entry in params["rules"]],
        compiled.net_index,
        len(compiled.net_names),
    )
    return _FaultSweep(
        compiled,
        rules_by,
        stimuli,
        obs_slots,
        params["duration_ps"],
        params["max_events"],
        delay_jitter=params["delay_jitter"],
        env_jitter=params["environment_jitter"],
        seed=params["seed"],
        golden=golden,
    )


def _run_fault_shard(campaign, items, sweep=None):
    """Worker entry point: verdicts for one chunk of a pickled campaign.

    ``items`` is a list of ``(campaign index, net slot, value)``;
    ``campaign`` is the engine's ``(token, blob)`` pair, whose blob
    (tables, environment, golden record) is decoded once per token and
    cached, unless the caller hands in its own ``sweep`` (in-process
    salvage).  The ``payload-fetch-fail`` chaos point fires on a cache
    miss, just before the decode.
    """
    if sweep is None:
        token, blob = campaign
        sweep = _SWEEP_CACHE.get(token)
        if sweep is None:
            chaos.check("payload-fetch-fail")
            fields = pickle.loads(blob)
            tables = fields.pop("tables")
            sweep = _FaultSweep(CompiledNetlist.from_tables(tables), **fields)
            while len(_SWEEP_CACHE) >= _SWEEP_CACHE_MAX:
                _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
            _SWEEP_CACHE[token] = sweep
    return sweep.sweep([(slot, value) for _index, slot, value in items])


def _chunk_bounds(
    slot_faults: Sequence[Tuple[int, int]], chunks: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` ranges, about ``len / chunks`` faults each.

    A boundary never falls between two adjacent faults on one net: they
    share a fork time, so one chunk's golden prefix serves both.
    """
    total = len(slot_faults)
    size = max(1, -(-total // max(1, chunks)))
    bounds = []
    start = 0
    while start < total:
        end = min(start + size, total)
        while end < total and slot_faults[end][0] == slot_faults[end - 1][0]:
            end += 1
        bounds.append((start, end))
        start = end
    return bounds


class FaultSimEngine:
    """Compile-once batch fault simulator for one campaign setup.

    One engine owns one ``(netlist, environment, stimuli, observables,
    duration, jitter)`` configuration: construction compiles the
    netlist, runs the golden trace, and captures its observable
    signature.  Each :meth:`run` call then sweeps a batch of stuck-at
    faults -- in process, or sharded over the persistent worker pool
    with the campaign pickled once and shipped inline in every chunk.
    :meth:`close` (or the context manager) drops that memoised blob.

    ``delay_jitter`` randomises every gate delay uniformly in
    ``[nominal * (1 - j), nominal * (1 + j)]`` and
    ``environment_jitter`` does the same for handshake-rule response
    times, both per copy from ``random.Random(seed)`` streams -- the
    exact draws a standalone :class:`EventDrivenSimulator` plus
    :class:`HandshakeEnvironment` seeded identically would make, so
    jittered campaigns remain bit-identical to the per-fault reference
    loop.  With both knobs at zero no draw ever occurs and the
    periodic-trajectory extrapolation stays enabled.
    """

    def __init__(
        self,
        netlist,
        environment_rules,
        initial_stimuli,
        observables: Optional[Sequence[str]] = None,
        duration_ps: Optional[float] = 30_000.0,
        max_events: int = 500_000,
        seed: int = 7,
        delay_jitter: float = 0.0,
        environment_jitter: float = 0.0,
        collapse: bool = True,
    ) -> None:
        params = _analysis.campaign_params(
            environment_rules,
            initial_stimuli,
            observables,
            duration_ps,
            max_events,
            seed,
            delay_jitter,
            environment_jitter,
        )
        compiled = _analysis.get(netlist, "compile")
        golden = _analysis.get(netlist, "golden-signature", **params)
        self.netlist = netlist
        self.seed = seed
        self._sweep = build_sweep(netlist, compiled, params, golden=golden)
        # Structural collapsing is exact only for deterministic delays:
        # under jitter an extra or missing event shifts every subsequent
        # draw of the shared per-copy RNG streams, so no two distinct
        # injections are draw-for-draw equivalent (and the per-copy
        # rng_states bookkeeping must stay aligned with the fault list).
        self._collapse = bool(collapse) and not self._sweep.jittered
        self._campaign_params = params
        self._collapse_plan = None
        self.last_collapse: Optional[Dict[str, int]] = None
        self._pickled: Optional[Tuple[str, bytes]] = None

    @property
    def compiled(self) -> CompiledNetlist:
        return self._sweep.compiled

    def golden_signature(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(final values, transition counts) over the observable slots."""
        return self._sweep.golden_finals, self._sweep.golden_counts

    # -- sharding ---------------------------------------------------------------------
    def _campaign(self) -> Tuple[str, bytes]:
        """Pickle the campaign once into a reusable ``(token, blob)`` pair."""
        if self._pickled is None:
            sweep = self._sweep
            # _FaultSweep's constructor arguments, compiled tables flat.
            blob = pickle.dumps(
                {
                    "tables": sweep.compiled.to_tables(),
                    "rules_by": sweep.rules_by,
                    "stimuli": sweep.stimuli,
                    "obs_slots": sweep.obs_slots,
                    "duration_ps": sweep.limit,
                    "max_events": sweep.max_events,
                    "delay_jitter": sweep.delay_jitter,
                    "env_jitter": sweep.env_jitter,
                    "seed": sweep.seed,
                    "golden": sweep.golden_record(),
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._pickled = (uuid.uuid4().hex, blob)
        return self._pickled

    def close(self) -> None:
        """Drop the memoised campaign blob (idempotent)."""
        self._pickled = None

    def __enter__(self) -> "FaultSimEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- campaigns --------------------------------------------------------------------
    def run(
        self,
        faults: Iterable,
        shards: Optional[int] = None,
        use_processes: Optional[bool] = None,
    ) -> List[Tuple[bool, str]]:
        """Verdicts ``(detected, reason)`` for ``faults``, in input order.

        ``faults`` yields objects with ``net``/``value`` attributes
        (:class:`repro.testability.faults.StuckAtFault`) or plain
        ``(net, value)`` pairs.  ``shards``/``use_processes`` are the pool
        knobs: auto mode consults the pool policy (single-CPU hosts and
        small campaigns stay in-process) and every decision lands in
        ``pool.LAST_DECISION``.

        Deterministic (non-jittered) campaigns consult the static
        ``"collapse"`` analysis unless the engine was built with
        ``collapse=False``: statically-resolved faults are answered
        without simulation, equivalence classes simulate one
        representative, and verdicts expand back over the full list --
        bit-identical to the uncollapsed sweep (a representative that
        dies abnormally forfeits its equivalence argument, so its class
        members are re-simulated individually).  ``last_collapse``
        records what happened: input faults, faults actually simulated,
        statically answered, and fallback re-simulations.
        """
        compiled = self._sweep.compiled
        slot_faults: List[Tuple[int, int]] = []
        for fault in faults:
            net = getattr(fault, "net", None)
            if net is None:
                net, value = fault
            else:
                value = fault.value
            slot = compiled.net_index.get(net)
            slot_faults.append((-1 if slot is None else slot, int(bool(value))))
        self.last_collapse = None
        if not slot_faults:
            return []
        plan = self._plan()
        if plan is None:
            return self._sweep_verdicts(slot_faults, shards, use_processes)

        # Unknown nets are no-op overlays (the golden copy); static_same
        # members are provably golden-equivalent.  Everything else
        # simulates through its class representative.
        rep_of = [
            None if fault[0] < 0 or fault in plan.static_same
            else plan.rep_of.get(fault, fault)
            for fault in slot_faults
        ]
        reps = list(dict.fromkeys(rep for rep in rep_of if rep is not None))
        by_rep = dict(
            zip(reps, self._sweep_verdicts(reps, shards, use_processes) if reps else [])
        )
        # A representative that hit the event cap (or a raising OP_CALL
        # gate) proves nothing about its members: the equivalence
        # argument compares *completed* trajectories.  Re-simulate those
        # members as themselves.
        fallback = list(
            dict.fromkeys(
                fault
                for fault, rep in zip(slot_faults, rep_of)
                if rep is not None
                and fault != rep
                and by_rep[rep][1].startswith(REASON_ABNORMAL)
            )
        )
        by_fault = dict(
            zip(
                fallback,
                self._sweep_verdicts(fallback, shards, use_processes) if fallback else [],
            )
        )
        self.last_collapse = {
            "faults": len(slot_faults),
            "simulated": len(reps) + len(fallback),
            "static": rep_of.count(None),
            "fallback": len(fallback),
        }
        return [
            (False, REASON_SAME) if rep is None else by_fault.get(fault) or by_rep[rep]
            for fault, rep in zip(slot_faults, rep_of)
        ]

    def _plan(self):
        """Resolve (and memoize) this campaign's collapse plan, if enabled."""
        if not self._collapse:
            return None
        if self._collapse_plan is None:
            params = self._campaign_params
            self._collapse_plan = _analysis.get(
                self.netlist,
                "collapse",
                rules=params["rules"],
                stimuli=params["stimuli"],
                observables=params["observables"],
                max_events=params["max_events"],
                golden_events=self._sweep.golden_events,
            )
        return self._collapse_plan

    def _sweep_verdicts(
        self,
        slot_faults: List[Tuple[int, int]],
        shards: Optional[int],
        use_processes: Optional[bool],
    ) -> List[Tuple[bool, str]]:
        """Sweep ``slot_faults`` in-process or over the pool (verbatim order)."""
        compiled = self._sweep.compiled
        shard_count = max(1, shards or pool.worker_count())
        use_pool, _reason = pool.decide(
            len(slot_faults),
            shard_count,
            forced=use_processes,
            floor=FAULTSIM_MIN_FAULTS_PER_SHARD,
        )
        if use_pool and compiled.has_call_gates():
            # OP_CALL rows hold arbitrary callables; the tables cannot
            # ship, so the campaign stays in this process.
            use_pool = False
            pool.LAST_DECISION.update(use_pool=False, reason="uncompiled-gates")

        if use_pool:
            chunks = [
                [(index, *slot_faults[index]) for index in range(start, end)]
                for start, end in _chunk_bounds(
                    slot_faults, shard_count * _CHUNKS_PER_WORKER
                )
            ]
            # Supervised dispatch (repro.engine.resilience): per-chunk
            # deadlines, infrastructure-only retries with pool respawn,
            # partial-result salvage.  A genuine engine error raised by
            # worker kernel code propagates.
            try:
                executor = pool.get_pool()
            except (OSError, PermissionError):
                # Workers cannot be spawned at all on this host.
                pool.discard()
                pool.LAST_DECISION.update(
                    use_pool=False, reason="pool-spawn-failed"
                )
            else:
                campaign = self._campaign()
                items = [(campaign, chunk) for chunk in chunks]
                try:
                    chunk_results = _resilience.supervised_map(
                        executor, _run_fault_shard, items, label="fault-campaign"
                    )
                except _resilience.PoolDispatchError as error:
                    # Terminal infrastructure failure: keep every chunk
                    # that completed, sweep only the lost ones here
                    # (bit-identical -- chunks are deterministic).
                    chunk_results = error.results
                    for chunk_index in error.pending:
                        chunk_results[chunk_index] = _run_fault_shard(
                            campaign, chunks[chunk_index], self._sweep
                        )
                    _resilience.mark_degraded("in-process-salvage")
                    pool.LAST_DECISION.update(reason="pool-dispatch-degraded")
                # Chunks are contiguous and in order.
                return [verdict for result in chunk_results for verdict in result]
        return self._sweep.sweep(slot_faults)
