"""Batch-parallel stuck-at fault simulation.

``repro.testability`` used to reproduce the paper's COSMOS stuck-at
columns by rebuilding a fresh :class:`~repro.circuit.netlist.Netlist` and
a fresh :class:`~repro.circuit.simulator.EventDrivenSimulator` for every
single fault: a campaign over N fault sites paid 2N+1 netlist builds and
2N+1 compilations (truth-table enumeration dominates for the complex-gate
FIFOs) before any event was processed.  This module is the batch engine
behind the rewritten :func:`repro.testability.simulation.simulate_faults`:

* **One compilation.**  The fault-free netlist compiles once
  (:class:`~repro.engine.events.CompiledNetlist`); the golden run and
  every fault copy execute over the same opcode tables.
* **Faults are overlays, not netlists.**  A stuck-at fault becomes a
  per-copy ``(net, pinned value)`` overlay on the compiled tables
  (:meth:`~repro.engine.events.CompiledNetlist.stuck_at_overlay`): the
  faulted net's driver gate is patched to an ``OP_CONST`` row and the
  net's initial value is pinned.  That is observably identical to the
  old approach of synthesizing a ``*_SA0/1`` constant gate type into a
  rebuilt netlist -- the constant driver never schedules (its output
  always equals its pending value), the pinned initial value matches,
  and the driver's delay/sequential characterisation is untouched.
* **One vectorised sweep over all copies.**  A stuck-at copy's state
  differs from the fault-free trajectory in exactly three cells -- its
  own value/pending entries for the faulted net, and the driver gate's
  state bit -- until the first event whose handling actually depends on
  one of those cells.  :meth:`_FaultSweep.sweep` exploits that:
  **one** leader pass replays the golden trajectory while every fault
  copy rides along as a column of per-copy overrides (``ov_val`` /
  ``ov_pend``) plus a live-copy bitmask.  Precomputed touch masks
  (which copies' faulted nets an event's fanout cone can read or
  drive) keep the hot path to a single ``touch_mask[net] & live`` test
  per event; a touched event triggers a *pure* dry-run -- evaluated
  against the copy's override before the leader mutates anything --
  and a copy whose action would differ (commit decision, gate push,
  push value, or a raising evaluation) is **extracted**: its exact
  pre-event state (value/pending planes with overrides applied, gate
  state, a cloned time-bucketed queue with the batch remainder pushed
  back, observable counts, the event count, and -- under jitter -- the
  leader's RNG states) is snapshotted and the copy finishes later in
  the resumable scalar drain -- the kernel's one event loop
  (:func:`repro.engine.simkernel.drain`), which the leader pass, its
  dry-runs and the golden run share through the kernel's one gate
  evaluator and settle pass.  Copies still in lockstep at the end of
  the leader pass read their verdict straight off the override column.
  Extractions drain in **fault order** during verdict assembly, so
  exception propagation (``NetlistError``, uncompilable-gate errors)
  matches the per-fault reference loop exactly.
* **Diverged copies retire early.**  Copies record no waveform columns
  -- only per-observable transition counts -- and a copy is dropped
  from observable bookkeeping the moment it diverges from the golden
  trace (its transition count on some observable exceeds the golden
  run's final count, which is monotone and therefore a committed
  detection).  Dropping must not change the *reason* string: a faulty
  circuit that would have exploded past ``max_events`` has to report
  the oscillation error, not a generic difference.  So a diverged copy
  keeps draining, but with an exact shortcut: stuck-at oscillations are
  periodic, and when every delay in the system is an integer picosecond
  count (the library's are) all event times are exactly-representable
  doubles, so once a ``(state, relative queue)`` snapshot repeats the
  remaining event count extrapolates *exactly* -- the copy either
  reports the oscillation error immediately, or retires as an
  observable difference without simulating the remaining cycles (at
  most one partial tail cycle runs when ``max_events`` lands inside
  it).  The hunt (the kernel's
  :class:`~repro.engine.simkernel._PeriodHunt`, armed here only for
  copies compared against golden counts) samples every eighth
  delta-cycle batch: a periodic
  orbit still repeats a sampled snapshot within a bounded number of
  periods (the measured repeat is then a whole multiple of the
  fundamental period, which extrapolates just as exactly), while
  non-periodic copies no longer pay the snapshot cost every batch.
  Non-integral delays or aperiodic behaviour simply fall back to
  draining in full, still bit-identical.
* **Jittered campaigns run exactly.**  Realistic testability workloads
  randomise gate delays (``delay_jitter``) and environment response
  times (``environment_jitter``).  The reference loop gives every fault
  copy a standalone simulator whose RNGs restart from the campaign
  seed, so draw order is a per-copy property: each copy draws exactly
  the delays its own trajectory requests, in its own commit order.  A
  copy in lockstep requests *exactly the leader's draws* (same events,
  same pushes, same order), so the leader's two ``random.Random(seed)``
  streams stand in for every live copy at once; the moment a copy's
  push set would differ it is extracted -- before the leader draws for
  that event -- with a ``getstate()`` clone, and its scalar drain
  continues the stream bit-exactly.  Because drawn delays are
  continuous (and advance RNG state each cycle), a jittered copy's
  trajectory is never periodic, so the periodic-trajectory
  extrapolation is disabled for jittered campaigns; pure-integer-delay
  campaigns (both knobs zero) keep it.  The provable event-cap shortcut
  (queue population exceeding ``max_events``) does not depend on
  periodicity and stays active.
* **Shards ride the persistent pool.**  Large campaigns split
  round-robin across the process-global pool (:mod:`repro.engine.pool`).
  The compiled tables, environment, golden signature, and golden event
  count are published **once** per campaign through the shared-memory
  payload path (:func:`repro.engine.pool.publish_payload`); every shard
  call ships only the tiny payload handle plus its fault list, and
  workers cache the reconstructed sweep per campaign token, so nothing
  is re-pickled per call.  Netlists with ``OP_CALL`` gates
  (uncompilable ``eval_fn`` closures) cannot cross a process boundary
  and automatically stay in-process, recorded in ``pool.LAST_DECISION``.

Verdicts -- the detected/undetected split, reason strings, per-copy RNG
draw order, and therefore every coverage percentage -- are bit-identical
to the retained ``_reference_simulate_faults`` loop;
``tests/test_engine_differential.py`` enforces this over the synthesized
FIFO fixtures and seeded handshake pipelines for shard counts 1-4,
pooled, and jittered.
"""

from __future__ import annotations

import pickle
import random
import weakref
from collections import namedtuple
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import analysis as _analysis
from repro.engine import pool
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

# Below this many faults per shard the payload/IPC overhead outweighs
# parallel sweeping even on warm workers (a fault copy is milliseconds).
FAULTSIM_MIN_FAULTS_PER_SHARD = 8

REASON_DIFFERENT = "observable difference"
REASON_SAME = "no observable difference"
REASON_ABNORMAL = "abnormal behaviour"

# Worker-side cache: campaign payload token -> reconstructed _FaultSweep,
# so a persistent worker serving many shard calls of one campaign builds
# the sweep (unpickle + golden adoption) exactly once.
_SWEEP_CACHE_MAX = 4
_SWEEP_CACHE: Dict[str, "_FaultSweep"] = {}

class _FaultSweep:
    """Golden run plus a batch of fault copies over one compiled netlist.

    Holds everything a sweep needs -- compiled tables, the compiled
    handshake environment, observable slots, the golden signature -- and
    none of the campaign policy (sharding, pooling, fault bookkeeping),
    which lives in :class:`FaultSimEngine`.
    """

    __slots__ = (
        "compiled",
        "rules_by",
        "stimuli",
        "obs_slots",
        "obs_of",
        "duration_ps",
        "max_events",
        "delay_jitter",
        "env_jitter",
        "seed",
        "jittered",
        "integral_times",
        "golden_finals",
        "golden_counts",
        "golden_events",
        "last_copy_rng",
        "last_processed",
        "rng_states",
        "golden_rng_state",
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
        golden: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None,
        golden_events: int = 0,
    ) -> None:
        self.compiled = compiled
        self.rules_by = rules_by
        self.stimuli = tuple(stimuli)
        self.obs_slots = tuple(obs_slots)
        self.obs_of = [-1] * len(compiled.net_names)
        for index, slot in enumerate(self.obs_slots):
            self.obs_of[slot] = index
        self.duration_ps = duration_ps
        self.max_events = max_events
        self.delay_jitter = delay_jitter
        self.env_jitter = env_jitter
        self.seed = seed
        # Jitter draws continuous delays (and advances per-copy RNG
        # state every cycle), so jittered trajectories are never
        # periodic and the extrapolation shortcut must stand down.
        self.jittered = delay_jitter > 0.0 or env_jitter > 0.0
        self.last_copy_rng = None
        self.last_processed = 0
        self.golden_events = golden_events
        self.limit = float("inf") if duration_ps is None else duration_ps
        self._packed_base = None
        self._reacts = rule_triggers(rules_by)
        self.rng_states: List[Optional[Tuple]] = []
        self.golden_rng_state = None
        # Every event time is a sum of stimulus times and gate/rule
        # delays; when all of those are integers, every time is an
        # exactly-representable double and the periodic-extrapolation
        # shortcut for diverged copies is exact (shifting all queue
        # times by a whole number of periods is lossless).
        self.integral_times = all(
            _exact_integer(value)
            for value in (
                list(compiled.gate_delay)
                + [time for _slot, _value, time in self.stimuli]
                + [
                    entry[2]
                    for entries in rules_by
                    for entry in entries
                ]
            )
        )
        if golden is None:
            # Golden exceptions propagate: an oscillating fault-free
            # circuit is a campaign setup error, exactly as it is for
            # the per-fault reference loop.
            finals, counts, _diverged = self._run_copy(None)
            golden = (finals, counts)
            self.golden_rng_state = self.last_copy_rng
            self.golden_events = self.last_processed
        self.golden_finals, self.golden_counts = golden

    def golden_signature(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return self.golden_finals, self.golden_counts

    # -- the vectorised sweep ---------------------------------------------------------
    def sweep(
        self, faults: Sequence[Tuple[int, int]]
    ) -> List[Tuple[bool, str]]:
        """Verdicts for ``faults`` (``(net slot, value)``; slot -1 = no-op).

        One leader pass replays the golden trajectory (``golden_events``
        events, validated when the golden signature was recorded) while
        every fault copy rides along as an override column: ``ov_val[c]``
        / ``ov_pend[c]`` hold copy ``c``'s value and pending entries for
        its faulted net, and precomputed bitmasks say which copies an
        event can possibly affect.  Untouched events (the vast majority)
        cost one mask test on top of golden processing; touched events
        dry-run the affected copies' actions against their overrides and
        extract any copy whose behaviour deviates into a pre-event
        snapshot.  Extracted copies finish through the resumable scalar
        drain during verdict assembly, **in fault order**, so errors
        propagate exactly as they do for C independent passes.  For
        jittered campaigns, ``rng_states`` afterwards holds each copy's
        final ``(simulator RNG, environment RNG)`` states (``None`` for
        copies that raised), letting the differential suite pin the
        per-copy draw order against standalone reference simulators.
        """
        faults = list(faults)
        if not faults:
            self.rng_states = []
            return []
        compiled = self.compiled
        num_nets = len(compiled.net_names)
        gate_op = compiled.gate_op
        gate_row = compiled.gate_row
        gate_inputs = compiled.gate_inputs
        gate_output = compiled.gate_output
        gate_call = compiled.gate_call
        gate_delay = compiled.gate_delay
        fanout = compiled.fanout
        driver_of = compiled.driver_of
        rules_by = self.rules_by
        obs_of = self.obs_of

        count = len(faults)
        fslot = [slot for slot, _value in faults]
        fval = [int(bool(value)) for _slot, value in faults]
        # Copy c's overrides: its private value / pending entries for
        # its faulted net.  Everything else it shares with the leader
        # while in lockstep.
        ov_val = fval[:]
        ov_pend = fval[:]

        # Bitmasks over copies.  con_mask[n]: copies faulted *at* net n
        # (an event targeting n needs their commit decision checked).
        # driver_mask[g]: copies whose faulted net g drives (their g is
        # an OP_CONST row).  reads_mask[g]: copies whose faulted net is
        # an input of g (g evaluates differently for them) -- excluding
        # their own driver, which driver_mask already covers.
        live = 0
        con_mask = [0] * num_nets
        driver_mask: Dict[int, int] = {}
        reads_mask: Dict[int, int] = {}
        for c in range(count):
            slot = fslot[c]
            if slot < 0:
                continue
            bit = 1 << c
            live |= bit
            con_mask[slot] |= bit
            driver = driver_of[slot]
            if driver >= 0:
                driver_mask[driver] = driver_mask.get(driver, 0) | bit
            for g in fanout[slot]:
                if g != driver:
                    reads_mask[g] = reads_mask.get(g, 0) | bit
        # touch_mask[n]: every copy an event on net n could possibly
        # affect -- its own commit decision, or any gate in n's fanout
        # that the copy reads differently or drives constantly.
        touch_mask = [0] * num_nets
        for n in range(num_nets):
            mask = con_mask[n]
            for g in fanout[n]:
                mask |= driver_mask.get(g, 0) | reads_mask.get(g, 0)
            touch_mask[n] = mask

        jitter = self.delay_jitter
        env_jitter = self.env_jitter
        jittered = self.jittered
        if jittered:
            sim_rng = random.Random(self.seed)
            env_rng = random.Random(self.seed)
            sim_uniform = sim_rng.uniform
            env_uniform = env_rng.uniform
        else:
            sim_rng = env_rng = sim_uniform = env_uniform = None

        # Leader planes: the golden trajectory's state.
        vals = bytearray(compiled.initial_values)
        pend = vals[:]
        gstate = bytearray(vals[output] for output in gate_output)
        queue = BatchEventQueue()
        counts = [0] * len(self.obs_slots)

        # -- settle pass (leader), then per-copy checks ---------------------------
        # Settle evaluates every gate against the *initial* values and
        # pushes where output != current value; it updates neither the
        # value plane nor gate state, so the checks below see exactly
        # what it saw.  A copy's settle differs from the leader's only
        # through its overrides: its driver gate is a constant equal to
        # the pinned initial (so it never pushes -- a leader push there
        # is a deviation), and gates reading the faulted net may
        # evaluate differently (a differing output is a differing push
        # action, since binary outputs make exactly one side push).  No
        # ov_pend hook is needed for settle pushes: a leader push to a
        # live copy's faulted net means the gate is that copy's driver,
        # which extracts the copy.
        settle(
            compiled, gate_op, gate_row, vals, pend, gstate, queue, 0.0,
            jitter, sim_uniform,
        )
        settle_deviators = 0
        for g in sorted(driver_mask.keys() | reads_mask.keys()):
            out_l = eval_gate(
                gate_op[g], gate_row[g], gate_call[g],
                gate_inputs[g], gstate[g], vals,
            )
            if out_l != vals[gate_output[g]]:
                settle_deviators |= driver_mask.get(g, 0)
            mask = reads_mask.get(g, 0) & ~settle_deviators
            while mask:
                bit = mask & -mask
                mask -= bit
                c = bit.bit_length() - 1
                f = fslot[c]
                if ov_val[c] == vals[f]:
                    continue
                old = vals[f]
                vals[f] = ov_val[c]
                try:
                    out_c = eval_gate(
                        gate_op[g], gate_row[g], gate_call[g],
                        gate_inputs[g], gstate[g], vals,
                    )
                except Exception:
                    out_c = None  # raises for real in the scalar rerun
                vals[f] = old
                if out_c != out_l:
                    settle_deviators |= bit
        live &= ~settle_deviators

        heap_times = queue._times
        buckets = queue._buckets

        def schedule(time: float, slot: int, value: int) -> None:
            """Leader push; live copies faulted at ``slot`` share its pending value.

            ``BatchEventQueue.push`` inlined: the leader pass is the hot
            loop of small campaigns.
            """
            bucket = buckets.get(time)
            if bucket is None:
                heappush(heap_times, time)
                buckets[time] = ([slot], [value])
            else:
                bucket[0].append(slot)
                bucket[1].append(value)
            queue._count += 1
            pend[slot] = value
            mask = con_mask[slot] & live
            while mask:
                bit = mask & -mask
                mask -= bit
                ov_pend[bit.bit_length() - 1] = value

        for slot, value, time in self.stimuli:
            schedule(time, slot, value)

        # -- leader drain with lockstep riders ----------------------------------------
        limit = self.limit
        processed = 0
        extractions: Dict[int, Tuple] = {}
        # The leader replays the golden trajectory, which already ran to
        # completion under max_events when the golden signature was
        # recorded, so the leader needs no event-cap or period-hunt
        # bookkeeping of its own.
        while heap_times and heap_times[0] <= limit:
            batch_time = heappop(heap_times)
            batch_nets, batch_values = buckets.pop(batch_time)
            batch_size = len(batch_nets)
            queue._count -= batch_size
            index = 0
            while index < batch_size:
                net_slot = batch_nets[index]
                value = batch_values[index]
                tmask = touch_mask[net_slot] & live
                if tmask:
                    # Pure dry-run: decide which touched copies deviate
                    # *before* the leader mutates state or draws jitter,
                    # so an extraction snapshot is exactly the copy's
                    # pre-event state and RNG position.
                    deviators = 0
                    leader_take = vals[net_slot] != value
                    mask = con_mask[net_slot] & tmask
                    while mask:
                        bit = mask & -mask
                        mask -= bit
                        c = bit.bit_length() - 1
                        if (ov_val[c] != value) != leader_take:
                            deviators |= bit
                    if leader_take:
                        val_old = vals[net_slot]
                        vals[net_slot] = value  # temp-commit for evals
                        for g in fanout[net_slot]:
                            gmask = (
                                driver_mask.get(g, 0) | reads_mask.get(g, 0)
                            ) & tmask & ~deviators
                            if not gmask:
                                continue
                            out_l = eval_gate(
                                gate_op[g], gate_row[g], gate_call[g],
                                gate_inputs[g], gstate[g], vals,
                            )
                            slot_g = gate_output[g]
                            dmask = driver_mask.get(g, 0) & gmask
                            if dmask:
                                l_push = out_l != pend[slot_g]
                                mask = dmask
                                while mask:
                                    bit = mask & -mask
                                    mask -= bit
                                    c = bit.bit_length() - 1
                                    pinned = fval[c]
                                    c_push = pinned != ov_pend[c]
                                    if l_push != c_push or (
                                        l_push and out_l != pinned
                                    ):
                                        deviators |= bit
                            mask = reads_mask.get(g, 0) & gmask
                            while mask:
                                bit = mask & -mask
                                mask -= bit
                                c = bit.bit_length() - 1
                                f = fslot[c]
                                # f == net_slot: matched commit decisions
                                # mean the copy's value of this net now
                                # equals the leader's.
                                if f == net_slot or ov_val[c] == vals[f]:
                                    continue
                                old = vals[f]
                                vals[f] = ov_val[c]
                                try:
                                    out_c = eval_gate(
                                        gate_op[g], gate_row[g], gate_call[g],
                                        gate_inputs[g], gstate[g], vals,
                                    )
                                except Exception:
                                    out_c = None
                                vals[f] = old
                                if out_c != out_l:
                                    deviators |= bit
                        vals[net_slot] = val_old
                    if deviators:
                        rem_nets = batch_nets[index:]
                        rem_values = batch_values[index:]
                        rng_pair = (
                            (sim_rng.getstate(), env_rng.getstate())
                            if jittered
                            else None
                        )
                        mask = deviators
                        while mask:
                            bit = mask & -mask
                            mask -= bit
                            c = bit.bit_length() - 1
                            f = fslot[c]
                            vals_c = bytearray(vals)
                            vals_c[f] = ov_val[c]
                            pend_c = bytearray(pend)
                            pend_c[f] = ov_pend[c]
                            gstate_c = bytearray(gstate)
                            driver = driver_of[f]
                            if driver >= 0:
                                gstate_c[driver] = fval[c]
                            queue_c = queue.clone()
                            queue_c.push_front(batch_time, rem_nets, rem_values)
                            extractions[c] = (
                                vals_c,
                                pend_c,
                                gstate_c,
                                queue_c,
                                list(counts),
                                processed,
                                rng_pair,
                            )
                        live &= ~deviators
                index += 1
                processed += 1
                if vals[net_slot] == value:
                    continue
                vals[net_slot] = value
                mask = con_mask[net_slot] & live
                while mask:
                    bit = mask & -mask
                    mask -= bit
                    ov_val[bit.bit_length() - 1] = value
                obs_index = obs_of[net_slot]
                if obs_index >= 0:
                    counts[obs_index] += 1

                for gate_slot in fanout[net_slot]:
                    new_output = eval_gate(
                        gate_op[gate_slot], gate_row[gate_slot],
                        gate_call[gate_slot], gate_inputs[gate_slot],
                        gstate[gate_slot], vals,
                    )
                    gstate[gate_slot] = new_output
                    output_slot = gate_output[gate_slot]
                    if new_output != pend[output_slot]:
                        delay = gate_delay[gate_slot]
                        if jitter > 0:
                            delay = sim_uniform(
                                delay * (1.0 - jitter), delay * (1.0 + jitter)
                            )
                        schedule(batch_time + delay, output_slot, new_output)

                for tslot, tvalue, delay, tname in rules_by[
                    net_slot + net_slot + value
                ]:
                    if env_jitter > 0:
                        # HandshakeEnvironment._delay draws per matching
                        # rule -- before schedule() can reject an
                        # unknown target (argument evaluation order).
                        delay = env_uniform(
                            delay * (1.0 - env_jitter),
                            delay * (1.0 + env_jitter),
                        )
                    if tslot < 0:
                        from repro.circuit.netlist import NetlistError

                        raise NetlistError(f"unknown net {tname!r}")
                    schedule(batch_time + delay, tslot, tvalue)

                if index < batch_size and heap_times and heap_times[0] < batch_time:
                    # Negative-delay rule scheduled into the past: yield
                    # to the earlier timestamp exactly like the heap.
                    queue.push_front(
                        batch_time, batch_nets[index:], batch_values[index:]
                    )
                    break
        leader_rng = (
            (sim_rng.getstate(), env_rng.getstate()) if jittered else None
        )

        # -- verdict assembly, in fault order -----------------------------------------
        golden = (self.golden_finals, self.golden_counts)
        golden_finals = self.golden_finals
        golden_counts = self.golden_counts
        verdicts: List[Optional[Tuple[bool, str]]] = [None] * count
        rng_states: List[Optional[Tuple]] = [None] * count
        self.rng_states = rng_states
        for c in range(count):
            slot = fslot[c]
            bit = 1 << c
            if slot < 0:
                # Unknown net: a no-op overlay that replays the golden
                # trajectory (and its draw history) unchanged.
                verdicts[c] = (False, REASON_SAME)
                rng_states[c] = leader_rng
                continue
            if live & bit:
                # Still in lockstep at the end: state equals the
                # leader's everywhere but the faulted net, and counts
                # equal the golden counts, so the verdict reads straight
                # off the override column.
                if obs_of[slot] >= 0 and ov_val[c] != vals[slot]:
                    verdicts[c] = (True, REASON_DIFFERENT)
                else:
                    verdicts[c] = (False, REASON_SAME)
                rng_states[c] = leader_rng
                continue
            if settle_deviators & bit:
                # Deviated before any event fired: run the copy whole.
                try:
                    finals, fcounts, diverged = self._run_copy(
                        (slot, fval[c]), golden
                    )
                except (RuntimeError, ValueError) as exc:
                    verdicts[c] = (True, f"{REASON_ABNORMAL}: {exc}")
                    continue
                rng_states[c] = self.last_copy_rng
                if (
                    diverged
                    or finals != golden_finals
                    or fcounts != golden_counts
                ):
                    verdicts[c] = (True, REASON_DIFFERENT)
                else:
                    verdicts[c] = (False, REASON_SAME)
                continue
            # Extracted mid-trajectory: resume the scalar drain from the
            # pre-deviation snapshot.
            (
                vals_c,
                pend_c,
                gstate_c,
                queue_c,
                counts_c,
                processed_c,
                rng_pair,
            ) = extractions[c]
            gate_op_c, gate_row_c, _initial = compiled.stuck_at_overlay(
                slot, fval[c]
            )
            if rng_pair is None:
                sim_c = env_c = None
            else:
                sim_c = random.Random()
                sim_c.setstate(rng_pair[0])
                env_c = random.Random()
                env_c.setstate(rng_pair[1])
            try:
                finals, fcounts, diverged = self._drain(
                    gate_op_c,
                    gate_row_c,
                    vals_c,
                    pend_c,
                    gstate_c,
                    queue_c,
                    counts_c,
                    processed_c,
                    sim_c,
                    env_c,
                    golden_counts,
                )
            except (RuntimeError, ValueError) as exc:
                verdicts[c] = (True, f"{REASON_ABNORMAL}: {exc}")
                continue
            rng_states[c] = self.last_copy_rng
            if (
                diverged
                or finals != golden_finals
                or fcounts != golden_counts
            ):
                verdicts[c] = (True, REASON_DIFFERENT)
            else:
                verdicts[c] = (False, REASON_SAME)
        return verdicts  # type: ignore[return-value]

    # -- one copy through the kernel loop ---------------------------------------------
    def _run_copy(
        self,
        overlay: Optional[Tuple[int, int]],
        golden: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool]:
        """Simulate one copy from scratch; returns ``(finals, counts, diverged)``.

        ``golden is None`` is the recording (golden) run; otherwise the
        copy is compared against the golden counts as it goes and drops
        out of observable bookkeeping once divergence is committed
        (``diverged`` true forces the detected verdict regardless of the
        frozen counts).  The reference ``run()`` order: settle, the
        environment's initial stimuli, then the drain.  Under jitter
        the copy owns two fresh ``random.Random(seed)`` streams (gate
        delays / handshake rules) -- the reference path builds a
        standalone simulator and environment per fault, both seeded with
        the campaign seed -- and its final RNG states land in
        ``last_copy_rng``.
        """
        compiled = self.compiled
        if overlay is None:
            gate_op = compiled.gate_op
            gate_row = compiled.gate_row
            initial = compiled.initial_values
        else:
            gate_op, gate_row, initial = compiled.stuck_at_overlay(*overlay)
        sim_rng = env_rng = None
        if self.jittered:
            sim_rng = random.Random(self.seed)
            env_rng = random.Random(self.seed)
        vals = bytearray(initial)
        pend = vals[:]
        gstate = bytearray(vals[output] for output in compiled.gate_output)
        queue = BatchEventQueue()
        settle(
            compiled, gate_op, gate_row, vals, pend, gstate, queue, 0.0,
            self.delay_jitter, sim_rng and sim_rng.uniform,
        )
        for slot, value, time in self.stimuli:
            queue.push(time, slot, value)
            pend[slot] = value
        return self._drain(
            gate_op,
            gate_row,
            vals,
            pend,
            gstate,
            queue,
            [0] * len(self.obs_slots),
            0,
            sim_rng,
            env_rng,
            None if golden is None else golden[1],
        )

    def _drain(
        self,
        gate_op,
        gate_row,
        vals: bytearray,
        pend: bytearray,
        gstate: bytearray,
        queue: BatchEventQueue,
        counts: List[int],
        processed: int,
        sim_rng: Optional[random.Random],
        env_rng: Optional[random.Random],
        golden_counts: Optional[Tuple[int, ...]],
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool]:
        """Drain one copy's queue to the duration limit.

        Resumable: state planes, queue, counts, event count, and RNG
        streams arrive exactly as they stood mid-trajectory (the sweep's
        extraction path) or fresh after settle+stimuli
        (:meth:`_run_copy`).  Runs the kernel's one event loop over this
        copy's packed tables (the fault-free packing, with only the nets
        feeding the overlay-patched driver gate rebuilt), with the
        compiled handshake rules, observable counting and -- for fault
        copies with exact (integral) event times and no jitter -- the
        period hunt.  Sets ``last_copy_rng`` and ``last_processed`` on
        normal completion.
        """
        self.last_copy_rng = None
        base = self._packed_base
        if base is None:
            base = self._packed_base = _analysis.get(self.compiled, "packed-fanout")
        hunt = None
        if golden_counts is not None and self.integral_times and not self.jittered:
            hunt = _PeriodHunt(
                vals, pend, gstate, queue, self.limit, self.max_events, golden_counts
            )
        processed, diverged = drain(
            pack_fanout_tables(self.compiled, gate_op, gate_row, base),
            self.compiled.gate_call,
            vals,
            pend,
            gstate,
            queue,
            max_events=self.max_events,
            reacts=self._reacts,
            processed=processed,
            limit=self.limit,
            jitter=self.delay_jitter,
            sim_uniform=sim_rng and sim_rng.uniform,
            rules_by=self.rules_by,
            env_jitter=self.env_jitter,
            env_uniform=env_rng and env_rng.uniform,
            obs_of=self.obs_of,
            counts=counts,
            golden_counts=golden_counts,
            hunt=hunt,
        )
        if sim_rng is not None:
            self.last_copy_rng = (sim_rng.getstate(), env_rng.getstate())
        self.last_processed = processed
        finals = tuple(vals[slot] for slot in self.obs_slots)
        return finals, tuple(counts), diverged


# Flattened handshake rule (repro.analysis.compilecache.campaign_params
# order), quacking like HandshakeRule for _compile_rules.
_FlatRule = namedtuple(
    "_FlatRule", "trigger trigger_value target target_value delay_ps"
)


def build_sweep(netlist, compiled: CompiledNetlist, params, golden=None, golden_events=0):
    """Construct a :class:`_FaultSweep` from a flattened campaign configuration.

    ``params`` is the dict built by
    :func:`repro.analysis.compilecache.campaign_params`: rules and
    stimuli as plain tuples, observables as a name tuple or ``None``
    (meaning the netlist's primary outputs, falling back to all nets).
    Shared by :class:`FaultSimEngine` and the ``"golden-signature"``
    analysis so both resolve names to slots identically; with ``golden``
    supplied the golden replay is skipped, exactly as in the worker
    reconstruction path.
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
        golden_events=golden_events,
    )


def _run_fault_shard(ref, items):
    """Worker entry point: sweep one shard of a published campaign.

    ``items`` is a list of ``(campaign index, net slot, value)``; the
    campaign itself (tables, environment, golden signature) comes from
    the payload handle, reconstructed once per token and cached.
    """
    sweep = _SWEEP_CACHE.get(ref.token)
    if sweep is None:
        campaign = pickle.loads(pool.fetch_payload(ref))
        # The decoded sweep below supersedes the raw bytes; drop them
        # rather than double-retaining (a re-fetch after a rare sweep
        # eviction re-attaches the still-published segment, and inline
        # handles carry their bytes in the ref anyway).
        pool.forget_cached_payload(ref)
        sweep = _FaultSweep(
            CompiledNetlist.from_tables(campaign["tables"]),
            [tuple(map(tuple, entries)) for entries in campaign["rules_by"]],
            campaign["stimuli"],
            campaign["obs_slots"],
            campaign["duration_ps"],
            campaign["max_events"],
            delay_jitter=campaign["delay_jitter"],
            env_jitter=campaign["env_jitter"],
            seed=campaign["seed"],
            golden=campaign["golden"],
            golden_events=campaign.get("golden_events", 0),
        )
        while len(_SWEEP_CACHE) >= _SWEEP_CACHE_MAX:
            _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
        _SWEEP_CACHE[ref.token] = sweep
    verdicts = sweep.sweep([(slot, value) for _index, slot, value in items])
    return [
        (index, detected, reason)
        for (index, _slot, _value), (detected, reason) in zip(items, verdicts)
    ]


class FaultSimEngine:
    """Compile-once batch fault simulator for one campaign setup.

    One engine owns one ``(netlist, environment, stimuli, observables,
    duration, jitter)`` configuration: construction compiles the
    netlist, runs the golden trace, and captures its observable
    signature.  Each :meth:`run` call then sweeps a batch of stuck-at
    faults -- in process, or sharded over the persistent worker pool
    with the campaign published once through the shared-memory payload
    path.  The published payload is released by :meth:`close` (or the
    context manager); as a backstop a ``weakref.finalize`` hook releases
    it when an unclosed engine is garbage-collected or the interpreter
    exits, so no ``/dev/shm`` segment outlives the process.

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
        compiled: Optional[CompiledNetlist] = None,
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
        # The manager-cached path needs content fingerprints; a caller
        # handing in an explicit CompiledNetlist owns its lifecycle (and
        # may have built it from tables with no backing netlist), so
        # that path keeps the self-contained construction.
        managed = compiled is None and hasattr(netlist, "analysis_fingerprint")
        golden = None
        golden_events = 0
        signature = None
        if managed:
            compiled = _analysis.get(netlist, "compile")
            signature = _analysis.get(netlist, "golden-signature", **params)
            golden = (signature["finals"], signature["counts"])
            golden_events = signature["events"]
        elif compiled is None:
            netlist.validate()
            compiled = CompiledNetlist(netlist)
        self.netlist = netlist
        self.seed = seed
        self._sweep = build_sweep(
            netlist, compiled, params, golden=golden, golden_events=golden_events
        )
        if signature is not None:
            self._sweep.golden_rng_state = signature["rng_state"]
        # Structural collapsing is exact only for deterministic delays:
        # under jitter an extra or missing event shifts every subsequent
        # draw of the shared per-copy RNG streams, so no two distinct
        # injections are draw-for-draw equivalent (and the per-copy
        # rng_states bookkeeping must stay aligned with the fault list).
        # The explicit-compiled path opts out too: the plan is derived
        # from the netlist through the manager, which only provably
        # matches a manager-compiled slot space.
        self._collapse = bool(collapse) and managed and not self._sweep.jittered
        self._campaign_params = params
        self._collapse_plan = None
        self.last_collapse: Optional[Dict[str, int]] = None
        self._payload_ref: Optional[pool.PayloadRef] = None
        self._finalizer: Optional[weakref.finalize] = None

    @property
    def compiled(self) -> CompiledNetlist:
        return self._sweep.compiled

    def golden_signature(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(final values, transition counts) over the observable slots."""
        return self._sweep.golden_signature()

    # -- sharding ---------------------------------------------------------------------
    def _payload(self) -> pool.PayloadRef:
        """Publish the campaign once; later shard calls reuse the handle."""
        if self._payload_ref is None:
            sweep = self._sweep
            blob = pickle.dumps(
                {
                    "tables": sweep.compiled.to_tables(),
                    "rules_by": sweep.rules_by,
                    "stimuli": sweep.stimuli,
                    "obs_slots": sweep.obs_slots,
                    "duration_ps": sweep.duration_ps,
                    "max_events": sweep.max_events,
                    "delay_jitter": sweep.delay_jitter,
                    "env_jitter": sweep.env_jitter,
                    "seed": sweep.seed,
                    "golden": sweep.golden_signature(),
                    "golden_events": sweep.golden_events,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            ref = pool.publish_payload(blob)
            self._payload_ref = ref
            # Release on garbage collection *or* interpreter exit: a
            # finalize hook runs before module globals are torn down,
            # unlike ``__del__`` during shutdown, so an engine that was
            # never closed still cannot leak its /dev/shm segment.
            self._finalizer = weakref.finalize(self, pool.release_payload, ref)
        return self._payload_ref

    def close(self) -> None:
        """Release the published campaign payload (idempotent)."""
        finalizer = self._finalizer
        self._finalizer = None
        self._payload_ref = None
        if finalizer is not None:
            finalizer()

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

        verdicts: List[Optional[Tuple[bool, str]]] = [None] * len(slot_faults)
        static = 0
        reps: List[Tuple[int, int]] = []
        rep_index: Dict[Tuple[int, int], int] = {}
        for index, fault in enumerate(slot_faults):
            if fault[0] < 0 or fault in plan.static_same:
                # Unknown nets are no-op overlays (the golden copy);
                # static_same members are provably golden-equivalent.
                verdicts[index] = (False, REASON_SAME)
                static += 1
                continue
            rep = plan.rep_of.get(fault, fault)
            if rep not in rep_index:
                rep_index[rep] = len(reps)
                reps.append(rep)
        rep_verdicts = (
            self._sweep_verdicts(reps, shards, use_processes) if reps else []
        )
        # A representative that hit the event cap (or a raising OP_CALL
        # gate) proves nothing about its members: the equivalence
        # argument compares *completed* trajectories.  Re-simulate those
        # members as themselves.
        fallback: List[Tuple[int, int]] = []
        fallback_index: Dict[Tuple[int, int], int] = {}
        for index, fault in enumerate(slot_faults):
            if verdicts[index] is not None:
                continue
            rep = plan.rep_of.get(fault, fault)
            verdict = rep_verdicts[rep_index[rep]]
            if fault != rep and verdict[1].startswith(REASON_ABNORMAL):
                if fault not in fallback_index:
                    fallback_index[fault] = len(fallback)
                    fallback.append(fault)
            else:
                verdicts[index] = verdict
        if fallback:
            fallback_verdicts = self._sweep_verdicts(
                fallback, shards, use_processes
            )
            for index, fault in enumerate(slot_faults):
                if verdicts[index] is None:
                    verdicts[index] = fallback_verdicts[fallback_index[fault]]
        self.last_collapse = {
            "faults": len(slot_faults),
            "simulated": len(reps) + len(fallback),
            "static": static,
            "fallback": len(fallback),
        }
        return verdicts  # type: ignore[return-value]

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
            indexed = [
                (index, slot, value)
                for index, (slot, value) in enumerate(slot_faults)
            ]
            # Round-robin keeps quick (deadlocking) and slow (full
            # duration) faults spread across workers.
            chunks = [
                indexed[start::shard_count] for start in range(shard_count)
            ]
            chunks = [chunk for chunk in chunks if chunk]
            # Supervised dispatch (repro.engine.resilience): per-chunk
            # deadlines, infrastructure-only retries with pool respawn,
            # partial-result salvage.  A genuine engine error raised by
            # worker kernel code propagates -- the old broad
            # ``except RuntimeError`` that masked it behind a silent
            # in-process rerun is gone.
            try:
                executor = pool.get_pool()
            except (OSError, PermissionError):
                # Workers cannot be spawned at all on this host.
                pool.discard()
                pool.LAST_DECISION.update(
                    use_pool=False, reason="pool-spawn-failed"
                )
            else:
                ref = self._payload()
                items = [(ref, chunk) for chunk in chunks]
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
                        chunk = chunks[chunk_index]
                        verdicts = self._sweep.sweep(
                            [(slot, value) for _index, slot, value in chunk]
                        )
                        chunk_results[chunk_index] = [
                            (index, detected, reason)
                            for (index, _slot, _value), (detected, reason) in zip(
                                chunk, verdicts
                            )
                        ]
                    _resilience.mark_degraded("in-process-salvage")
                    pool.LAST_DECISION.update(reason="pool-dispatch-degraded")
                merged: List[Optional[Tuple[bool, str]]] = [None] * len(
                    slot_faults
                )
                for chunk_result in chunk_results:
                    for index, detected, reason in chunk_result:
                        merged[index] = (detected, reason)
                pool.LAST_DECISION.update(payload=ref.kind)
                return merged  # type: ignore[return-value]
        return self._sweep.sweep(slot_faults)
