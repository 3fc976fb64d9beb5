"""The engine's one scalar event loop, its gate evaluator and settle pass.

Every timed gate-level simulation in the repo -- the public
:class:`repro.circuit.simulator.EventDrivenSimulator` and every copy the
batch fault engine (:mod:`repro.engine.faultsim`) runs -- executes the
delta-cycle semantics defined here, over the flat structures prepared by
:class:`~repro.engine.events.CompiledNetlist`:

* **One evaluator.**  :func:`eval_gate` evaluates a compiled gate row
  against a flat value plane: a table gate folds its input bits into a
  truth-table index and does one shift-and-mask, threshold rows compare
  an input sum, and ``OP_CALL`` gates (uncompilable behaviours) still go
  through ``GateType.evaluate``, preserving reference error semantics.
* **One settle pass.**  :func:`settle` schedules corrections for gates
  whose initial output disagrees with their output net (the equivalent
  of releasing reset on silicon), without updating gate state -- exactly
  like the reference settling pass.
* **One drain.**  :func:`drain` pops all events sharing a timestamp as
  one batch (:class:`~repro.engine.events.BatchEventQueue`, whose heap
  and buckets it operates on inline) and commits them in schedule order
  against flat integer arrays: current/pending value planes dedupe
  no-change events and already-scheduled transitions without touching
  the heap.  Commits are applied one at a time *within* the batch --
  collapsing a gate's several same-time evaluations into one would
  swallow the zero-width glitch pulses the reference simulator records
  (two changes at one timestamp) -- so the dedup is exactly the
  reference's, just over arrays instead of dicts and objects.  Each
  net's fanout is pre-packed (:func:`pack_fanout_tables`) into
  ``(gate, op, row, inputs, output, delay)`` tuples, with 1-6-input
  table gates demoted to arity-specialised private opcodes that index
  their row with one unrolled expression, and a one-entry cache of the
  last push target replaces most bucket probes.
* **One rule compiler and one period hunt.**  :func:`_compile_rules`
  turns handshake rules into the drain's jump table, and
  :class:`_PeriodHunt` detects an exactly periodic trajectory (equal
  state planes and equal queue relative to the batch time) and skips
  every whole period that fits before the time limit -- exact when
  every event time is an integer-valued double.

The drain's callers add only what they observe.  :class:`SimKernel`
records every commit into per-net flat ``array('d')`` time /
``array('b')`` value columns (materialised lazily as ``Waveform``
objects by :class:`LazyWaveforms`).  A lone ``HandshakeEnvironment``
runs as compiled rules; any other environment gets its
``Environment.on_change`` called.  With no callback, no jitter, a time
limit and exact-integer times the kernel arms the period hunt, which
then appends whole periods of columns instead of simulating them.  A
fault copy counts commits on its observable nets, fires compiled
handshake rules, and hands the drain its golden counts (divergence),
the provable event-cap shortcut and a period hunt over its counts (see
:mod:`repro.engine.faultsim`).

Observable behaviour -- commit order, waveform changes, ``value_at``,
event counts, end and simulator times, RNG draw order under jitter,
raised errors and the state they leave -- is bit-identical to
``_ReferenceEventDrivenSimulator``; the differential suite
(``tests/test_engine_differential.py``) enforces this over seeded
random netlists, the synthesized FIFO fixtures, extrapolated FIFO
chains and ring oscillators, and adversarial same-timestamp glitch
cases, and pins every fault campaign against
``_reference_simulate_faults``.

The kernel also accepts a *stuck-at overlay* (``overlay=(net slot,
value)``): the patched ``gate_op``/``gate_row``/``initial_values``
tables from :meth:`~repro.engine.events.CompiledNetlist.stuck_at_overlay`
replace the shared ones, the faulted net's driver dispatching as
``OP_CONST`` -- the single-copy form of the fault engine's per-copy
overlays.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.events import (
    OP_CALL,
    OP_CONST,
    OP_TABLE,
    OP_WIDE_AND,
    OP_WIDE_NAND,
    OP_WIDE_NOR,
    OP_WIDE_OR,
    BatchEventQueue,
    CompiledNetlist,
)

# Arity-specialized OP_TABLE variants, private to the packed per-net
# fanout representation the drain loop runs on: table gates of arity 1-6
# (every synthesized complex gate in practice) index their row with a
# single unrolled expression instead of a per-input loop.  Never stored
# in CompiledNetlist tables.
_OP_TABLE1 = -1
_OP_TABLE2 = -2
_OP_TABLE3 = -3
_OP_TABLE4 = -4
_OP_TABLE5 = -5
_OP_TABLE6 = -6

_INF = float("inf")
# Doubles represent every integer below this exactly.
_EXACT_BOUND = 2.0**53
# Delay fields of a packed fanout entry and of a compiled handshake rule.
_GATE_DELAY = itemgetter(5)
_RULE_DELAY = itemgetter(2)

_NO_RULES: Tuple = ()

# Cap on the number of (state, queue) snapshots one period hunt keeps,
# and on their approximate footprint (three state bytes per net plus
# per-entry overhead); aperiodic trajectories stop snapshotting past it
# and simply drain in full.
_CYCLE_SNAPSHOT_MAX = 20_000
_SNAPSHOT_BYTES = 16 << 20

# A recorded run's hunt returns this when the extrapolated span would
# cross ``max_events``: nothing skipped, hunt dropped, and the drain
# reaches the cap event by event, leaving the reference's state behind.
_STAND_DOWN = (0, 0.0, False, False)


def oscillation_error(max_events: int) -> RuntimeError:
    """The reference simulator's event-cap error."""
    return RuntimeError(
        f"simulation exceeded {max_events} events; "
        "the circuit is probably oscillating"
    )


def _exact_integer(value: float) -> bool:
    """True when ``value`` is an integer exactly representable as a double."""
    return abs(value) < _EXACT_BOUND and value == int(value)


def _compile_rules(rules, net_index: Dict[str, int], num_nets: int):
    """Handshake rules as a flat jump table indexed by ``slot * 2 + value``.

    Preserves ``HandshakeEnvironment.on_change`` exactly: for each
    committed change every matching rule fires in declaration order.  A
    rule triggered by a net the netlist does not have, or by a value a
    net never takes (neither 0 nor 1), can never fire; a rule
    *targeting* an unknown net keeps the name so the fire-time error
    matches ``EventDrivenSimulator.schedule``.
    """
    table: List[Tuple[Tuple[int, int, float, str], ...]] = [
        _NO_RULES for _ in range(2 * num_nets)
    ]
    grouped: Dict[int, List[Tuple[int, int, float, str]]] = {}
    for rule in rules:
        trigger_slot = net_index.get(rule.trigger)
        if trigger_slot is None or rule.trigger_value not in (0, 1):
            continue
        key = trigger_slot * 2 + (1 if rule.trigger_value == 1 else 0)
        grouped.setdefault(key, []).append(
            (
                net_index.get(rule.target, -1),
                int(bool(rule.target_value)),
                float(rule.delay_ps),
                rule.target,
            )
        )
    for key, entries in grouped.items():
        table[key] = tuple(entries)
    return table


def rule_triggers(rules_by: Sequence[Tuple]) -> bytes:
    """The drain's ``reacts`` mask for a compiled rule table: trigger nets."""
    return bytes(
        1 if (rules_by[i] or rules_by[i + 1]) else 0
        for i in range(0, len(rules_by), 2)
    )


def eval_gate(op, row, call, input_slots, state, vals):
    """Evaluate one compiled gate row against a flat value plane."""
    if op == OP_TABLE:
        idx = state
        for slot in input_slots:
            idx += idx + vals[slot]
        return (row >> idx) & 1
    if op == OP_CONST:
        return row
    if op == OP_CALL:
        return call([vals[slot] for slot in input_slots], state)
    total = 0
    for slot in input_slots:
        total += vals[slot]
    if op == OP_WIDE_AND:
        return 1 if total == row else 0
    if op == OP_WIDE_NAND:
        return 0 if total == row else 1
    if op == OP_WIDE_OR:
        return 1 if total else 0
    if op == OP_WIDE_NOR:
        return 0 if total else 1
    return total & 1  # OP_WIDE_XOR


def settle(
    compiled: CompiledNetlist,
    gate_op,
    gate_row,
    vals,
    pend,
    gstate,
    queue: BatchEventQueue,
    time: float,
    jitter: float,
    uniform: Optional[Callable[[float, float], float]],
) -> None:
    """Schedule corrections for gates whose initial output is inconsistent.

    Netlists built from decomposed logic may declare initial values only
    for interface nets; intermediate nets then need one settling pass.
    Gate state is not updated -- exactly like the reference settling
    pass -- and under jitter each correction draws its delay from
    ``uniform`` in gate order.
    """
    gate_call = compiled.gate_call
    gate_inputs = compiled.gate_inputs
    gate_output = compiled.gate_output
    gate_delay = compiled.gate_delay
    for g in range(len(gate_op)):
        output = eval_gate(
            gate_op[g], gate_row[g], gate_call[g], gate_inputs[g], gstate[g], vals
        )
        output_slot = gate_output[g]
        if output != vals[output_slot]:
            delay = gate_delay[g]
            if jitter > 0:
                delay = uniform(delay * (1.0 - jitter), delay * (1.0 + jitter))
            queue.push(time + delay, output_slot, output)
            pend[output_slot] = output


def _pack_net(compiled: CompiledNetlist, net: int, gate_op, gate_row) -> Tuple:
    """Pack one net's fanout gates as ``(gate, op, row, inputs, output, delay)``."""
    gate_inputs = compiled.gate_inputs
    gate_output = compiled.gate_output
    gate_delay = compiled.gate_delay
    entries = []
    for g in compiled.fanout[net]:
        op = gate_op[g]
        inputs = gate_inputs[g]
        if op == OP_TABLE and 1 <= len(inputs) <= 6:
            op = -len(inputs)
        entries.append((g, op, gate_row[g], inputs, gate_output[g], gate_delay[g]))
    return tuple(entries)


def pack_fanout_tables(
    compiled: CompiledNetlist,
    gate_op=None,
    gate_row=None,
    base: Optional[List[Tuple]] = None,
) -> List[Tuple]:
    """Per-net packed fanout tables for :func:`drain`.

    Packs the fault-free tables by default (the ``"packed-fanout"``
    analysis).  ``gate_op``/``gate_row`` may be overlay-patched tables;
    given ``base``, the packing of the fault-free tables, only the nets
    feeding a patched gate are rebuilt and every other net's tuple is
    shared.
    """
    if gate_op is None:
        gate_op, gate_row = compiled.gate_op, compiled.gate_row
    if base is None:
        return [
            _pack_net(compiled, net, gate_op, gate_row)
            for net in range(len(compiled.fanout))
        ]
    base_op = compiled.gate_op
    base_row = compiled.gate_row
    if gate_op is base_op and gate_row is base_row:
        return base
    patched_nets = set()
    for g, op in enumerate(gate_op):
        if op != base_op[g] or gate_row[g] != base_row[g]:
            patched_nets.update(compiled.gate_inputs[g])
    if not patched_nets:
        return base
    packed = list(base)
    for net in patched_nets:
        packed[net] = _pack_net(compiled, net, gate_op, gate_row)
    return packed


def drain(
    packed: Sequence[Tuple],
    gate_call: Sequence,
    vals,
    pend,
    gstate,
    queue: BatchEventQueue,
    *,
    max_events: int,
    reacts: bytes,
    processed: int = 0,
    limit: float = _INF,
    jitter: float = 0.0,
    sim_uniform: Optional[Callable[[float, float], float]] = None,
    rules_by: Sequence[Tuple] = (),
    env_jitter: float = 0.0,
    env_uniform: Optional[Callable[[float, float], float]] = None,
    environments: Sequence = (),
    net_names: Sequence[str] = (),
    simulator: Any = None,
    record: Optional[Tuple[List[array], List[array]]] = None,
    obs_of: Sequence[int] = (),
    counts: Optional[List[int]] = None,
    golden_counts: Optional[Tuple[int, ...]] = None,
    hunt: Any = None,
) -> Tuple[int, bool]:
    """Drain ``queue`` until it is empty, past ``limit``, or over ``max_events``.

    The state planes (``vals``/``pend``/``gstate``) and the queue arrive
    as they stand -- fresh after :func:`settle` plus stimuli, or mid
    trajectory (a fault copy forked off the golden run) --
    and ``processed`` counts the events already popped.  Returns
    ``(processed, diverged)``.  The queue's heap and buckets are mutated
    inline and its count is synced on every exit.

    A commit on net ``n`` with ``reacts[n]`` set reaches the
    environment: each of ``environments`` gets ``on_change(simulator,
    net_names[n], value, time)`` (callbacks that may schedule through
    the queue's public API), or with none given the compiled handshake
    rules ``rules_by[2n + value]`` fire.  ``record`` is a pair of
    per-net time/value columns every commit appends to, and
    ``simulator.time`` follows the batch time.

    ``counts`` switches on fault-copy bookkeeping: per-observable commit
    counts (``obs_of`` maps a net to its observable index), the
    provable event-cap shortcut, and with ``golden_counts`` the
    divergence check (a count exceeding its golden final count commits
    the detection and stops counting).  ``hunt`` is the fault engine's
    period hunt, visited at every eighth batch top.
    """
    heap_times = queue._times
    buckets = queue._buckets
    qcount = queue._count
    col_times, col_values = record if record is not None else (None, None)
    # An event can only preempt the rest of its batch when something
    # schedules strictly into the past: a callback, a negative delay, or
    # over-unity jitter flipping a positive one.  With none of them the
    # per-event heap peek is provably dead.
    may_preempt = (
        bool(environments)
        or jitter >= 1.0
        or env_jitter >= 1.0
        or min(map(_GATE_DELAY, chain.from_iterable(packed)), default=0) < 0
        or min(map(_RULE_DELAY, chain.from_iterable(rules_by)), default=0) < 0
    )
    counting = counts is not None
    diverged = False
    batch_no = 0
    # One-entry push-target cache: glitch trains push the same target
    # time many times in a row, so the float compare usually replaces a
    # dict probe.  None never compares equal to a float time.
    cached_time = None
    cached_nets = cached_vals = None
    in_batch = False
    try:
        while qcount:
            batch_time = heap_times[0]
            if batch_time > limit:
                break
            if counts is not None and processed + qcount > max_events:
                # Every queued event at or before the limit must be
                # popped before the loop can end any other way, so the
                # cap is provably crossed: raise without draining the
                # flood (event avalanches grow the queue geometrically
                # and are never periodic).
                eligible = processed + sum(
                    len(nets)
                    for time, (nets, _values) in buckets.items()
                    if time <= limit
                )
                if eligible > max_events:
                    raise oscillation_error(max_events)
            if hunt is not None:
                batch_no += 1
                if not batch_no & 7:
                    queue._count = qcount
                    period = hunt.visit(processed, batch_time, counts, diverged)
                    if period is not None:
                        # The trajectory is periodic: either nothing is
                        # left to run, or whole periods were skipped
                        # (queue shifted, so the cached push target is
                        # stale; counts and columns advanced in place)
                        # and the partial tail drains exactly.
                        skipped, shift, diverges, resolved = period
                        hunt = None
                        cached_time = None
                        if diverges:
                            diverged = True
                            counting = False
                        if resolved:
                            break
                        processed += skipped
                        if simulator is not None:
                            simulator.time += shift
                        continue
            batch_time = heappop(heap_times)
            batch_nets, batch_values = buckets.pop(batch_time)
            if batch_time == cached_time:
                # The cached bucket is now the batch being consumed.
                cached_time = None
            batch_size = len(batch_nets)
            qcount -= batch_size
            room = max_events - processed
            if simulator is not None and room > 0:
                # The reference advances its clock per processed event,
                # after the cap check: a batch whose first event trips
                # the cap leaves the previous time standing.
                simulator.time = batch_time
            index = 0
            in_batch = True
            for net_slot, value in zip(batch_nets, batch_values):
                index += 1
                if index > room:
                    raise oscillation_error(max_events)
                if vals[net_slot] == value:
                    continue
                vals[net_slot] = value
                if col_times is not None:
                    col_times[net_slot].append(batch_time)
                    col_values[net_slot].append(value)
                if counting:
                    obs_index = obs_of[net_slot]
                    if obs_index >= 0:
                        count = counts[obs_index] + 1
                        counts[obs_index] = count
                        if (
                            golden_counts is not None
                            and count > golden_counts[obs_index]
                        ):
                            # Counts are monotone: exceeding the golden
                            # final count commits the detection.  The
                            # loop keeps draining (or the period hunt
                            # resolves it) so error semantics stay
                            # bit-identical to the reference.
                            counting = False
                            diverged = True

                for (
                    gate_slot,
                    op,
                    row,
                    g_inputs,
                    output_slot,
                    g_delay,
                ) in packed[net_slot]:
                    if op == _OP_TABLE2:
                        a, b = g_inputs
                        idx = (((gstate[gate_slot] << 1) + vals[a]) << 1) + vals[b]
                        new_output = (row >> idx) & 1
                    elif op == _OP_TABLE3:
                        a, b, c = g_inputs
                        idx = (((gstate[gate_slot] << 1) + vals[a]) << 1) + vals[b]
                        new_output = (row >> ((idx << 1) + vals[c])) & 1
                    elif op == _OP_TABLE4:
                        a, b, c, d = g_inputs
                        idx = (((gstate[gate_slot] << 1) + vals[a]) << 1) + vals[b]
                        idx = (((idx << 1) + vals[c]) << 1) + vals[d]
                        new_output = (row >> idx) & 1
                    elif op == _OP_TABLE5:
                        a, b, c, d, e = g_inputs
                        idx = (((gstate[gate_slot] << 1) + vals[a]) << 1) + vals[b]
                        idx = (((idx << 1) + vals[c]) << 1) + vals[d]
                        new_output = (row >> ((idx << 1) + vals[e])) & 1
                    elif op == _OP_TABLE6:
                        a, b, c, d, e, f = g_inputs
                        idx = (((gstate[gate_slot] << 1) + vals[a]) << 1) + vals[b]
                        idx = (((idx << 1) + vals[c]) << 1) + vals[d]
                        idx = (((idx << 1) + vals[e]) << 1) + vals[f]
                        new_output = (row >> idx) & 1
                    elif op == _OP_TABLE1:
                        (a,) = g_inputs
                        new_output = (row >> ((gstate[gate_slot] << 1) + vals[a])) & 1
                    else:
                        new_output = eval_gate(
                            op, row, gate_call[gate_slot], g_inputs,
                            gstate[gate_slot], vals,
                        )
                    gstate[gate_slot] = new_output
                    if new_output != pend[output_slot]:
                        if jitter <= 0:
                            delay = g_delay
                        else:
                            delay = sim_uniform(
                                g_delay * (1.0 - jitter), g_delay * (1.0 + jitter)
                            )
                        time = batch_time + delay
                        if time == cached_time:
                            cached_nets.append(output_slot)
                            cached_vals.append(new_output)
                        else:
                            bucket = buckets.get(time)
                            if bucket is None:
                                cached_nets = [output_slot]
                                cached_vals = [new_output]
                                heappush(heap_times, time)
                                buckets[time] = (cached_nets, cached_vals)
                            else:
                                cached_nets, cached_vals = bucket
                                cached_nets.append(output_slot)
                                cached_vals.append(new_output)
                            cached_time = time
                        qcount += 1
                        pend[output_slot] = new_output

                if reacts[net_slot]:
                    if environments:
                        queue._count = qcount
                        net = net_names[net_slot]
                        try:
                            for environment in environments:
                                environment.on_change(
                                    simulator, net, value, batch_time
                                )
                        finally:
                            # A callback that raised may have scheduled first.
                            qcount = queue._count
                    else:
                        for tslot, tvalue, delay, tname in rules_by[
                            net_slot + net_slot + value
                        ]:
                            if env_jitter > 0:
                                # HandshakeEnvironment._delay draws per
                                # matching rule -- before schedule() can
                                # reject an unknown target (argument
                                # evaluation order).
                                delay = env_uniform(
                                    delay * (1.0 - env_jitter),
                                    delay * (1.0 + env_jitter),
                                )
                            if tslot < 0:
                                from repro.circuit.netlist import NetlistError

                                raise NetlistError(f"unknown net {tname!r}")
                            time = batch_time + delay
                            bucket = buckets.get(time)
                            if bucket is None:
                                heappush(heap_times, time)
                                buckets[time] = ([tslot], [tvalue])
                            else:
                                bucket[0].append(tslot)
                                bucket[1].append(tvalue)
                            qcount += 1
                            pend[tslot] = tvalue

                if (
                    may_preempt
                    and index < batch_size
                    and heap_times
                    and heap_times[0] < batch_time
                ):
                    # Something was scheduled into the past -- an
                    # environment, a negative delay, or over-unity
                    # jitter: put the rest of this batch back (ahead of
                    # any newer same-time events) and pop the earlier
                    # timestamp first, exactly as the reference heap
                    # would.
                    queue._count = qcount
                    queue.push_front(
                        batch_time, batch_nets[index:], batch_values[index:]
                    )
                    qcount = queue._count
                    break
            in_batch = False
            processed += index
    except BaseException:
        if in_batch:
            # The reference pops (and loses) the event that raised -- the
            # event-cap trip, an unknown rule target, a gate or callback
            # error -- but leaves the rest of the batch in its heap;
            # requeue the remainder so post-exception state matches.
            queue._count = qcount
            queue.push_front(batch_time, batch_nets[index:], batch_values[index:])
            qcount = queue._count
        raise
    finally:
        queue._count = qcount
    return processed, diverged


class _PeriodHunt:
    """Exact periodic steady-state extrapolation for one :func:`drain` call.

    Visited by the drain at the top of every eighth batch.  Snapshots
    map ``(state, relative queue)`` to ``(processed, time, observable
    counts, queue, misses, column lengths)``; oversized queues (event
    avalanches never become periodic) are not snapshotted, and past
    ``_CYCLE_SNAPSHOT_MAX`` entries (fewer on netlists so large that
    those would exceed ``_SNAPSHOT_BYTES``) aperiodic runs stop paying
    for it.

    Exactness needs every event time to be an exactly-representable
    integer (integral delays and stimuli, no jitter draws, no Python
    callbacks) -- then a repeated snapshot proves the trajectory from
    there on is the window since the earlier snapshot, shifted by whole
    periods.  Two users arm it:

    * a fault copy (``golden_counts``): per-observable commit counts
      extrapolate by their per-period delta, a proven ``max_events``
      crossing raises the reference oscillation error at once, and a
      copy whose detection is committed stops as soon as the cap is
      provably out of reach;
    * a recorded run (``record``, :meth:`SimKernel.drain`): the per-net
      ``(time, value)`` column window between the two snapshots is
      appended once per skipped period, shifted by ``k * period``.  A
      span that would cross ``max_events`` makes the hunt stand down
      instead, so the drain meets the cap event by event and leaves the
      reference's post-error state.
    """

    __slots__ = (
        "vals",
        "pend",
        "gstate",
        "queue",
        "limit",
        "max_events",
        "golden_counts",
        "record",
        "queue_cap",
        "snapshot_cap",
        "snapshots",
    )

    def __init__(
        self,
        vals,
        pend,
        gstate,
        queue: BatchEventQueue,
        limit: float,
        max_events: int,
        golden_counts: Optional[Tuple[int, ...]] = None,
        record: Optional[Tuple[List[array], List[array]]] = None,
    ) -> None:
        self.vals = vals
        self.pend = pend
        self.gstate = gstate
        self.queue = queue
        self.limit = limit
        self.max_events = max_events
        self.golden_counts = golden_counts
        self.record = record
        self.queue_cap = 8 * len(vals) + 64
        self.snapshot_cap = min(
            _CYCLE_SNAPSHOT_MAX, _SNAPSHOT_BYTES // (3 * len(vals) + 200)
        )
        self.snapshots: Dict = {}

    def visit(
        self,
        processed: int,
        now: float,
        counts: Optional[List[int]],
        diverged: bool,
    ) -> Optional[Tuple[int, float, bool, bool]]:
        """Snapshot this batch top; extrapolate once the trajectory repeats.

        Returns ``None`` while no period is known, else ``(events
        skipped, time skipped, divergence committed, nothing left to
        run)`` from :meth:`_extrapolate`; the drain drops the hunt on
        any answer.
        """
        snapshots = self.snapshots
        if (
            len(self.queue) > self.queue_cap
            or len(snapshots) >= self.snapshot_cap
        ):
            return None
        # Two-level key: the flat state bytes are cheap to build; the
        # relative queue tuple (sorting, nested tuples) is only built
        # when the flat state has been seen before -- i.e. when a repeat
        # is plausible.  A fresh flat state is stored without its queue;
        # the first revisit anchors the entry with the queue seen then
        # (which, for a periodic orbit, is already the orbit's queue
        # even when the flat state also occurred during the transient);
        # later revisits compare exactly.  A key whose anchor keeps
        # mismatching is phase aliasing (the flat state recurs with
        # distinct queues), not a period: blacklist it so non-periodic
        # runs stop paying for queue snapshots.
        cheap_key = bytes(self.vals) + bytes(self.pend) + bytes(self.gstate)
        seen = snapshots.get(cheap_key)
        if seen is None:
            snapshots[cheap_key] = (
                processed, now, None if counts is None else tuple(counts),
                None, 0, None,
            )
            return None
        if seen is False:
            return None
        seen_processed, seen_time, seen_counts, seen_queue, misses, lengths = seen
        queue_rel = self.queue.relative_snapshot(now)
        if seen_queue is None:
            record = self.record
            snapshots[cheap_key] = (
                processed, now, None if counts is None else tuple(counts),
                queue_rel, 0, None if record is None else array("q", map(len, record[0])),
            )
        elif queue_rel == seen_queue:
            period = now - seen_time
            period_events = processed - seen_processed
            if period > 0 and period_events > 0:
                return self._extrapolate(
                    processed, now, period, period_events, counts, seen_counts,
                    diverged, lengths,
                )
        elif misses >= 7:
            snapshots[cheap_key] = False
        else:
            snapshots[cheap_key] = seen[:4] + (misses + 1, lengths)
        return None

    def _extrapolate(
        self,
        processed: int,
        now: float,
        period: float,
        period_events: int,
        counts: Optional[List[int]],
        seen_counts: Optional[Tuple[int, ...]],
        diverged: bool,
        lengths: Optional[array],
    ) -> Tuple[int, float, bool, bool]:
        """Skip every whole period that fits before the time limit.

        From the repeat point the evolution is shift-invariant (all times
        are exact integers), so everything observable extrapolates
        exactly: the event count at the time limit, per-observable
        commit counts (each cycle commits the identical observable
        transitions) and recorded columns (each cycle appends the
        identical window, shifted).  For a fault copy, a ``max_events``
        crossing within the cycles that fit raises the reference
        oscillation error; when detection is committed (already
        diverged, or the extrapolated counts provably exceed the golden
        ones) *and* the cap is provably unreachable, the verdict no
        longer depends on the final state and nothing is left to
        simulate.  Otherwise the queue shifts forward in place by every
        whole period that fits; the drain then runs the remaining
        partial tail (less than one period) exactly -- that covers an
        ambiguous cap landing inside the tail as well as the final state.
        """
        max_events = self.max_events
        limit = self.limit
        record = self.record
        if limit == _INF:
            # Periodic with events per period > 0 and no time limit: the
            # event cap is crossed with certainty.
            if record is not None:
                return _STAND_DOWN
            raise oscillation_error(max_events)
        full_cycles = int((limit - now) // period)
        # Guard the float floor-division against a non-integral limit:
        # every period must fit entirely at or before the limit.
        while full_cycles > 0 and now + full_cycles * period > limit:
            full_cycles -= 1
        total_after = processed + full_cycles * period_events
        if total_after > max_events:
            if record is not None:
                return _STAND_DOWN
            raise oscillation_error(max_events)
        golden_counts = self.golden_counts
        will_diverge = diverged
        if golden_counts is not None:
            delta = [count - seen for count, seen in zip(counts, seen_counts)]
            will_diverge = diverged or any(
                counts[index] + full_cycles * delta[index] > golden_counts[index]
                for index in range(len(counts))
            )
            if will_diverge and total_after + period_events <= max_events:
                # Even a whole extra cycle cannot reach the cap (the
                # remaining tail is at most a partial cycle): fully
                # resolved.
                return 0, 0.0, True, True
        shift = full_cycles * period
        if shift:
            queue = self.queue
            shifted = {
                time + shift: bucket for time, bucket in queue._buckets.items()
            }
            queue._buckets.clear()
            queue._buckets.update(shifted)
            queue._times[:] = [time + shift for time in queue._times]
            if golden_counts is not None:
                for index, step in enumerate(delta):
                    counts[index] += full_cycles * step
            if record is not None:
                self._replicate(lengths, period, full_cycles)
        return full_cycles * period_events, shift, will_diverge, False

    def _replicate(self, lengths: array, period: float, cycles: int) -> None:
        """Append each net's column window once per skipped period."""
        col_times, col_values = self.record
        offsets = [cycle * period for cycle in range(1, cycles + 1)]
        for slot, start in enumerate(lengths):
            times = col_times[slot]
            if len(times) == start:
                continue
            window = times[start:]
            times.extend([time + offset for offset in offsets for time in window])
            values = col_values[slot]
            values.extend(values[start:] * cycles)


class LazyWaveforms(Mapping):
    """Read-only mapping of net name -> ``Waveform``, materialised lazily.

    The kernel records transitions into flat per-net columns; a
    ``Waveform`` (with its list-of-tuples ``changes``) is only built when
    a net is actually looked up.  Materialised objects are cached and, on
    any later lookup, extended **in place** with whatever their column
    gained since (e.g. a trace held across a second ``run()`` call), so
    every alias of a materialised waveform sees the growth -- like the
    reference simulator's live objects, except that the catch-up happens
    at lookup time rather than mid-simulation (a held ``Waveform`` is
    only guaranteed current after the mapping has been read again).
    """

    __slots__ = ("_factory", "_net_names", "_net_index", "_times", "_values", "_cache")

    def __init__(
        self,
        factory: Callable[[str, List[Tuple[float, int]]], Any],
        net_names: Sequence[str],
        net_index: Dict[str, int],
        times: List[array],
        values: List[array],
    ) -> None:
        self._factory = factory
        self._net_names = net_names
        self._net_index = net_index
        self._times = times
        self._values = values
        self._cache: Dict[str, Any] = {}

    def __getitem__(self, net: str):
        slot = self._net_index[net]
        times = self._times[slot]
        cached = self._cache.get(net)
        if cached is not None:
            changes = cached.changes
            have = len(changes)
            if have < len(times):  # columns only ever grow (reset swaps them)
                changes.extend(zip(times[have:], self._values[slot][have:]))
            return cached
        waveform = self._factory(net, list(zip(times, self._values[slot])))
        self._cache[net] = waveform
        return waveform

    def __iter__(self):
        return iter(self._net_names)

    def __len__(self) -> int:
        return len(self._net_names)

    def __contains__(self, net) -> bool:
        return net in self._net_index

    def __repr__(self) -> str:
        return f"LazyWaveforms({len(self._net_names)} nets)"

    def transition_count(self, net: str) -> int:
        """One net's transition count, read off its column (0 if unknown)."""
        slot = self._net_index.get(net)
        return 0 if slot is None else len(self._times[slot]) - 1

    def total_transitions(self) -> int:
        """Sum of per-net transition counts, read off the raw columns.

        Lets ``SimulationTrace.total_transitions`` skip materialising a
        ``Waveform`` (and its list of tuples) for every net.
        """
        return sum(len(times) - 1 for times in self._times if len(times) > 1)


class SimKernel:
    """Mutable simulation state for one ``EventDrivenSimulator``.

    The simulator forwards ``schedule``/``reset`` and calls :meth:`settle`
    and :meth:`drain` from its ``run``; both run the module-level pass
    and loop over the kernel's planes.  Environment callbacks receive
    the *simulator* (public API), never the kernel.
    """

    __slots__ = (
        "compiled",
        "rng",
        "delay_jitter",
        "_waveform_factory",
        "gate_op",
        "gate_row",
        "initial_values",
        "packed",
        "values",
        "pending",
        "gate_state",
        "queue",
        "col_times",
        "col_values",
        "waveforms",
    )

    def __init__(
        self,
        compiled: CompiledNetlist,
        waveform_factory: Callable[[str, List[Tuple[float, int]]], Any],
        delay_jitter: float = 0.0,
        overlay: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.compiled = compiled
        self.delay_jitter = delay_jitter
        self._waveform_factory = waveform_factory
        if overlay is None:
            self.gate_op = compiled.gate_op
            self.gate_row = compiled.gate_row
            self.initial_values = compiled.initial_values
        else:
            # Stuck-at overlay: the faulted net's driver becomes OP_CONST
            # and its initial value is pinned; every other table is
            # shared with the un-faulted compilation.
            self.gate_op, self.gate_row, self.initial_values = (
                compiled.stuck_at_overlay(*overlay)
            )
        self.packed = pack_fanout_tables(compiled, self.gate_op, self.gate_row)
        self.rng = None  # set by reset()

    def reset(self, rng) -> None:
        """Re-arm the kernel: fresh values, queue, and transition columns.

        The previous queue (buckets, heap) and columns are dropped
        wholesale -- no slab or free-list state survives into the next
        run -- and the caller passes a freshly seeded RNG so jitter draws
        restart from the seed.
        """
        compiled = self.compiled
        self.rng = rng
        initial = self.initial_values
        try:
            # Flat integer arrays for the hot-path dedup; netlists with
            # exotic initial values (outside a byte) fall back to lists
            # with identical indexing semantics.
            self.values = bytearray(initial)
            self.gate_state = bytearray(
                self.values[output] for output in compiled.gate_output
            )
        except ValueError:
            self.values = list(initial)
            self.gate_state = [self.values[output] for output in compiled.gate_output]
        self.pending = type(self.values)(self.values)
        self.queue = BatchEventQueue()
        self.col_times: List[array] = []
        self.col_values: List[array] = []
        for slot, value in enumerate(initial):
            self.col_times.append(array("d", (0.0,)))
            try:
                self.col_values.append(array("b", (value,)))
            except OverflowError:  # pragma: no cover - exotic initial value
                self.col_values.append([value])  # type: ignore[arg-type]
        self.waveforms = LazyWaveforms(
            self._waveform_factory,
            compiled.net_names,
            compiled.net_index,
            self.col_times,
            self.col_values,
        )

    @property
    def event_count(self) -> int:
        """Committed net changes since reset: one column entry each."""
        return sum(map(len, self.col_times)) - len(self.col_times)

    # -- scheduling -------------------------------------------------------------------
    def schedule_slot(self, slot: int, value: int, time: float) -> None:
        self.queue.push(time, slot, value)
        self.pending[slot] = value

    def settle(self, time: float) -> None:
        """Schedule the settling corrections (see :func:`settle`)."""
        settle(
            self.compiled,
            self.gate_op,
            self.gate_row,
            self.values,
            self.pending,
            self.gate_state,
            self.queue,
            time,
            self.delay_jitter,
            self.rng.uniform,
        )

    # -- main loop --------------------------------------------------------------------
    def drain(
        self,
        simulator,
        environments: Sequence,
        end_time: Optional[float],
        max_events: int,
    ) -> None:
        """Run :func:`drain` with waveform recording and environment reactions.

        ``simulator`` is the owning ``EventDrivenSimulator``: its ``time``
        attribute follows the batch time (all events in a batch share
        it) and it is what environment callbacks receive.  A lone
        ``HandshakeEnvironment`` (exactly that class: a subclass may
        override ``on_change``) is compiled into the drain's rule jump
        table, its jitter drawing from the environment's own RNG in
        ``on_change`` order; any other environment keeps the callback
        path.  With no callback left, no jitter, a time limit and
        exact-integer times the period hunt is armed (see
        :meth:`_period_hunt`).
        """
        compiled = self.compiled
        num_nets = len(compiled.net_names)
        rules_by: Sequence[Tuple] = ()
        env_jitter = 0.0
        env_uniform = None
        reacts = (b"\x01" if environments else b"\x00") * num_nets
        if len(environments) == 1:
            from repro.circuit.simulator import HandshakeEnvironment

            environment = environments[0]
            if type(environment) is HandshakeEnvironment:
                try:
                    rules_by = _compile_rules(
                        environment.rules, compiled.net_index, num_nets
                    )
                except (TypeError, ValueError):
                    # A malformed rule (unhashable net, non-numeric
                    # delay) fails only when it fires in on_change.
                    rules_by = ()
                else:
                    env_jitter = environment.jitter
                    env_uniform = environment._rng.uniform
                    reacts = rule_triggers(rules_by)
                    environments = ()
        limit = _INF if end_time is None else end_time
        hunt = None
        if not environments and not self.delay_jitter > 0 and not env_jitter > 0:
            hunt = self._period_hunt(rules_by, limit, max_events)
        drain(
            self.packed,
            compiled.gate_call,
            self.values,
            self.pending,
            self.gate_state,
            self.queue,
            max_events=max_events,
            reacts=reacts,
            limit=limit,
            jitter=self.delay_jitter,
            sim_uniform=self.rng.uniform,
            rules_by=rules_by,
            env_jitter=env_jitter,
            env_uniform=env_uniform,
            environments=environments,
            net_names=compiled.net_names,
            simulator=simulator,
            record=(self.col_times, self.col_values),
            hunt=hunt,
        )

    def _period_hunt(
        self, rules_by: Sequence[Tuple], limit: float, max_events: int
    ) -> Optional[_PeriodHunt]:
        """A recording period hunt, when extrapolation is provably exact.

        Every time the run can reach -- queued times, gate and rule
        delays added to times up to the limit -- must be an exact
        integer double, and no delay may be negative (batch times then
        never decrease, so every skipped period lies at or before the
        limit).  Byte planes are needed for the hunt's state keys.
        """
        if type(self.values) is not bytearray:
            return None
        delays = list(self.compiled.gate_delay)
        delays.extend(map(_RULE_DELAY, chain.from_iterable(rules_by)))
        if min(delays, default=0) < 0 or not all(
            map(_exact_integer, chain(delays, self.queue._times))
        ):
            return None
        if not limit + max(delays, default=0) < _EXACT_BOUND:
            return None
        return _PeriodHunt(
            self.values,
            self.pending,
            self.gate_state,
            self.queue,
            limit,
            max_events,
            record=(self.col_times, self.col_values),
        )
