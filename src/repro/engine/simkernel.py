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

The drain's callers add only what they observe.  :class:`SimKernel`
records every commit into per-net flat ``array('d')`` time /
``array('b')`` value columns (materialised lazily as ``Waveform``
objects by :class:`LazyWaveforms`) and calls each
``Environment.on_change``; a fault copy counts commits on its observable
nets, fires compiled handshake rules, and hands the drain its golden
counts (divergence), the provable event-cap shortcut and a period hunt
(see :mod:`repro.engine.faultsim`).

Observable behaviour -- commit order, waveform changes, ``value_at``,
event counts, RNG draw order under jitter, raised errors -- is
bit-identical to ``_ReferenceEventDrivenSimulator``; the differential
suite (``tests/test_engine_differential.py``) enforces this over seeded
random netlists, the synthesized FIFO fixtures, and adversarial
same-timestamp glitch cases, and pins every fault campaign against
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
# Delay fields of a packed fanout entry and of a compiled handshake rule.
_GATE_DELAY = itemgetter(5)
_RULE_DELAY = itemgetter(2)


def oscillation_error(max_events: int) -> RuntimeError:
    """The reference simulator's event-cap error."""
    return RuntimeError(
        f"simulation exceeded {max_events} events; "
        "the circuit is probably oscillating"
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
    trajectory (a fault copy extracted from the sweep's leader pass) --
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
                        # stale, and counts advanced in place) and the
                        # partial tail drains exactly.
                        skipped, diverges, resolved = period
                        hunt = None
                        cached_time = None
                        if diverges:
                            diverged = True
                            counting = False
                        if resolved:
                            break
                        processed += skipped
                        continue
            batch_time = heappop(heap_times)
            batch_nets, batch_values = buckets.pop(batch_time)
            if batch_time == cached_time:
                # The cached bucket is now the batch being consumed.
                cached_time = None
            batch_size = len(batch_nets)
            qcount -= batch_size
            if simulator is not None:
                simulator.time = batch_time
            room = max_events - processed
            index = 0
            for net_slot, value in zip(batch_nets, batch_values):
                index += 1
                if index > room:
                    # The reference pops (and loses) the triggering event
                    # but leaves the rest in its heap; requeue the batch
                    # remainder so post-exception state matches.
                    queue._count = qcount
                    queue.push_front(
                        batch_time, batch_nets[index:], batch_values[index:]
                    )
                    qcount = queue._count
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
                        for environment in environments:
                            environment.on_change(simulator, net, value, batch_time)
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
            processed += index
    finally:
        queue._count = qcount
    return processed, diverged


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
        """Run :func:`drain` with waveform recording and environment callbacks.

        ``simulator`` is the owning ``EventDrivenSimulator``: its ``time``
        attribute follows the batch time (all events in a batch share
        it) and it is what environment callbacks receive.
        """
        drain(
            self.packed,
            self.compiled.gate_call,
            self.values,
            self.pending,
            self.gate_state,
            self.queue,
            max_events=max_events,
            reacts=(b"\x01" if environments else b"\x00") * len(self.values),
            limit=_INF if end_time is None else end_time,
            jitter=self.delay_jitter,
            sim_uniform=self.rng.uniform,
            environments=environments,
            net_names=self.compiled.net_names,
            simulator=simulator,
            record=(self.col_times, self.col_values),
        )
