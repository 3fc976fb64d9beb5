"""Shared performance core for exploration and simulation hot paths.

The reproduction has three hot loops: explicit-state reachability over STG
marking graphs (:mod:`repro.petrinet.reachability` and
:mod:`repro.stategraph.graph`), event-driven gate simulation
(:mod:`repro.circuit.simulator`), and RAPPID trace evaluation
(:mod:`repro.rappid.microarch`).  This package holds the engine they all
delegate to.  The public APIs of those modules are unchanged -- the old
entry points now compile their inputs into the interned representations
below and decode the results back; callers never see engine types unless
they import them explicitly.

Marking encoding scheme (``engine.marking``)
--------------------------------------------
:class:`~repro.engine.marking.NetEncoding` is built once per Petri net.
Every place gets a fixed *slot* (its index in net insertion order) and
every transition a fixed index with its pre/post-sets flattened to
``(slot, weight)`` tuples.  During exploration a marking is either:

* an ``int`` bitmask, one bit per place slot (**safe path**, used when the
  caller explores with ``bound=1`` on a unit-weight, capacity-free net --
  the STG flow).  The enabled test for transition ``t`` is
  ``marking & need_mask[t] == need_mask[t]`` against the precomputed
  enabled-transition mask, and firing is two bit operations.  A produced
  token landing on a marked place the fire did not consume is exactly a
  safety (bound) violation and raises immediately.
* a tuple of per-slot token counts (**general path**: weighted arcs,
  capacities, other bounds).  Enabledness walks the flattened pre-set,
  firing copies the tuple once.

Both keys hash and compare in C.  ``Marking`` objects -- which sort and
hash their place-name strings on every construction -- are materialised
only once per *distinct* reachable marking, after exploration finishes,
instead of once per fired edge.

The codec holds the repo's only two exploration loops, one BFS core per
key encoding (``explore_bits``, ``explore_counts``).  Callers adapt them
through three optional hooks: ``select`` (the stubborn subset of a
reduced exploration), ``relabel`` (a signal code riding as a trailing
count-tuple slot) and ``discover`` (a callback on each new key).

When delegation kicks in
------------------------
* ``build_reachability_graph`` (and ``explore``, its reduced default)
  always delegates; it picks the safe path when called with ``bound=1``
  and falls back to the general path otherwise, including when the
  initial marking is itself unsafe.  The pre-engine BFS is retained as
  ``_reference_build_reachability_graph`` for differential testing.
  ``check_boundedness`` runs the general path with a ``discover`` hook.
* ``build_state_graph`` and ``check_consistency`` run the general path
  with a ``relabel`` hook over keys whose trailing slot is a code int
  packing one bit per signal in ``signal_order``; ``State``/``Marking``
  objects are materialised after exploration in BFS discovery order.
* ``EventDrivenSimulator`` compiles its netlist once
  (:class:`~repro.engine.events.CompiledNetlist`): net names become array
  slots, the per-event ``fanout_of`` scan over every gate becomes a
  precomputed adjacency list, and every gate becomes an integer opcode
  plus a packed truth-table/threshold row.  The event loop itself is the
  engine's one scalar drain (:func:`~repro.engine.simkernel.drain`), run
  by :class:`~repro.engine.simkernel.SimKernel`: same-timestamp events
  drain as one delta-cycle batch through the time-bucketed
  :class:`~repro.engine.events.BatchEventQueue`, dedup happens over flat
  integer arrays, and transitions are recorded into per-net columns that
  materialise ``Waveform`` objects lazily
  (:class:`~repro.engine.simkernel.LazyWaveforms`).  The naive simulator
  is retained as ``_ReferenceEventDrivenSimulator``.
* ``repro.testability`` fault campaigns run on
  :class:`~repro.engine.faultsim.FaultSimEngine`: the netlist compiles
  once, stuck-at faults become ``OP_CONST`` overlays on the compiled
  tables (:meth:`~repro.engine.events.CompiledNetlist.stuck_at_overlay`),
  every fault copy forks off one golden drain at the first event that
  can read its faulted net and finishes in the same scalar drain the
  simulator uses (detected copies drop out of observable bookkeeping
  the moment they diverge).  Large campaigns ship small chunks to the
  persistent pool, each carrying the campaign pickled once into a
  token-tagged blob that every worker decodes once per token.  The
  per-fault netlist-rebuilding loop is retained as
  ``repro.testability.simulation._reference_simulate_faults``.
* ``RappidDecoder.run`` delegates to
  :func:`~repro.engine.rappid_batch.run_batched`, which performs the same
  floating-point operations in the same order as the retained
  ``RappidDecoder._reference_run`` (bit-identical results) after
  collapsing the latency models into lookup tables and the instruction
  stream into flat arrays.  It is one in-process pass: a single fast
  loop plus vectorised steering and reductions.

Resilient dispatch (``engine.resilience`` + ``engine.chaos``)
-------------------------------------------------------------
The pool's one consumer, ``FaultSimEngine``'s contiguous fault chunks,
dispatches through
:func:`~repro.engine.resilience.supervised_map`: per-task deadlines,
bounded retries with exponential backoff for *infrastructure* failures
only (broken pool, spawn/IPC errors, timeouts), automatic pool respawn
mid-campaign, and partial-result salvage -- completed chunks are kept
and only lost/late chunks re-dispatch (work units are deterministic, so
retried results are bit-identical).  Worker-raised application errors
propagate.  Recovery decisions land in the PoolHealth record
(:data:`~repro.engine.resilience.LAST_HEALTH`), and the deterministic
chaos harness (:class:`~repro.engine.chaos.ChaosPlan`) injects seeded
worker kills/hangs/campaign-decode failures through exactly these paths
so the chaos suite can pin recovered campaigns against undisturbed ones.  See
``docs/resilience.md``.

Invariants relied on by the differential suite
----------------------------------------------
Exploration visits markings in the same BFS order, fires transitions in
net insertion order, and reports bound/capacity violations for the same
place (sorted-name order) as the reference implementations, so results --
including raised errors -- are indistinguishable from the naive code.
"""

from repro.engine.chaos import ChaosPlan
from repro.engine.events import BatchEventQueue, CompiledNetlist
from repro.engine.faultsim import FaultSimEngine
from repro.engine.marking import EncodingError, NetEncoding
from repro.engine.rappid_batch import run_batched
from repro.engine.resilience import PoolDispatchError, supervised_map
from repro.engine.simkernel import LazyWaveforms, SimKernel

__all__ = [
    "BatchEventQueue",
    "ChaosPlan",
    "CompiledNetlist",
    "EncodingError",
    "FaultSimEngine",
    "LazyWaveforms",
    "NetEncoding",
    "PoolDispatchError",
    "SimKernel",
    "run_batched",
    "supervised_map",
]
