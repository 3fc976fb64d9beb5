"""Persistent worker pool: reuse, fork-safety guard, fallback policy.

The pool (:mod:`repro.engine.pool`) is process-global state, so these
tests always restore a clean slate via the ``fresh_pool`` fixture.
"""

import os
import time

import pytest

from repro.engine import pool


@pytest.fixture
def fresh_pool():
    pool.shutdown()
    yield
    pool.shutdown()


class TestPersistentPool:
    def test_pool_is_created_lazily_and_reused(self, fresh_pool):
        assert pool.worker_pids() == ()
        first = pool.get_pool()
        assert pool.get_pool() is first
        assert pool.get_pool(max_workers=7) is first  # sized once, shared after

    def test_shutdown_is_idempotent_and_allows_recreation(self, fresh_pool):
        first = pool.get_pool()
        pool.shutdown()
        pool.shutdown()
        second = pool.get_pool()
        assert second is not first
        assert list(second.map(int, "123")) == [1, 2, 3]

    def test_fork_safety_guard_rebuilds_in_other_process(self, fresh_pool, monkeypatch):
        first = pool.get_pool()
        # Simulate being a forked child: the recorded creator PID no
        # longer matches.  get_pool must hand out a *new* executor rather
        # than the inherited (unusable) one.
        monkeypatch.setattr(pool, "_POOL_PID", os.getpid() + 1)
        second = pool.get_pool()
        assert second is not first
        pool.shutdown()

    def test_repeated_campaign_reuses_workers(self, fresh_pool, fifo_rt):
        """Second call spawns no new processes (worker-pid probe)."""
        from repro.circuit.analysis import fifo_environment_rules
        from repro.testability.simulation import (
            campaign_signature,
            simulate_faults,
        )

        def campaign():
            return simulate_faults(
                fifo_rt.netlist, fifo_environment_rules(), [("li", 1, 50.0)],
                duration_ps=10_000.0, shards=2, use_processes=True,
            )

        first = campaign()
        executor = pool.get_pool()
        pids_after_first = pool.worker_pids()
        assert pids_after_first, "forced pool run must have spawned workers"

        second = campaign()
        assert pool.get_pool() is executor
        assert pool.worker_pids() == pids_after_first
        assert campaign_signature(first) == campaign_signature(second)


class TestPoolDecision:
    def test_forced_modes_bypass_policy(self):
        assert pool.decide(1_000_000, 4, 8, forced=True) == (True, "forced-pool")
        assert pool.decide(1_000_000, 4, 8, forced=False) == (
            False,
            "forced-in-process",
        )

    def test_single_cpu_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda: 1)
        use_pool, reason = pool.decide(10_000_000, 4, 8)
        assert not use_pool and reason == "single-cpu"
        assert pool.LAST_DECISION["cpu_count"] == 1

    def test_small_per_shard_work_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda: 8)
        floor = 8
        small = floor * 4 - 4
        use_pool, reason = pool.decide(small, 4, floor)
        assert not use_pool and reason == "below-threshold"
        use_pool, reason = pool.decide(small + 4, 4, floor)
        assert use_pool and reason == "pool"


class TestCampaignSweepCache:
    """The worker-side sweep cache behind ``_run_fault_shard``.

    A pooled campaign ships its pickled ``(token, blob)`` pair inline in
    every chunk; each process decodes a token once and keeps at most
    ``_SWEEP_CACHE_MAX`` decoded sweeps, evicting the oldest first.
    """

    @pytest.fixture
    def engine(self, fifo_rt, monkeypatch):
        from repro.circuit.analysis import fifo_environment_rules
        from repro.engine import faultsim

        monkeypatch.setattr(faultsim, "_SWEEP_CACHE", {})
        with faultsim.FaultSimEngine(
            fifo_rt.netlist,
            fifo_environment_rules(),
            [("li", 1, 50.0)],
            duration_ps=5_000.0,
        ) as engine:
            yield engine

    @staticmethod
    def _chunk(engine, start=0, size=2):
        slots = sorted(engine.compiled.net_index.values())[start : start + size]
        return [(index, slot, 1) for index, slot in enumerate(slots)]

    @staticmethod
    def _spy_decodes(monkeypatch):
        import pickle
        import types

        from repro.engine import faultsim

        decoded = []

        def loads(blob):
            decoded.append(blob)
            return pickle.loads(blob)

        monkeypatch.setattr(faultsim, "pickle", types.SimpleNamespace(loads=loads))
        return decoded

    def test_two_chunks_of_one_campaign_decode_once(self, engine, monkeypatch):
        from repro.engine import faultsim

        campaign = engine._campaign()
        assert engine._campaign() is campaign  # pickled once per engine
        decoded = self._spy_decodes(monkeypatch)
        first, second = self._chunk(engine, 0), self._chunk(engine, 2)
        verdicts = faultsim._run_fault_shard(campaign, first)
        verdicts += faultsim._run_fault_shard(campaign, second)
        assert decoded == [campaign[1]]
        assert list(faultsim._SWEEP_CACHE) == [campaign[0]]
        expected = engine._sweep.sweep(
            [(slot, value) for _index, slot, value in first + second]
        )
        assert verdicts == expected

    def test_distinct_tokens_evict_oldest_first(self, engine, monkeypatch):
        from repro.engine import faultsim

        _token, blob = engine._campaign()
        tokens = [f"token-{n}" for n in range(faultsim._SWEEP_CACHE_MAX + 1)]
        decoded = self._spy_decodes(monkeypatch)
        chunk = self._chunk(engine, size=1)
        for token in tokens:
            faultsim._run_fault_shard((token, blob), chunk)
        assert len(decoded) == len(tokens)
        assert list(faultsim._SWEEP_CACHE) == tokens[1:]
        # A hit does not refresh its entry: eviction is FIFO, not LRU.
        faultsim._run_fault_shard((tokens[1], blob), chunk)
        assert len(decoded) == len(tokens)
        # The evicted token decodes again and pushes out the oldest.
        faultsim._run_fault_shard((tokens[0], blob), chunk)
        assert len(decoded) == len(tokens) + 1
        assert list(faultsim._SWEEP_CACHE) == tokens[2:] + tokens[:1]

    def test_fetch_fault_fires_only_on_a_cache_miss(self, engine):
        from repro.engine import chaos, faultsim

        warm, blob = engine._campaign()
        chunk = self._chunk(engine, size=1)
        faultsim._run_fault_shard((warm, blob), chunk)
        with chaos.active(chaos.ChaosPlan(seed=0, payload_fetch_fail=1)) as plan:
            faultsim._run_fault_shard((warm, blob), chunk)  # hit: no check
            # A caller-supplied sweep (in-process salvage) skips the decode.
            faultsim._run_fault_shard(("cold", blob), chunk, engine._sweep)
            assert plan.injected("payload-fetch-fail") == 0
            with pytest.raises(OSError, match=r"chaos\[payload-fetch-fail\]"):
                faultsim._run_fault_shard(("cold", blob), chunk)
            assert "cold" not in faultsim._SWEEP_CACHE
            faultsim._run_fault_shard(("cold", blob), chunk)  # occurrence 1
        assert plan.injected("payload-fetch-fail") == 1
        assert list(faultsim._SWEEP_CACHE) == [warm, "cold"]


class TestInlineCampaign:
    """The engine's pickled campaign and its inline route to the workers.

    One engine pickles its campaign at most once into a ``(token, blob)``
    pair; every chunk item carries that pair, so a worker -- first
    spawned, respawned, or running a retried chunk -- rebuilds the sweep
    from the item alone, and no campaign state lives outside the engine.
    """

    @staticmethod
    def _engine(fifo_rt, **kwargs):
        from repro.circuit.analysis import fifo_environment_rules
        from repro.engine.faultsim import FaultSimEngine

        return FaultSimEngine(
            fifo_rt.netlist,
            fifo_environment_rules(),
            [("li", 1, 50.0)],
            duration_ps=5_000.0,
            **kwargs,
        )

    @staticmethod
    def _slot_faults(engine):
        return [
            (slot, value)
            for slot in sorted(engine.compiled.net_index.values())
            for value in (0, 1)
        ]

    @staticmethod
    def _items(slot_faults):
        return [(index, slot, value) for index, (slot, value) in enumerate(slot_faults)]

    @pytest.fixture
    def empty_cache(self, monkeypatch):
        from repro.engine import faultsim

        monkeypatch.setattr(faultsim, "_SWEEP_CACHE", {})
        return faultsim._SWEEP_CACHE

    def test_campaign_is_pickled_once_per_engine(self, fifo_rt):
        import re

        engine = self._engine(fifo_rt)
        campaign = engine._campaign()
        assert engine._campaign() is campaign
        token, blob = campaign
        assert re.fullmatch(r"[0-9a-f]{32}", token)
        assert isinstance(blob, bytes) and blob

    def test_engines_mint_distinct_tokens(self, fifo_rt):
        first, second = self._engine(fifo_rt), self._engine(fifo_rt)
        assert first._campaign()[0] != second._campaign()[0]

    def test_blob_carries_every_sweep_parameter(self, fifo_rt):
        import pickle

        engine = self._engine(fifo_rt, delay_jitter=0.1, seed=11)
        sweep = engine._sweep
        fields = pickle.loads(engine._campaign()[1])
        assert set(fields) == {
            "tables", "rules_by", "stimuli", "obs_slots", "duration_ps",
            "max_events", "delay_jitter", "env_jitter", "seed", "golden",
        }
        assert fields["duration_ps"] == sweep.limit == 5_000.0
        assert fields["max_events"] == sweep.max_events
        assert fields["delay_jitter"] == sweep.delay_jitter == 0.1
        assert fields["env_jitter"] == sweep.env_jitter == 0.0
        assert fields["seed"] == sweep.seed == 11
        assert fields["obs_slots"] == sweep.obs_slots
        assert fields["golden"] == sweep.golden_record()

    def test_close_drops_the_blob_and_the_next_campaign_gets_a_new_token(
        self, fifo_rt
    ):
        import pickle

        engine = self._engine(fifo_rt)
        old_token, old_blob = engine._campaign()
        engine.close()
        assert engine._pickled is None
        engine.close()  # idempotent
        new_token, new_blob = engine._campaign()
        assert new_token != old_token
        assert pickle.loads(new_blob) == pickle.loads(old_blob)

    def test_context_exit_drops_the_blob_even_on_error(self, fifo_rt):
        with pytest.raises(RuntimeError, match="inside the block"):
            with self._engine(fifo_rt) as engine:
                engine._campaign()
                raise RuntimeError("inside the block")
        assert engine._pickled is None

    def test_in_process_runs_never_pickle(self, fifo_rt):
        engine = self._engine(fifo_rt, collapse=False)
        faults = [
            (net, value) for net in engine.compiled.net_index for value in (0, 1)
        ]
        engine.run(faults, use_processes=False)
        assert pool.LAST_DECISION["reason"] == "forced-in-process"
        assert engine._pickled is None

    def test_jittered_blob_rebuilds_the_same_draws(self, fifo_rt, empty_cache):
        from repro.engine import faultsim

        engine = self._engine(fifo_rt, delay_jitter=0.1, environment_jitter=0.25)
        slot_faults = self._slot_faults(engine)
        campaign = engine._campaign()
        rebuilt = faultsim._run_fault_shard(campaign, self._items(slot_faults))
        assert rebuilt == engine._sweep.sweep(slot_faults)
        assert list(empty_cache) == [campaign[0]]

    def test_undecodable_blob_is_not_cached(self, fifo_rt, empty_cache):
        import pickle

        from repro.engine import faultsim

        engine = self._engine(fifo_rt)
        items = self._items(self._slot_faults(engine)[:2])
        with pytest.raises(pickle.UnpicklingError):
            faultsim._run_fault_shard(("garbled", b"not a pickle"), items)
        assert "garbled" not in empty_cache
        campaign = engine._campaign()
        faultsim._run_fault_shard(campaign, items)
        assert list(empty_cache) == [campaign[0]]

    def test_chunk_items_carry_the_one_campaign_in_order(
        self, fresh_pool, fifo_rt, monkeypatch
    ):
        from repro.engine import faultsim

        engine = self._engine(fifo_rt, collapse=False)
        slot_faults = self._slot_faults(engine)
        dispatched = []

        def in_process_map(executor, fn, items, label=None):
            dispatched.extend(items)
            return [fn(*item) for item in items]

        monkeypatch.setattr(faultsim._resilience, "supervised_map", in_process_map)
        verdicts = engine._sweep_verdicts(slot_faults, 2, True)
        assert verdicts == engine._sweep.sweep(slot_faults)
        assert len(dispatched) == len(
            faultsim._chunk_bounds(slot_faults, 2 * faultsim._CHUNKS_PER_WORKER)
        )
        assert all(campaign is engine._campaign() for campaign, _chunk in dispatched)
        indices = [index for _campaign, chunk in dispatched for index, *_ in chunk]
        assert indices == list(range(len(slot_faults)))

    def test_workers_rebuild_the_inline_campaign(self, fresh_pool, fifo_rt):
        from repro.engine import faultsim

        engine = self._engine(fifo_rt)
        slot_faults = self._slot_faults(engine)
        item = (engine._campaign(), self._items(slot_faults))
        executor = pool.get_pool(max_workers=1)
        expected = engine._sweep.sweep(slot_faults)
        for _ in range(2):  # the second call is served by the worker's cache
            assert executor.submit(faultsim._run_fault_shard, *item).result(60) == (
                expected
            )

    def test_retried_chunk_on_respawned_pool_matches(self, fresh_pool, fifo_rt):
        """The respawned worker holds no cache: the retried item alone
        carries everything it needs."""
        from repro.engine import faultsim

        engine = self._engine(fifo_rt)
        slot_faults = self._slot_faults(engine)
        item = (engine._campaign(), self._items(slot_faults))
        executor = pool.get_pool(max_workers=1)
        first = executor.submit(faultsim._run_fault_shard, *item).result(60)
        old_pids = pool.worker_pids()
        pool.discard(kill=True)
        replacement = pool.get_pool(max_workers=1)
        retried = replacement.submit(faultsim._run_fault_shard, *item).result(60)
        assert retried == first == engine._sweep.sweep(slot_faults)
        assert set(pool.worker_pids()).isdisjoint(old_pids)

    def test_forced_pool_campaign_creates_no_shared_memory(self, fresh_pool, fifo_rt):
        def segments():
            if not os.path.isdir("/dev/shm"):  # pragma: no cover - no /dev/shm
                return set()
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        before = segments()
        with self._engine(fifo_rt) as engine:
            faults = [
                (net, value) for net in engine.compiled.net_index for value in (0, 1)
            ]
            pooled = engine.run(faults, shards=2, use_processes=True)
            assert pool.LAST_DECISION["reason"] == "forced-pool"
            assert pooled == engine.run(faults, use_processes=False)
        assert segments() == before

    def test_dropped_engine_is_collected(self, fifo_rt):
        """No module-level registry pins an engine or its campaign."""
        import gc
        import weakref

        engine = self._engine(fifo_rt)
        engine._campaign()
        alive = weakref.ref(engine)
        del engine
        gc.collect()
        assert alive() is None

    def test_uncompiled_gates_stay_in_process_without_pickling(self):
        """OP_CALL rows hold callables the tables cannot carry."""
        from repro.circuit.library import GateType
        from repro.circuit.netlist import Netlist
        from repro.engine.faultsim import FaultSimEngine

        def touchy(inputs, prev):
            if inputs[0] and inputs[1]:
                raise RuntimeError("pull-down fight on touchy gate")
            return inputs[0] or inputs[1]

        gate_type = GateType(
            name="TOUCHY", num_inputs=2, eval_fn=touchy,
            transistors=4, delay_ps=90.0, energy_pj=0.4,
        )
        netlist = Netlist("touchy")
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_primary_output("y")
        netlist.add_gate("g", gate_type, ["a", "b"], "y")
        engine = FaultSimEngine(
            netlist, [], [("a", 1, 10.0)], observables=["y"], duration_ps=1_000.0
        )
        assert engine.compiled.has_call_gates()
        faults = [(net, value) for net in ("a", "b", "y") for value in (0, 1)]
        verdicts = engine.run(faults, shards=2, use_processes=True)
        assert pool.LAST_DECISION["reason"] == "uncompiled-gates"
        assert engine._pickled is None
        assert verdicts == engine.run(faults, use_processes=False)


class TestPoolLifecycleEdges:
    def test_discard_tolerates_an_already_broken_pool(self, fresh_pool):
        from concurrent.futures.process import BrokenProcessPool

        executor = pool.get_pool(max_workers=1)
        with pytest.raises(BrokenProcessPool):
            executor.submit(os._exit, 86).result(timeout=60)
        pool.discard()  # must not raise on broken state
        replacement = pool.get_pool()
        assert replacement is not executor
        assert list(replacement.map(int, "123")) == [1, 2, 3]

    def test_discard_kill_terminates_workers(self, fresh_pool):
        executor = pool.get_pool(max_workers=1)
        executor.submit(os.getpid).result(timeout=60)  # force spawn
        pids = pool.worker_pids()
        assert pids
        pool.discard(kill=True)
        deadline = time.time() + 30
        while time.time() < deadline:
            if not any(_pid_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_pid_alive(pid) for pid in pids)

    def test_shutdown_after_fork_drops_without_joining(self, fresh_pool, monkeypatch):
        """A forked child that inherited the globals must not join (or
        double-shutdown) the parent's workers -- it only drops its ref."""
        first = pool.get_pool(max_workers=1)
        first.submit(os.getpid).result(timeout=60)
        monkeypatch.setattr(pool, "_POOL_PID", os.getpid() + 1)
        pool.shutdown()  # simulated child: no join, no exception
        pool.shutdown()  # idempotent on the cleared state
        assert pool.worker_pids() == ()
        # The parent's executor is untouched and still serves work.
        assert first.submit(int, "7").result(timeout=60) == 7
        first.shutdown()

    def test_worker_pids_is_empty_mid_respawn(self, fresh_pool):
        executor = pool.get_pool(max_workers=1)
        executor.submit(os.getpid).result(timeout=60)
        assert pool.worker_pids()
        pool.discard(kill=True)
        assert pool.worker_pids() == ()  # the respawn window
        replacement = pool.get_pool(max_workers=1)
        replacement.submit(os.getpid).result(timeout=60)
        assert pool.worker_pids()


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by other user
        return True
    return True


class TestScopedRecords:
    """LAST_DECISION / LAST_HEALTH are context-scoped, not shared globals.

    Before the service layer, both records were plain module-global
    dicts: two threads running engine calls concurrently raced between
    one thread's write and the other's read.  The regression pins the
    contextvar-backed :class:`repro.engine.records.ScopedRecord`
    semantics: per-thread isolation, dict-compatible interface, plain
    JSON-serialisable snapshots, and the pool_health aliasing identity.
    """

    def test_decide_records_are_isolated_per_thread(self):
        import threading

        results = {}
        barrier = threading.Barrier(2)

        def probe(label, shards):
            # Both threads write their own decision, rendezvous so the
            # writes demonstrably overlap, then read their own record.
            pool.decide(10_000, shards, 8, forced=True)
            barrier.wait(timeout=10)
            results[label] = (pool.LAST_DECISION["shards"], shards)

        threads = [
            threading.Thread(target=probe, args=("a", 2)),
            threading.Thread(target=probe, args=("b", 7)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results["a"][0] == results["a"][1] == 2
        assert results["b"][0] == results["b"][1] == 7

    def test_health_records_are_isolated_per_thread(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.engine import resilience

        barrier = threading.Barrier(2)
        seen = {}

        def dispatch(label):
            with ThreadPoolExecutor(max_workers=1) as executor:
                resilience.supervised_map(
                    executor, int, [("7",)], label=label
                )
            barrier.wait(timeout=10)
            seen[label] = resilience.LAST_HEALTH["label"]

        threads = [
            threading.Thread(target=dispatch, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == {"left": "left", "right": "right"}

    def test_record_keeps_dict_interface_and_equality(self):
        from repro.engine.records import ScopedRecord

        record = ScopedRecord("probe")
        assert len(record) == 0 and "x" not in record
        record["x"] = 1
        record.update(y=2)
        assert dict(record) == {"x": 1, "y": 2}
        assert record == {"x": 1, "y": 2}
        assert record.pop("y") == 2
        record.clear()
        assert record == {}
        with pytest.raises(KeyError):
            del record["missing"]

    def test_snapshot_is_plain_json_serialisable(self):
        import json

        from concurrent.futures import ThreadPoolExecutor

        from repro.engine import resilience

        with ThreadPoolExecutor(max_workers=1) as executor:
            resilience.supervised_map(executor, int, [("3",)], label="snap")
        # The aliasing convention survives the scoping change ...
        assert pool.LAST_DECISION["pool_health"] is resilience.LAST_HEALTH
        # ... and a snapshot flattens the nested record for persistence.
        snapshot = pool.LAST_DECISION.snapshot()
        assert isinstance(snapshot["pool_health"], dict)
        assert snapshot["pool_health"]["label"] == "snap"
        json.dumps(snapshot)

    def test_concurrent_get_pool_creates_exactly_one_pool(self, fresh_pool):
        import threading

        pools = []
        barrier = threading.Barrier(4)

        def create():
            barrier.wait(timeout=10)
            pools.append(pool.get_pool())

        threads = [threading.Thread(target=create) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(pools) == 4
        assert all(executor is pools[0] for executor in pools)
