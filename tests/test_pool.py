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


class TestSharedMemoryPayloads:
    """publish/fetch/release of campaign payloads, both transports."""

    def test_small_payload_rides_inline(self):
        data = b"tiny campaign tables"
        ref = pool.publish_payload(data)
        try:
            assert ref.kind == "inline"
            assert ref.size == len(data)
            assert pool.fetch_payload(ref) == data
        finally:
            pool.release_payload(ref)  # no-op for inline handles

    def test_large_payload_uses_shared_memory(self):
        data = bytes(range(256)) * 4096  # 1 MiB, above the threshold
        ref = pool.publish_payload(data)
        try:
            if ref.kind != "shm":  # pragma: no cover - no /dev/shm
                pytest.skip("shared memory unavailable on this host")
            assert ref.data is None
            assert ref.name
            assert pool.fetch_payload(ref) == data
        finally:
            pool.release_payload(ref)

    def test_threshold_is_tunable_and_release_retires_the_token(self):
        data = b"forced into a segment despite its size"
        ref = pool.publish_payload(data, min_shm_bytes=0)
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            pytest.skip("shared memory unavailable on this host")
        assert pool.fetch_payload(ref) == data
        # Release retires the token in this process: the cache entry is
        # purged and a re-fetch fails fast instead of attaching (or
        # silently serving) an unlinked segment.  Worker *processes*
        # keep their own caches -- see
        # TestPayloadReleaseAudit.test_worker_caches_survive_parent_release.
        pool.release_payload(ref)
        assert pool.LAST_DECISION["payload_release"] == "released"
        with pytest.raises(RuntimeError, match="released"):
            pool.fetch_payload(ref)
        pool.release_payload(ref)  # idempotent, reported as a duplicate
        assert pool.LAST_DECISION["payload_release"] == "duplicate"

    def test_workers_fetch_published_payload(self, fresh_pool):
        data = bytes(range(256)) * 2048  # 512 KiB
        ref = pool.publish_payload(data)
        try:
            executor = pool.get_pool()
            results = [
                executor.submit(pool.fetch_payload, ref).result(timeout=60)
                for _ in range(2)
            ]
            assert all(result == data for result in results)
        finally:
            pool.release_payload(ref)

    def test_publish_falls_back_inline_when_shm_unavailable(self, monkeypatch):
        """No /dev/shm (or SharedMemory refusing): the same handle API
        serves the bytes pickled-inline instead of failing."""
        import multiprocessing.shared_memory as shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("forced: shared memory unavailable")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
        data = bytes(range(256)) * 4096  # 1 MiB, would normally take shm
        ref = pool.publish_payload(data)
        assert ref.kind == "inline"
        assert ref.data is not None and ref.name is None
        assert pool.fetch_payload(ref) == data
        pool.release_payload(ref)  # still a no-op for inline handles


class TestPayloadReleaseAudit:
    """Double-release and cross-fork stale-token discipline
    (``LAST_DECISION["payload_release"]`` records every outcome)."""

    def _shm_ref(self, data=b"audit payload"):
        ref = pool.publish_payload(data, min_shm_bytes=0)
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            pool.release_payload(ref)
            pytest.skip("shared memory unavailable on this host")
        return ref

    def test_inline_release_is_recorded(self):
        ref = pool.publish_payload(b"small")
        assert ref.kind == "inline"
        pool.release_payload(ref)
        assert pool.LAST_DECISION["payload_release"] == "inline"

    def test_release_of_unknown_token_is_recorded(self):
        stray = pool.PayloadRef(
            token="not-a-published-token", kind="shm", size=1, name="gone"
        )
        pool.release_payload(stray)
        assert pool.LAST_DECISION["payload_release"] == "unknown-token"

    def test_double_release_unlinks_once(self):
        ref = self._shm_ref()
        segment_path = f"/dev/shm/{ref.name.lstrip('/')}"
        assert os.path.exists(segment_path)
        pool.release_payload(ref)
        assert pool.LAST_DECISION["payload_release"] == "released"
        assert not os.path.exists(segment_path)
        pool.release_payload(ref)
        assert pool.LAST_DECISION["payload_release"] == "duplicate"

    def test_foreign_owner_release_leaves_the_segment_alive(self):
        """A forked child inherits ``_PUBLISHED``; its release must not
        unlink the segment the parent still serves (simulated by
        rewriting the recorded owner PID)."""
        ref = self._shm_ref()
        segment_path = f"/dev/shm/{ref.name.lstrip('/')}"
        segment, owner_pid = pool._PUBLISHED[ref.token]
        pool._PUBLISHED[ref.token] = (segment, owner_pid + 1)
        try:
            pool.release_payload(ref)
            assert pool.LAST_DECISION["payload_release"] == "foreign-owner"
            # The segment survives, and the handle is still fetchable
            # here (the token was NOT retired by a non-owner release).
            assert os.path.exists(segment_path)
            assert pool.fetch_payload(ref) == b"audit payload"
        finally:
            from multiprocessing import shared_memory

            cleanup = shared_memory.SharedMemory(name=ref.name)
            cleanup.close()
            cleanup.unlink()
            pool.forget_cached_payload(ref)

    def test_worker_caches_survive_parent_release(self, fresh_pool):
        """The documented lifecycle: workers fetch-and-cache while the
        campaign runs; the parent's release only retires the token in
        the parent.  A worker that cached the bytes keeps serving them."""
        data = bytes(range(256)) * 2048  # 512 KiB
        ref = pool.publish_payload(data)
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            pool.release_payload(ref)
            pytest.skip("shared memory unavailable on this host")
        try:
            executor = pool.get_pool(max_workers=1)
            assert executor.submit(pool.fetch_payload, ref).result(60) == data
        finally:
            pool.release_payload(ref)
        # Same single worker, same token, segment now unlinked: the
        # worker's per-process cache still serves the bytes.
        assert executor.submit(pool.fetch_payload, ref).result(60) == data
        # The parent, by contrast, refuses the stale handle.
        with pytest.raises(RuntimeError, match="released"):
            pool.fetch_payload(ref)


class TestEngineShmLifecycle:
    """A dropped (never-closed) engine must not leak its /dev/shm
    segment -- the ``weakref.finalize`` hook releases the payload."""

    def _engine(self, fifo_rt):
        from repro.circuit.analysis import fifo_environment_rules
        from repro.engine.faultsim import FaultSimEngine

        return FaultSimEngine(
            fifo_rt.netlist,
            fifo_environment_rules(),
            [("li", 1, 50.0)],
            duration_ps=5_000.0,
        )

    def test_dropped_engine_leaves_no_segment_behind(self, fifo_rt, monkeypatch):
        import gc

        monkeypatch.setattr(pool, "SHM_MIN_PAYLOAD_BYTES", 0)
        engine = self._engine(fifo_rt)
        ref = engine._payload()
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            engine.close()
            pytest.skip("shared memory unavailable on this host")
        segment_path = f"/dev/shm/{ref.name.lstrip('/')}"
        assert os.path.exists(segment_path)
        del engine  # dropped without close()
        gc.collect()
        assert not os.path.exists(segment_path)
        assert pool.LAST_DECISION["payload_release"] == "released"

    def test_close_releases_and_finalizer_does_not_double_release(
        self, fifo_rt, monkeypatch
    ):
        import gc

        monkeypatch.setattr(pool, "SHM_MIN_PAYLOAD_BYTES", 0)
        engine = self._engine(fifo_rt)
        ref = engine._payload()
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            engine.close()
            pytest.skip("shared memory unavailable on this host")
        engine.close()
        assert pool.LAST_DECISION["payload_release"] == "released"
        pool.LAST_DECISION.pop("payload_release")
        del engine
        gc.collect()
        # close() detached the finalizer: garbage collection must not
        # re-release (no duplicate outcome recorded).
        assert "payload_release" not in pool.LAST_DECISION


class _ExplodingRegistry(dict):
    """Registry stand-in whose insert fails after the segment exists."""

    def __setitem__(self, key, value):
        raise OSError("forced: registry insert failed")


class TestPublishLeakGuard:
    """publish_payload must not leak its /dev/shm segment when any step
    *after* segment creation fails -- the error path closes and unlinks
    before degrading to the inline transport."""

    def _shm_listing(self):
        if not os.path.isdir("/dev/shm"):  # pragma: no cover - no /dev/shm
            pytest.skip("shared memory unavailable on this host")
        return set(os.listdir("/dev/shm"))

    def test_failure_after_segment_creation_leaves_no_segment(self, monkeypatch):
        before = self._shm_listing()
        monkeypatch.setattr(pool, "_PUBLISHED", _ExplodingRegistry())
        ref = pool.publish_payload(b"x" * 1024, min_shm_bytes=0)
        assert ref.kind == "inline"
        assert pool.fetch_payload(ref) == b"x" * 1024
        assert self._shm_listing() == before, "leaked shm segment"

    def test_injected_publish_fault_leaves_no_segment(self):
        from repro.engine import chaos

        before = self._shm_listing()
        with chaos.active(chaos.ChaosPlan(seed=0, shm_publish_fail=1)) as plan:
            ref = pool.publish_payload(b"y" * 1024, min_shm_bytes=0)
        assert ref.kind == "inline"
        assert plan.injected("shm-publish-fail") == 1
        assert self._shm_listing() == before, "leaked shm segment"


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

    def test_retried_chunk_on_respawned_pool_fails_fast_on_released_token(
        self, fresh_pool
    ):
        """A re-dispatched work item must not fetch through a handle the
        campaign already released: a worker forked *after* the release
        inherits the retired token and raises instead of attaching the
        unlinked segment."""
        ref = pool.publish_payload(b"z" * 1024, min_shm_bytes=0)
        if ref.kind != "shm":  # pragma: no cover - no /dev/shm
            pool.release_payload(ref)
            pytest.skip("shared memory unavailable on this host")
        pool.release_payload(ref)
        executor = pool.get_pool(max_workers=1)  # respawned post-release
        with pytest.raises(RuntimeError, match="released"):
            executor.submit(pool.fetch_payload, ref).result(timeout=60)


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by other user
        return True
    return True


class TestFaultCampaignPayloadRoute:
    """The fault-sim campaign payload falls back inline without shm."""

    def test_fault_campaign_inline_fallback_matches(
        self, fresh_pool, monkeypatch, fifo_rt
    ):
        """Force the shm attempt (threshold 0) *and* make it fail: the
        publish falls back inline and a forced-pool jittered campaign
        stays bit-identical."""
        from repro.circuit.analysis import fifo_environment_rules
        from repro.testability.simulation import (
            campaign_signature,
            simulate_faults,
        )
        import multiprocessing.shared_memory as shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("forced: shared memory unavailable")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
        monkeypatch.setattr(pool, "SHM_MIN_PAYLOAD_BYTES", 0)
        kwargs = dict(
            duration_ps=10_000.0, delay_jitter=0.1, environment_jitter=0.25
        )
        stimuli = [("li", 1, 50.0)]
        pooled = simulate_faults(
            fifo_rt.netlist, fifo_environment_rules(), stimuli,
            shards=2, use_processes=True, **kwargs,
        )
        assert pool.LAST_DECISION["payload"] == "inline"
        local = simulate_faults(
            fifo_rt.netlist, fifo_environment_rules(), stimuli,
            use_processes=False, **kwargs,
        )
        assert campaign_signature(pooled) == campaign_signature(local)


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
