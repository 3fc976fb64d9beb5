"""Deterministic chaos harness: injected failures, bit-identical results.

The paper's robustness claim is that RAPPID decodes correctly under
arbitrary delay variation; the engine's analogue is that a campaign
sharded over the worker pool survives injected worker kills, hangs,
stragglers, and payload failures with results **bit-identical** to the
undisturbed run -- verdicts, reasons, energy, and (for jittered
campaigns) RNG draw order included.  Every test here runs a real
workload under a seeded :class:`~repro.engine.chaos.ChaosPlan` and pins
the output against the in-process baseline, then asserts the recovery
story told by the PoolHealth record.
"""

import pytest

from repro.circuit.analysis import fifo_environment_rules
from repro.engine import chaos, pool, resilience
from repro.engine.chaos import ChaosPlan
from repro.rappid.microarch import RappidDecoder
from repro.rappid.workload import WorkloadGenerator
from repro.testability.simulation import campaign_signature, simulate_faults

STIMULI = [("li", 1, 50.0)]
CAMPAIGN_KWARGS = dict(duration_ps=10_000.0)
JITTER_KWARGS = dict(duration_ps=10_000.0, delay_jitter=0.1, environment_jitter=0.25)


@pytest.fixture
def fresh_pool():
    pool.shutdown()
    yield
    pool.shutdown()


@pytest.fixture(scope="module")
def baseline(fifo_rt):
    """Undisturbed in-process campaign signature (the identity anchor)."""
    results = simulate_faults(
        fifo_rt.netlist, fifo_environment_rules(), STIMULI,
        use_processes=False, **CAMPAIGN_KWARGS,
    )
    return campaign_signature(results)


def _pooled_campaign(fifo_rt, **kwargs):
    merged = dict(CAMPAIGN_KWARGS)
    merged.update(kwargs)
    return simulate_faults(
        fifo_rt.netlist, fifo_environment_rules(), STIMULI,
        shards=2, use_processes=True, **merged,
    )


class TestChaosPlanDeterminism:
    def test_decide_is_pure_and_seed_stable(self):
        plan_a = ChaosPlan(seed=42, worker_kill=0.5, payload_fetch_fail=2)
        plan_b = ChaosPlan(seed=42, worker_kill=0.5, payload_fetch_fail=2)
        for point in chaos.POINTS:
            for key in range(16):
                first = plan_a.decide(point, key, 0)
                assert plan_a.decide(point, key, 0) == first  # pure
                assert plan_b.decide(point, key, 0) == first  # seed-stable

    def test_integer_spec_selects_the_first_n_keys(self):
        plan = ChaosPlan(seed=0, worker_kill=2)
        assert [plan.decide("worker-kill", k, 0) for k in range(4)] == [
            True, True, False, False,
        ]

    def test_float_spec_extremes(self):
        never = ChaosPlan(seed=3, worker_hang=0.0)
        always = ChaosPlan(seed=3, worker_hang=1.0)
        assert not any(never.decide("worker-hang", k, 0) for k in range(8))
        assert all(always.decide("worker-hang", k, 0) for k in range(8))

    def test_retried_attempts_are_undisturbed_by_default(self):
        plan = ChaosPlan(seed=1, worker_kill=4)
        assert plan.decide("worker-kill", 0, 0)
        assert not plan.decide("worker-kill", 0, 1)
        armed = ChaosPlan(seed=1, worker_kill=4, attempts=(0, 1))
        assert armed.decide("worker-kill", 0, 1)

    def test_check_uses_occurrence_counter_outside_tasks(self):
        plan = ChaosPlan(seed=0, payload_fetch_fail=1)
        with chaos.active(plan):
            with pytest.raises(OSError, match=r"chaos\[payload-fetch-fail\]"):
                chaos.check("payload-fetch-fail")
            chaos.check("payload-fetch-fail")  # occurrence 1: clean
        assert plan.injected("payload-fetch-fail") == 1

    def test_no_active_plan_means_no_op(self):
        assert chaos.current() is None
        chaos.check("worker-kill")  # must not raise

    def test_active_restores_previous_plan(self):
        outer = ChaosPlan(seed=0)
        with chaos.active(outer):
            with chaos.active(ChaosPlan(seed=1)) as inner:
                assert chaos.current() is inner
            assert chaos.current() is outer
        assert chaos.current() is None


class TestCampaignIdentityUnderInjection:
    """Fault campaigns under each injection point match the baseline."""

    def test_worker_kill_recovers_bit_identical(self, fresh_pool, fifo_rt, baseline):
        with chaos.active(ChaosPlan(seed=1, worker_kill=1)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "ok"
        assert health["broken_pools"] >= 1
        assert health["respawns"] >= 1
        assert health["injected"].get("worker-kill", 0) >= 1
        assert health["degraded"] is False

    def test_worker_hang_trips_deadline_and_recovers(
        self, fresh_pool, fifo_rt, baseline, monkeypatch
    ):
        monkeypatch.setattr(resilience, "DEFAULT_DEADLINE_S", 1.0)
        with chaos.active(ChaosPlan(seed=2, worker_hang=1, hang_s=30.0)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "ok"
        assert health["timeouts"] >= 1
        assert health["respawns"] >= 1
        assert health["injected"].get("worker-hang", 0) >= 1

    def test_slow_worker_is_absorbed_without_retry(
        self, fresh_pool, fifo_rt, baseline
    ):
        """A straggler under the deadline is not a failure."""
        with chaos.active(ChaosPlan(seed=3, slow_worker=1, slow_s=0.2)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "ok"
        assert health["rounds"] == 1
        assert health["retries"] == 0
        assert health["respawns"] == 0

    def test_payload_fetch_failure_is_retried(
        self, fresh_pool, fifo_rt, baseline
    ):
        with chaos.active(ChaosPlan(seed=5, payload_fetch_fail=1)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "ok"
        assert health["infra_errors"] >= 1
        assert health["retries"] >= 1

    def test_pickle_failure_at_submission_is_retried(
        self, fresh_pool, fifo_rt, baseline
    ):
        with chaos.active(ChaosPlan(seed=6, pickle_fail=1)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "ok"
        assert health["infra_errors"] >= 1
        assert health["injected"].get("pickle-fail", 0) >= 1

    def test_jittered_campaign_preserves_rng_draw_order(
        self, fresh_pool, fifo_rt
    ):
        """Jittered campaigns draw per-fault RNG streams; a retried chunk
        must replay the identical draws, or reasons/verdicts shift."""
        local = simulate_faults(
            fifo_rt.netlist, fifo_environment_rules(), STIMULI,
            use_processes=False, **JITTER_KWARGS,
        )
        with chaos.active(ChaosPlan(seed=7, worker_kill=1)):
            disturbed = _pooled_campaign(fifo_rt, **JITTER_KWARGS)
        assert campaign_signature(disturbed) == campaign_signature(local)
        assert resilience.LAST_HEALTH["outcome"] == "ok"

    def test_exhausted_retries_salvage_in_process_bit_identical(
        self, fresh_pool, fifo_rt, baseline, monkeypatch
    ):
        """With no retry left, the lost chunks are swept in this process
        from the engine's own sweep; completed chunks are kept."""
        monkeypatch.setattr(resilience, "DEFAULT_MAX_RETRIES", 0)
        with chaos.active(ChaosPlan(seed=8, worker_kill=1)):
            results = _pooled_campaign(fifo_rt)
        assert campaign_signature(results) == baseline
        health = resilience.LAST_HEALTH
        assert health["outcome"] == "exhausted"
        assert health["degraded"] == "in-process-salvage"
        assert health["injected"].get("worker-kill", 0) >= 1
        assert pool.LAST_DECISION["reason"] == "pool-dispatch-degraded"

    def test_jittered_salvage_preserves_rng_draw_order(
        self, fresh_pool, fifo_rt, monkeypatch
    ):
        local = simulate_faults(
            fifo_rt.netlist, fifo_environment_rules(), STIMULI,
            use_processes=False, **JITTER_KWARGS,
        )
        monkeypatch.setattr(resilience, "DEFAULT_MAX_RETRIES", 0)
        with chaos.active(ChaosPlan(seed=9, worker_kill=1)):
            salvaged = _pooled_campaign(fifo_rt, **JITTER_KWARGS)
        assert campaign_signature(salvaged) == campaign_signature(local)
        assert resilience.LAST_HEALTH["degraded"] == "in-process-salvage"


class TestServiceUnderInjection:
    """Service-level chaos: the asyncio front end under injected faults.

    The service inherits the engine's bit-identity discipline one layer
    up: a chaos-disturbed service run (slow client transport, worker
    death mid-batch) must produce responses bit-identical to the
    undisturbed run -- delays and recoveries may change *when* frames
    arrive, never *what* they say.
    """

    def test_slow_client_decide_is_seed_stable(self):
        plan_a = ChaosPlan(seed=12, slow_client=0.5, slow_client_s=0.01)
        plan_b = ChaosPlan(seed=12, slow_client=0.5, slow_client_s=0.01)

        def draws(plan):
            with chaos.active(plan):
                return [chaos.client_delay() for _ in range(32)]

        first, second = draws(plan_a), draws(plan_b)
        assert first == second
        assert set(first) <= {0.0, 0.01}
        assert plan_a.injected("slow-client") == first.count(0.01)

    def test_client_delay_without_plan_is_zero(self):
        assert chaos.current() is None
        assert chaos.client_delay() == 0.0

    def test_slow_client_service_run_bit_identical(self):
        import asyncio

        from repro.service import DecodeService, ServiceClient, ServiceConfig
        from repro.service.handlers import decode as decode_handler

        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    return await client.request(
                        "decode",
                        {"seed": 9, "instructions": 400, "stream_chunk": 100},
                    )
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        plan = ChaosPlan(seed=13, slow_client=1.0, slow_client_s=0.005)
        with chaos.active(plan):
            disturbed = asyncio.run(scenario())
        assert plan.injected("slow-client") >= 1, "no frame was delayed"

        generator = WorkloadGenerator(seed=9)
        instructions, lines = generator.workload(400)
        exact = RappidDecoder().run(instructions, lines)
        assert disturbed.payload == decode_handler.payload_of(exact)
        assert disturbed.partials == decode_handler.partials_of(exact, 100)

    def test_worker_death_mid_service_batch_bit_identical(self, fresh_pool):
        import asyncio

        from repro.service import DecodeService, ServiceClient, ServiceConfig
        from repro.service.handlers import coverage as coverage_handler

        params = {
            "circuit": "fifo_rt",
            "duration_ps": 10_000.0,
            "shards": 2,
            "use_processes": True,
        }

        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    return await client.request("coverage", dict(params))
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        with chaos.active(ChaosPlan(seed=14, worker_kill=1)):
            disturbed = asyncio.run(scenario())

        exact = coverage_handler.run(
            dict(params, use_processes=False), lambda chunk: None
        )
        assert disturbed.payload == exact
        # The recovery story is in the trace's engine snapshot, taken on
        # the engine lane that absorbed the kill.
        health = disturbed.trace["engine"]["pool_health"]
        assert health["label"] == "fault-campaign"
        assert health["outcome"] == "ok"
        assert health["respawns"] >= 1
        assert health["injected"].get("worker-kill", 0) >= 1
