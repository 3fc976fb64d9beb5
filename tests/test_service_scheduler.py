"""Property suite for the service's weighted fair scheduler.

Hypothesis drives :class:`~repro.service.scheduler.FairScheduler`
directly with random arrival/dispatch interleavings and pins the three
contracts the asyncio front end depends on (see the scheduler module
docstring): no tenant starvation (with the quantitative WFQ fairness
bound), work conservation, and backpressure monotonicity.  The
scheduler is a pure deterministic core -- no clock, no RNG -- so these
properties need no event loop and no sleeping: every counterexample
hypothesis finds is a deterministic replay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.scheduler import (
    ACCEPT,
    LEVELS,
    REJECT,
    THROTTLE,
    FairScheduler,
)

TENANTS = ("a", "b", "c", "d")

#: One step of a random schedule: offer from a tenant, or dispatch one.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.sampled_from(TENANTS),
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        ),
        st.tuples(st.just("next"), st.none(), st.none()),
    ),
    max_size=60,
)

weights = st.fixed_dictionaries(
    {tenant: st.floats(min_value=0.25, max_value=4.0) for tenant in TENANTS}
)


def build(capacity: int = 16, tenant_weights=None) -> FairScheduler:
    scheduler = FairScheduler(capacity=capacity)
    for tenant, weight in (tenant_weights or {}).items():
        scheduler.set_weight(tenant, weight)
    return scheduler


class TestNoStarvation:
    @settings(max_examples=200, deadline=None)
    @given(script=steps, tenant_weights=weights)
    def test_every_admitted_request_is_eventually_dispatched(
        self, script, tenant_weights
    ):
        scheduler = build(tenant_weights=tenant_weights)
        admitted = set()
        dispatched = set()
        for action, tenant, cost in script:
            if action == "offer":
                decision = scheduler.offer(tenant, cost=cost)
                if decision.admitted:
                    admitted.add(decision.seq)
            else:
                entry = scheduler.next()
                if entry is not None:
                    dispatched.add(entry.seq)
        for entry in scheduler.drain():
            dispatched.add(entry.seq)
        # Nothing is lost and nothing is invented.
        assert dispatched == admitted

    @settings(max_examples=100, deadline=None)
    @given(tenant_weights=weights, backlog=st.integers(2, 12))
    def test_wfq_fairness_bound_for_backlogged_tenants(
        self, tenant_weights, backlog
    ):
        """Normalised service of two backlogged tenants stays within one
        quantum: |served_a/w_a - served_b/w_b| <= 1/w_a + 1/w_b."""
        scheduler = build(
            capacity=len(TENANTS) * backlog, tenant_weights=tenant_weights
        )
        for _ in range(backlog):
            for tenant in TENANTS:
                assert scheduler.offer(tenant).admitted
        served = {tenant: 0 for tenant in TENANTS}
        remaining = {tenant: backlog for tenant in TENANTS}
        for _ in range(len(TENANTS) * backlog):
            entry = scheduler.next()
            assert entry is not None
            served[entry.tenant] += 1
            remaining[entry.tenant] -= 1
            for one in TENANTS:
                for two in TENANTS:
                    if one >= two:
                        continue
                    if not (remaining[one] and remaining[two]):
                        continue  # bound applies while both backlogged
                    w1 = tenant_weights[one]
                    w2 = tenant_weights[two]
                    gap = abs(served[one] / w1 - served[two] / w2)
                    assert gap <= 1.0 / w1 + 1.0 / w2 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(tenant_weights=weights)
    def test_heavier_weight_never_served_less_in_steady_backlog(
        self, tenant_weights
    ):
        scheduler = build(capacity=64, tenant_weights=tenant_weights)
        for _ in range(16):
            for tenant in TENANTS:
                scheduler.offer(tenant)
        served = {tenant: 0 for tenant in TENANTS}
        for _ in range(len(TENANTS) * 8):  # leave every tenant backlogged
            entry = scheduler.next()
            served[entry.tenant] += 1
        ranked = sorted(TENANTS, key=lambda t: tenant_weights[t])
        for lighter, heavier in zip(ranked, ranked[1:]):
            if tenant_weights[heavier] > tenant_weights[lighter] + 1e-9:
                assert served[heavier] >= served[lighter] - 1


class TestWorkConservation:
    @settings(max_examples=200, deadline=None)
    @given(script=steps)
    def test_next_returns_work_whenever_any_is_queued(self, script):
        scheduler = build()
        queued = 0
        for action, tenant, cost in script:
            if action == "offer":
                if scheduler.offer(tenant, cost=cost).admitted:
                    queued += 1
            else:
                entry = scheduler.next()
                if queued:
                    assert entry is not None, "idled with work queued"
                    queued -= 1
                else:
                    assert entry is None
            assert len(scheduler) == queued


class TestBackpressureMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(script=steps)
    def test_level_is_a_monotone_function_of_occupancy(self, script):
        scheduler = build(capacity=8)
        seen = {}  # occupancy -> level index
        for action, tenant, cost in script:
            if action == "offer":
                scheduler.offer(tenant, cost=cost)
            else:
                scheduler.next()
            seen[len(scheduler)] = LEVELS.index(
                scheduler.backpressure_level()
            )
        occupancies = sorted(seen)
        for lower, higher in zip(occupancies, occupancies[1:]):
            assert seen[lower] <= seen[higher]

    @settings(max_examples=200, deadline=None)
    @given(script=steps)
    def test_admission_raises_and_dispatch_lowers_pressure(self, script):
        scheduler = build(capacity=8)
        for action, tenant, cost in script:
            before = scheduler.pressure()
            if action == "offer":
                decision = scheduler.offer(tenant, cost=cost)
                if decision.admitted:
                    assert scheduler.pressure() > before
                else:
                    assert scheduler.pressure() == before
            else:
                entry = scheduler.next()
                if entry is not None:
                    assert scheduler.pressure() < before
                else:
                    assert scheduler.pressure() == before
            assert 0.0 <= scheduler.pressure() <= 1.0

    def test_levels_at_the_exact_thresholds(self):
        scheduler = build(capacity=4)
        assert scheduler.backpressure_level() == ACCEPT
        scheduler.offer("a")
        assert scheduler.backpressure_level() == ACCEPT
        scheduler.offer("a")  # 2/4 = throttle_ratio 0.5
        assert scheduler.backpressure_level() == THROTTLE
        scheduler.offer("a")
        scheduler.offer("a")
        assert scheduler.backpressure_level() == REJECT
        assert not scheduler.offer("a").admitted


class TestDeterminism:
    @settings(max_examples=100, deadline=None)
    @given(script=steps, tenant_weights=weights)
    def test_same_script_same_dispatch_order(self, script, tenant_weights):
        def run():
            scheduler = build(tenant_weights=tenant_weights)
            order = []
            for action, tenant, cost in script:
                if action == "offer":
                    scheduler.offer(tenant, cost=cost)
                else:
                    entry = scheduler.next()
                    if entry is not None:
                        order.append(entry.seq)
            order.extend(entry.seq for entry in scheduler.drain())
            return order

        assert run() == run()
