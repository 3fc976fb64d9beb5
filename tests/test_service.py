"""Concurrency battery for the decode service (ROADMAP item 2).

Boots real :class:`~repro.service.server.DecodeService` instances on
ephemeral localhost ports and drives them with
:class:`~repro.service.client.ServiceClient` sessions, pinning the
contracts the service layer claims:

* responses (and streamed partials) **bit-identical** to the same call
  made directly against the engine APIs;
* deterministic N-client interleaving under the seeded fair scheduler
  -- same arrival order in, same admission/batch decisions out, with
  handlers run in fair order and lane batches cut at ``window`` only;
* cancellation before dispatch (``stage="queued"``) and after batch
  admission (``stage="running"``), with the engine result discarded;
* client disconnect mid-stream withdraws only that session's work;
* shutdown drains in-flight batches and cancels queued requests with
  ``stage="shutdown"``;
* bounded-queue backpressure rejects (``queue-full`` / ``tenant-quota``)
  with a retry hint instead of buffering without limit;
* every request resolves at 1, 10 and 100 concurrent sessions;
* a hypothesis protocol fuzz: random frame mixes on two sessions give
  each request exactly one terminal event and kill no session.

Each test runs its own event loop via ``asyncio.run`` (the repo carries
no pytest-asyncio); gate-blocked test capabilities are installed through
:func:`repro.service.handlers.register` to hold engine lanes open at
precise points.
"""

import asyncio
import hashlib
import json
import math
import struct
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rappid.microarch import RappidConfig, RappidDecoder
from repro.rappid.workload import WorkloadGenerator
from repro.service import (
    BackpressureRejected,
    DecodeService,
    RequestCancelled,
    RequestFailed,
    ServiceClient,
    ServiceConfig,
)
from repro.service import handlers as handler_registry
from repro.service.handlers import coverage as coverage_handler
from repro.service.handlers import decode as decode_handler
from repro.service.handlers import reachability as reachability_handler
from repro.service.loadgen import run_load
from repro.testability import stuck_at_coverage


def direct_decode_payload(seed: int, count: int):
    generator = WorkloadGenerator(seed=seed)
    instructions = generator.instructions(count)
    lines = generator.cache_lines(instructions)
    return (
        decode_handler.payload_of(
            RappidDecoder(RappidConfig()).run(instructions, lines)
        ),
        RappidDecoder(RappidConfig()).run(instructions, lines),
    )


class _GateHandler:
    """Test capability that parks on an engine lane until released."""

    NAME = "gate"

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.runs = 0

    def cost(self, params):
        return float(params.get("cost", 1.0))

    def run(self, params, emit):
        self.runs += 1
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise RuntimeError("gate never released")
        return {"ok": True, "runs": self.runs}


@pytest.fixture
def gate():
    handler = _GateHandler()
    handler_registry.register(handler)
    yield handler
    handler.release.set()
    handler_registry.HANDLERS.pop("gate", None)


async def _wait_event(event: threading.Event, timeout: float = 10.0) -> bool:
    return await asyncio.get_running_loop().run_in_executor(
        None, event.wait, timeout
    )


class TestBitIdentity:
    def test_decode_result_and_partials_match_direct_engine(self):
        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    return await client.request(
                        "decode",
                        {"seed": 11, "instructions": 500, "stream_chunk": 128},
                    )
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        result = asyncio.run(scenario())
        direct_payload, direct_result = direct_decode_payload(11, 500)
        assert result.payload == direct_payload
        assert result.partials == decode_handler.partials_of(
            direct_result, 128
        )
        assert result.trace["admission"]["decision"] == "admitted"
        assert result.trace["batch"]["size"] == 1
        assert "engine" in result.trace

    def test_coverage_and_reachability_match_direct_engine(self):
        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    return await asyncio.gather(
                        client.request(
                            "coverage",
                            {"circuit": "buffer", "duration_ps": 2_000.0},
                        ),
                        client.request(
                            "reachability",
                            {"spec": "fifo", "max_states": 2_000},
                        ),
                    )
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        cov, reach = asyncio.run(scenario())
        netlist, rules, stimuli = coverage_handler.resolve_circuit("buffer")
        report = stuck_at_coverage(
            netlist, rules, initial_stimuli=stimuli, duration_ps=2_000.0,
            seed=7,
        )
        assert cov.payload == coverage_handler.payload_of(report, "buffer")
        from repro.petrinet.reachability import Reduction, explore
        from repro.stg import specs

        graph = explore(
            specs.load_spec("fifo").net,
            max_states=2_000,
            reduction=Reduction.DEADLOCKS,
        )
        assert reach.payload == reachability_handler.payload_of(
            graph, "fifo", "deadlocks"
        )


class TestDecodeParams:
    def test_unknown_key_is_an_error_and_the_session_lives_on(self):
        """A stale ``shards`` knob is refused at admission, not ignored."""

        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    with pytest.raises(RequestFailed) as failed:
                        await client.request(
                            "decode",
                            {"seed": 11, "instructions": 500, "shards": 2},
                        )
                    after = await client.request(
                        "decode", {"seed": 11, "instructions": 500}
                    )
                    return failed.value, after
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        failure, after = asyncio.run(scenario())
        assert "shards" in str(failure)
        assert "admission" not in failure.trace
        assert after.payload == direct_decode_payload(11, 500)[0]


def _per_value_signature(values):
    """The per-value form of ``trajectory_signature``: one pack per float."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(struct.pack("<d", value))
    return digest.hexdigest()


class TestTrajectorySignature:
    """Hashing one float64 buffer gives the per-value digests, bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0],
            [-0.0],
            [0.0, -0.0],
            [math.inf, -math.inf],
            [math.nan],
            [struct.unpack("<d", bytes.fromhex("0100000000f8ff7f"))[0]],
            [5e-324, 2.2250738585072009e-308, -1e-310],
            [1.5, 2, 3, 1e300, -7.25],
        ],
        ids=[
            "empty",
            "zero",
            "negative-zero",
            "signed-zeros",
            "infinities",
            "nan",
            "nan-payload",
            "subnormals",
            "mixed",
        ],
    )
    def test_buffer_digest_matches_per_value_digest(self, values):
        assert decode_handler.trajectory_signature(values) == _per_value_signature(
            values
        )

    def test_payload_and_streamed_partials_match(self):
        _payload, result = direct_decode_payload(seed=11, count=2_000)
        payload = decode_handler.payload_of(result)
        assert payload["issue_signature"] == _per_value_signature(
            result.issue_times_ps
        )
        assert payload["latency_signature"] == _per_value_signature(
            result.instruction_latencies_ps
        )
        partials = decode_handler.partials_of(result, 128)
        assert len(partials) > 1
        for partial in partials:
            first = partial["first"]
            window = result.issue_times_ps[first : first + partial["count"]]
            assert partial["signature"] == _per_value_signature(window)


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "frame, event, field",
        [
            ("[1]", "protocol-error", "JSON object"),
            (
                '{"op": "request", "id": "p", "capability": "reachability", '
                '"params": [1]}',
                "error",
                "params",
            ),
            (
                '{"op": "request", "id": "w", "capability": "decode", '
                '"params": {"seed": 1, "instructions": 10}, "weight": "heavy"}',
                "error",
                "weight",
            ),
            (
                '{"op": "request", "id": "n", "capability": "decode", '
                '"params": {"seed": 1, "instructions": 10}, "weight": -2}',
                "error",
                "weight",
            ),
            (
                '{"op": "request", "id": "i", "capability": "decode", '
                '"params": {"seed": 1, "instructions": 1000000000}}',
                "error",
                "instructions",
            ),
            (
                '{"op": "request", "id": "f", "capability": "decode", '
                '"params": {"seed": 1, "instructions": 1e400}}',
                "error",
                "infinity",
            ),
            (
                '{"op": "request", "id": "s", "capability": "reachability", '
                '"params": {"spec": "fifo", "max_states": 1000000000}}',
                "error",
                "max_states",
            ),
            (
                '{"op": "request", "id": "d", "capability": "coverage", '
                '"params": {"circuit": "buffer", "duration_ps": 1e12}}',
                "error",
                "duration_ps",
            ),
            (
                '{"op": "request", "id": "c", "capability": "coverage", '
                '"params": {"circuit": "fifo_rt_chain:100000"}}',
                "error",
                "fifo_rt_chain",
            ),
        ],
        ids=[
            "non-object",
            "params",
            "weight-type",
            "weight-sign",
            "instructions-cap",
            "instructions-infinite",
            "max-states-cap",
            "duration-cap",
            "chain-cap",
        ],
    )
    def test_bad_frame_gets_a_reply_and_the_session_lives_on(
        self, frame, event, field
    ):
        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(frame.encode() + b"\n")
                    writer.write(b'{"op": "ping"}\n')
                    await writer.drain()
                    return [
                        json.loads(await asyncio.wait_for(reader.readline(), 10))
                        for _ in range(2)
                    ]
                finally:
                    writer.close()
            finally:
                await service.shutdown()

        reply, pong = asyncio.run(scenario())
        assert reply["event"] == event
        assert field in reply["error"]
        assert pong == {"event": "pong"}


    def test_over_long_line_gets_a_reply_and_the_session_lives_on(self):
        """A 70 KiB line overruns the 64 KiB stream limit without a hang-up."""

        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b'{"op": "ping", "pad": "' + b"x" * 70 * 1024)
                    writer.write(b'"}\n{"op": "ping"}\n')
                    await writer.drain()
                    return [
                        json.loads(await asyncio.wait_for(reader.readline(), 10))
                        for _ in range(2)
                    ]
                finally:
                    writer.close()
            finally:
                await service.shutdown()

        reply, pong = asyncio.run(scenario())
        assert reply["event"] == "protocol-error"
        assert "limit" in reply["error"]
        assert pong == {"event": "pong"}


class _Recorder:
    """Handler proxy that logs each run's request before delegating."""

    def __init__(self, handler, log):
        self.NAME = handler.NAME
        self.cost = handler.cost
        self._handler = handler
        self._log = log

    def run(self, params, emit):
        self._log.append((self.NAME, params))
        return self._handler.run(params, emit)


class TestDeterministicInterleaving:
    #: (tenant index, capability, params) arrival script shared by runs.
    #: With unit costs, WFQ orders these by (virtual finish, seq): tenant
    #: 0's reachability (tag 2) and second decode (tag 3) fall behind the
    #: tag-1 decodes of tenants 1 and 2, so fair order is 0,1,3,2,5,6,4.
    SCRIPT = [
        (0, "decode", {"seed": 1, "instructions": 300}),
        (1, "decode", {"seed": 2, "instructions": 300}),
        (0, "reachability", {"spec": "fifo", "max_states": 2_000}),
        (2, "decode", {"seed": 3, "instructions": 300}),
        (0, "decode", {"seed": 1, "instructions": 300}),
        (1, "coverage", {"circuit": "buffer", "duration_ps": 1_500.0}),
        (2, "coverage", {"circuit": "buffer", "duration_ps": 1_500.0}),
    ]
    FAIR_ORDER = [0, 1, 3, 2, 5, 6, 4]
    WINDOW = 4

    async def _run_script(self):
        service = DecodeService(
            ServiceConfig(window=self.WINDOW), auto_dispatch=False
        )
        host, port = await service.start()
        try:
            clients = [
                await ServiceClient.connect(host, port, tenant=f"t{i}")
                for i in range(3)
            ]
            try:
                pending = []
                for tenant_index, capability, params in self.SCRIPT:
                    client = clients[tenant_index]
                    request_id = await client.submit(capability, dict(params))
                    # Per-connection ordering is guaranteed; the ping
                    # barrier extends it across connections so the
                    # arrival order equals the script order.
                    await client.ping()
                    pending.append((client, request_id))
                while await service.dispatch_once():
                    pass
                results = [
                    await client.collect(request_id)
                    for client, request_id in pending
                ]
                decisions = [
                    (
                        r.trace["admission"]["seq"],
                        r.trace["admission"]["virtual_finish"],
                        r.trace["batch"]["id"],
                        r.trace["batch"]["position"],
                        r.trace["batch"]["size"],
                    )
                    for r in results
                ]
                payloads = [r.payload for r in results]
                return decisions, payloads, service.stats()
            finally:
                for client in clients:
                    await client.close()
        finally:
            await service.shutdown()

    def _run_recorded(self, monkeypatch):
        ran = []
        for handler in (decode_handler, reachability_handler, coverage_handler):
            monkeypatch.setitem(
                handler_registry.HANDLERS, handler.NAME, _Recorder(handler, ran)
            )
        return (*asyncio.run(self._run_script()), ran)

    def test_same_arrivals_same_decisions_and_payloads(self, monkeypatch):
        first = self._run_recorded(monkeypatch)
        second = self._run_recorded(monkeypatch)
        assert first == second
        decisions, payloads, stats, ran = first
        # Handlers ran in the scheduler's fair order over the admissions.
        fair = sorted(
            range(len(decisions)), key=lambda i: (decisions[i][1], decisions[i][0])
        )
        assert fair == self.FAIR_ORDER
        assert ran == [self.SCRIPT[i][1:] for i in fair]
        # Batches are cut at ``window`` only: two batches (4 + 3), each
        # taking the next requests in fair order.
        assert stats["requests_batched"] == len(self.SCRIPT)
        assert stats["batches_built"] == 2
        for rank, i in enumerate(fair):
            batch, position = divmod(rank, self.WINDOW)
            size = min(self.WINDOW, len(fair) - batch * self.WINDOW)
            assert decisions[i][2:] == (batch, position, size)
        # Each batch spans capabilities: no coalescing key splits it.
        for batch in range(2):
            members = {
                self.SCRIPT[i][1] for i in range(len(decisions))
                if decisions[i][2] == batch
            }
            assert len(members) > 1
        # Payloads equal the direct engine calls.
        for i, (_tenant, capability, params) in enumerate(self.SCRIPT):
            if capability != "decode":
                continue
            direct, _ = direct_decode_payload(
                params["seed"], params["instructions"]
            )
            assert payloads[i] == direct


class TestCancellation:
    def test_cancel_before_dispatch_is_queued_stage(self):
        async def scenario():
            service = DecodeService(ServiceConfig(), auto_dispatch=False)
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    request_id = await client.submit(
                        "decode", {"seed": 0, "instructions": 300}
                    )
                    await client.cancel(request_id)
                    with pytest.raises(RequestCancelled) as excinfo:
                        await client.collect(request_id)
                    assert excinfo.value.stage == "queued"
                    assert excinfo.value.trace["cancelled"] == {
                        "stage": "queued"
                    }
                    # The queue is empty: nothing left to dispatch.
                    assert await service.dispatch_once() == 0
                    return service.metrics["cancelled"]
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        assert asyncio.run(scenario()) == 1

    def test_cancel_after_batch_admission_drops_the_result(self, gate):
        async def scenario():
            service = DecodeService(ServiceConfig(), auto_dispatch=False)
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    request_id = await client.submit("gate", {})
                    await client.ping()  # admission happened server-side
                    dispatch = asyncio.ensure_future(service.dispatch_once())
                    assert await _wait_event(gate.started)
                    # The batch is running on an engine lane; the cancel
                    # arrives mid-execution.
                    await client.cancel(request_id)
                    await asyncio.sleep(0.05)
                    gate.release.set()
                    assert await dispatch == 1
                    with pytest.raises(RequestCancelled) as excinfo:
                        await client.collect(request_id)
                    assert excinfo.value.stage == "running"
                    assert gate.runs == 1  # engine work did run; result dropped
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        asyncio.run(scenario())


class TestDisconnectAndShutdown:
    def test_disconnect_mid_stream_withdraws_only_that_session(self, gate):
        async def scenario():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                doomed = await ServiceClient.connect(host, port, tenant="a")
                survivor = await ServiceClient.connect(
                    host, port, tenant="b"
                )
                try:
                    await doomed.submit("gate", {})  # occupies the lane
                    queued_id = await doomed.submit(
                        "decode", {"seed": 5, "instructions": 300}
                    )
                    assert queued_id
                    assert await _wait_event(gate.started)
                    await doomed.close(abort=True)  # vanish mid-stream
                    for _ in range(200):  # until the server sees the RST
                        if service.metrics["disconnects"]:
                            break
                        await asyncio.sleep(0.01)
                    gate.release.set()
                    # The surviving session still gets exact results.
                    result = await survivor.request(
                        "decode", {"seed": 5, "instructions": 300}
                    )
                    direct, _ = direct_decode_payload(5, 300)
                    assert result.payload == direct
                    return service.metrics
                finally:
                    await survivor.close()
            finally:
                await service.shutdown()

        metrics = asyncio.run(scenario())
        assert metrics["disconnects"] >= 1
        # The doomed session's queued decode was withdrawn, not run.
        assert metrics["cancelled"] >= 1
        assert metrics["results"] == 1

    def test_shutdown_drains_inflight_and_cancels_queued(self, gate):
        async def scenario():
            service = DecodeService(ServiceConfig(engine_lanes=1))
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            inflight_id = await client.submit("gate", {})
            assert await _wait_event(gate.started)
            # The lane is busy, so this one stays queued.
            queued_id = await client.submit("gate", {})
            await client.ping()
            shutdown = asyncio.ensure_future(service.shutdown(drain=True))
            await asyncio.sleep(0.05)
            gate.release.set()
            await asyncio.wait_for(shutdown, 30)
            inflight = await client.collect(inflight_id)
            assert inflight.payload == {"ok": True, "runs": 1}
            with pytest.raises(RequestCancelled) as excinfo:
                await client.collect(queued_id)
            assert excinfo.value.stage == "shutdown"
            await client.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_full_rejects_with_retry_hint(self, gate):
        async def scenario():
            service = DecodeService(
                ServiceConfig(capacity=2), auto_dispatch=False
            )
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    for _ in range(2):
                        await client.submit("gate", {})
                    overflow_id = await client.submit("gate", {})
                    with pytest.raises(BackpressureRejected) as excinfo:
                        await client.collect(overflow_id)
                    assert excinfo.value.reason == "queue-full"
                    assert excinfo.value.backpressure == "reject"
                    assert excinfo.value.retry_after_ms > 0
                    return service.metrics
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        metrics = asyncio.run(scenario())
        assert metrics["rejected"] == 1
        assert metrics["admitted"] == 2

    def test_tenant_quota_rejects_only_the_greedy_tenant(self, gate):
        async def scenario():
            service = DecodeService(
                ServiceConfig(capacity=8, tenant_capacity=1),
                auto_dispatch=False,
            )
            host, port = await service.start()
            try:
                greedy = await ServiceClient.connect(host, port, tenant="g")
                modest = await ServiceClient.connect(host, port, tenant="m")
                try:
                    await greedy.submit("gate", {})
                    second_id = await greedy.submit("gate", {})
                    with pytest.raises(BackpressureRejected) as excinfo:
                        await greedy.collect(second_id)
                    assert excinfo.value.reason == "tenant-quota"
                    # A different tenant is still admitted.
                    modest_id = await modest.submit("gate", {})
                    await modest.ping()
                    assert service.scheduler.tenant_depth("m") == 1
                    return modest_id is not None
                finally:
                    await greedy.close()
                    await modest.close()
            finally:
                await service.shutdown()

        assert asyncio.run(scenario())


class TestLoad:
    def test_every_request_resolves_at_1_10_and_100_sessions(self):
        """Completion counts under load; timing is perfbench's job."""
        for clients in (1, 10, 100):
            report = asyncio.run(
                run_load(
                    clients=clients,
                    requests_per_client=2,
                    config=ServiceConfig(capacity=max(128, clients * 4)),
                )
            )
            assert report.failed == 0
            assert report.completed + report.rejected == report.requests
            assert report.completed > 0

        async def spot_check():
            service = DecodeService(ServiceConfig())
            host, port = await service.start()
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    return await client.request(
                        "decode", {"seed": 0, "instructions": 400}
                    )
                finally:
                    await client.close()
            finally:
                await service.shutdown()

        assert asyncio.run(spot_check()).payload == direct_decode_payload(0, 400)[0]


#: Events that end a request; each request id must see exactly one.
_TERMINAL = {"rejected", "result", "error", "cancelled"}
#: Fuzz step kinds that send a request frame (and so expect a terminal).
_REQUEST_KINDS = {"decode", "coverage", "gate", "bad-params"}


def _fuzz_line(kind, arg, request_id, earlier):
    """One wire line for a fuzz step; ``earlier`` are the session's ids."""
    if kind == "non-object":
        return ("[1]", str(arg), '"text"', "null", "{not json")[arg % 5]
    if kind in ("stats", "ping"):
        return json.dumps({"op": kind})
    if kind == "cancel-known":
        target = earlier[arg % len(earlier)] if earlier else "none-yet"
        return json.dumps({"op": "cancel", "id": target})
    if kind == "cancel-unknown":
        return json.dumps({"op": "cancel", "id": f"unknown-{arg}"})
    capability, params = {
        "decode": ("decode", {"seed": arg, "instructions": 200}),
        "coverage": ("coverage", {"circuit": "buffer", "duration_ps": 1_000.0}),
        "gate": ("gate", {}),
        "bad-params": (
            ("decode", "coverage", "reachability")[arg % 3],
            ([arg], "text", arg + 1, {"bogus": arg})[arg % 4],
        ),
    }[kind]
    return json.dumps(
        {"op": "request", "id": request_id, "capability": capability,
         "params": params}
    )


async def _read_until(reader, terminals, request_ids, pongs):
    """Count terminals per id into ``terminals`` until all
    ``request_ids`` ended and ``pongs`` pongs arrived; a closed session
    fails the JSON decode."""
    seen_pongs = 0
    while seen_pongs < pongs or not set(request_ids) <= set(terminals):
        frame = json.loads(await asyncio.wait_for(reader.readline(), 30))
        if frame.get("event") in _TERMINAL:
            terminals[frame["id"]] += 1
        elif frame.get("event") == "pong":
            seen_pongs += 1


class TestProtocolFuzz:
    """Random frame mixes on two sessions never break the protocol."""

    STEP = st.tuples(
        st.integers(0, 1),
        st.sampled_from(
            [
                "decode", "coverage", "gate", "bad-params", "cancel-known",
                "cancel-unknown", "non-object", "stats", "ping",
            ]
        ),
        st.integers(0, 9),
    )

    async def _session_mix(self, steps, late_cancels):
        gate = _GateHandler()
        handler_registry.register(gate)
        service = DecodeService(ServiceConfig(capacity=6, window=3))
        host, port = await service.start()
        try:
            sessions = [await asyncio.open_connection(host, port) for _ in range(2)]
            sent = [[], []]
            pings = [1, 1]  # the barrier ping below
            for number, (index, kind, arg) in enumerate(steps):
                request_id = f"r{number}"
                line = _fuzz_line(kind, arg, request_id, sent[index])
                if kind in _REQUEST_KINDS:
                    sent[index].append(request_id)
                if kind == "ping":
                    pings[index] += 1
                sessions[index][1].write(line.encode() + b"\n")
            terminals = [Counter(), Counter()]
            # Every frame is handled; a gate request still holds its lane.
            for (reader, writer), ended, count in zip(sessions, terminals, pings):
                writer.write(b'{"op": "ping"}\n')
                await _read_until(reader, ended, (), count)
            # Cancels now can reach requests already in a lane batch.
            for index, pick in late_cancels:
                line = _fuzz_line("cancel-known", pick, None, sent[index])
                sessions[index][1].write(line.encode() + b"\n")
            for (reader, writer), ended in zip(sessions, terminals):
                writer.write(b'{"op": "ping"}\n')
                await _read_until(reader, ended, (), 1)
            gate.release.set()
            for (reader, writer), ended, ids in zip(sessions, terminals, sent):
                await _read_until(reader, ended, ids, 0)
                # Nothing is left running: a late duplicate would land
                # before this barrier's pong.
                writer.write(b'{"op": "ping"}\n')
                await _read_until(reader, ended, (), 1)
            fresh_reader, fresh_writer = await asyncio.open_connection(host, port)
            fresh_writer.write(b'{"op": "ping"}\n')
            fresh = json.loads(await asyncio.wait_for(fresh_reader.readline(), 10))
            for _reader, writer in [*sessions, (fresh_reader, fresh_writer)]:
                writer.close()
            return list(zip(sent, terminals)), fresh
        finally:
            gate.release.set()
            await service.shutdown()
            handler_registry.HANDLERS.pop("gate", None)

    @settings(max_examples=20, deadline=None)
    @given(
        steps=st.lists(STEP, max_size=24),
        late_cancels=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 23)), max_size=4
        ),
    )
    @example(  # cancels of a running gate and of its batch mate
        steps=[(0, "gate", 0), (0, "decode", 1), (1, "coverage", 0)],
        late_cancels=[(0, 0), (0, 1)],
    )
    def test_every_request_ends_once_and_sessions_live(self, steps, late_cancels):
        terminals, fresh = asyncio.run(self._session_mix(steps, late_cancels))
        for ids, ended in terminals:
            assert ended == Counter(ids)
        assert fresh == {"event": "pong"}
