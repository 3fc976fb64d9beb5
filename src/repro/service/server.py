"""Asyncio front end: protocol, session lifecycle, lane batches.

``DecodeService`` is the long-lived entry point of ROADMAP item 2: many
clients hold newline-delimited-JSON sessions against one server, which
admits their decode / coverage / reachability requests through the
weighted fair scheduler (:mod:`repro.service.scheduler`), hands them to
a small pool of engine lanes (threads -- the engine parallelises across
*processes* underneath, via the persistent pool and
:func:`repro.engine.resilience.supervised_map`), and streams partial
results back per session while the engine works.

Each lane job is a **lane batch**: the next ``window`` queued requests
in fair order, whatever their capabilities, run back to back on one
lane.  A batch shares no engine work; it amortises the event-loop to
lane hand-off over its requests (``docs/service.md``, "Lane batches").

Wire protocol (one JSON object per line, both directions)::

    -> {"op": "request", "id": str, "tenant": str,
        "capability": str, "params": {...}}
    -> {"op": "cancel", "id": str}
    -> {"op": "stats"} | {"op": "ping"}

    <- {"id", "event": "accepted", "seq": int, "backpressure": str}
    <- {"id", "event": "rejected", "reason": str, "backpressure": str,
        "retry_after_ms": float, "trace": {...}}           # terminal
    <- {"id", "event": "partial", "chunk": int, "payload": {...}}
    <- {"id", "event": "result", "payload": {...}, "trace": {...}}
    <- {"id", "event": "error", "error": str, "trace": {...}}
    <- {"id", "event": "cancelled", "stage": "queued" | "running"
        | "shutdown", "trace": {...}}
    <- {"event": "stats", "metrics": {...}} | {"event": "pong"}

Terminal events (``rejected`` / ``result`` / ``error`` / ``cancelled``)
carry the request's full decision trace (:mod:`repro.service.trace`).
A frame that is not a JSON object, or is longer than 64 KiB, gets a
``{"event": "protocol-error", "error": str}`` reply and is skipped; the
session goes on reading the next line.
Sessions are independent: a client that disconnects mid-stream only
withdraws its own queued requests and orphans its in-flight ones (the
batch finishes -- engine work is not interruptible -- and the results
are dropped); every other session is unaffected.  Backpressure is
bounded-queue admission control: a full queue rejects with
``retry_after_ms`` instead of buffering without limit.

Failure injection: the per-session writer consults
:func:`repro.engine.chaos.client_delay` (the ``slow-client`` point)
before each frame, and lane batches inherit the active
:class:`~repro.engine.chaos.ChaosPlan` exactly as scripted campaigns do
-- the chaos battery pins service payloads bit-identical under both.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine import chaos
from repro.service import trace as trace_mod
from repro.service import handlers as handler_registry
from repro.service.scheduler import Entry, FairScheduler

_CLOSE = object()  # writer-task sentinel

#: Longest frame a session reads (asyncio's default stream limit).
_STREAM_LIMIT = 2**16


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Skip the rest of an over-long frame, through its newline.

    ``readuntil`` leaves the buffer as it was when it overruns the
    limit, and the error's ``consumed`` is the newline's offset, or the
    whole buffer when no newline has arrived yet.  Dropping that many
    bytes and reading again skips a frame however many chunks it spans.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


def _tenant_weight(weight: Any) -> float:
    """A frame's ``weight`` as a positive finite float, or ``ValueError``."""
    if isinstance(weight, (int, float)) and not isinstance(weight, bool):
        if 0 < weight < 2.0**1023:  # also keeps float() from overflowing
            return float(weight)
    raise ValueError(f"weight must be a positive number, got {weight!r}")


@dataclass
class ServiceConfig:
    """Tunables of one :class:`DecodeService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port from start()
    capacity: int = 128  # global admission bound (queued requests)
    tenant_capacity: Optional[int] = None  # per-tenant bound (None = capacity)
    default_weight: float = 1.0
    throttle_ratio: float = 0.5
    window: int = 8  # max requests per lane batch
    engine_lanes: int = 1  # concurrent lane batches (threads)


@dataclass
class _Request:
    """Server-side state of one admitted (or rejected) request."""

    request_id: str
    session: "_Session"
    tenant: str
    capability: str
    params: Dict[str, Any]
    trace: Dict[str, Any]
    entry: Optional[Entry] = None
    status: str = "new"  # new -> queued -> running -> done/cancelled
    cancel_requested: bool = False
    partials_sent: int = 0


@dataclass
class _Session:
    """One client connection: reader loop + serialised writer task."""

    id: int
    writer: asyncio.StreamWriter
    outbox: asyncio.Queue = field(default_factory=asyncio.Queue)
    writer_task: Optional[asyncio.Task] = None
    requests: Set[int] = field(default_factory=set)  # admission seqs
    closed: bool = False

    def post(self, frame: Any) -> None:
        """Queue a frame for this session (drops silently once closed)."""
        if not self.closed:
            self.outbox.put_nowait(frame)


class DecodeService:
    """The asyncio decode-as-a-service front end (see module docstring).

    ``auto_dispatch=False`` disables the background dispatcher: admitted
    requests stay queued until :meth:`dispatch_once` (or
    :meth:`resume_dispatch`) runs them -- the deterministic mode the
    concurrency battery uses to pin scheduling decisions.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        auto_dispatch: bool = True,
    ) -> None:
        self.config = config or ServiceConfig()
        self.scheduler = FairScheduler(
            capacity=self.config.capacity,
            tenant_capacity=self.config.tenant_capacity,
            default_weight=self.config.default_weight,
            throttle_ratio=self.config.throttle_ratio,
        )
        if self.config.window < 1:
            raise ValueError("window must be at least 1")
        self.metrics: Dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "rejected": 0,
            "results": 0,
            "errors": 0,
            "cancelled": 0,
            "partials": 0,
            "disconnects": 0,
            "sessions": 0,
            "requests_batched": 0,
            "batches_built": 0,
        }
        self._auto_dispatch = auto_dispatch
        self._engine: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[int, _Session] = {}
        self._requests: Dict[int, _Request] = {}  # by admission seq
        self._next_session = 0
        self._lane_sem: Optional[asyncio.Semaphore] = None
        self._work = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_tasks: Set[asyncio.Task] = set()
        self._client_tasks: Set[asyncio.Task] = set()
        self._stopping = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._engine = ThreadPoolExecutor(
            max_workers=self.config.engine_lanes,
            thread_name_prefix="engine-lane",
        )
        self._lane_sem = asyncio.Semaphore(self.config.engine_lanes)
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=_STREAM_LIMIT,
        )
        if self._auto_dispatch:
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, resolve queued work, finish in-flight batches.

        Queued (not yet dispatched) requests are cancelled with
        ``stage="shutdown"`` events; in-flight batches always run to
        completion (engine work is not interruptible) and their results
        are delivered (``drain=True``) or dropped as cancelled
        (``drain=False``) before the sessions close.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        if self._dispatcher is not None:
            self._work.set()
            await self._dispatcher
            self._dispatcher = None
        # Withdraw everything still queued.
        for entry in self.scheduler.drain():
            state = entry.payload
            if entry.cancelled or state is None:
                continue
            self._finish_cancelled(state, "shutdown")
        # In-flight batches run to completion.
        if not drain:
            for state in self._requests.values():
                state.cancel_requested = True
        if self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks))
        if self._engine is not None:
            self._engine.shutdown(wait=True)
            self._engine = None
        for session in list(self._sessions.values()):
            await self._close_session(session)
        # Reader loops exit on the transport EOF the closes above cause;
        # reap them so loop teardown never cancels a live handler.
        if self._client_tasks:
            _done, pending = await asyncio.wait(
                tuple(self._client_tasks), timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Only now: from Python 3.12.1 wait_closed() also waits for every
        # open connection, which the session closes above end.
        if self._server is not None:
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    # -- session / protocol ----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        session = _Session(id=self._next_session, writer=writer)
        self._next_session += 1
        self._sessions[session.id] = session
        self.metrics["sessions"] += 1
        session.writer_task = asyncio.create_task(self._write_loop(session))
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the unterminated frame before EOF
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    session.post(
                        {
                            "event": "protocol-error",
                            "error": "frame longer than the stream limit "
                            f"of {_STREAM_LIMIT} bytes",
                        }
                    )
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    frame = json.loads(line)
                except json.JSONDecodeError as exc:
                    session.post({"event": "protocol-error", "error": str(exc)})
                    continue
                self._handle_frame(session, frame)
        except (ConnectionResetError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            await self._abandon_session(session)

    def _handle_frame(self, session: _Session, frame: Any) -> None:
        if not isinstance(frame, dict):
            session.post(
                {
                    "event": "protocol-error",
                    "error": f"frame must be a JSON object, not {type(frame).__name__}",
                }
            )
            return
        op = frame.get("op")
        if op == "request":
            self._admit(session, frame)
        elif op == "cancel":
            self._cancel(session, str(frame.get("id")))
        elif op == "stats":
            session.post({"event": "stats", "metrics": self.stats()})
        elif op == "ping":
            session.post({"event": "pong"})
        else:
            session.post(
                {"event": "protocol-error", "error": f"unknown op {op!r}"}
            )

    def _admit(self, session: _Session, frame: Dict[str, Any]) -> None:
        request_id = str(frame.get("id"))
        tenant = str(frame.get("tenant", "default"))
        capability = str(frame.get("capability", ""))
        params = frame.get("params") or {}
        self.metrics["requests"] += 1
        record = trace_mod.new_trace(request_id, tenant, capability)
        try:
            if not isinstance(params, dict):
                raise TypeError(
                    f"params must be a JSON object, not {type(params).__name__}"
                )
            weight = frame.get("weight")
            if weight is not None:
                self.scheduler.set_weight(tenant, _tenant_weight(weight))
            request_cost = handler_registry.get(capability).cost(params)
        except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
            self.metrics["errors"] += 1
            session.post(
                {
                    "id": request_id,
                    "event": "error",
                    "error": str(exc),
                    "trace": record,
                }
            )
            return
        state = _Request(
            request_id=request_id,
            session=session,
            tenant=tenant,
            capability=capability,
            params=dict(params),
            trace=record,
        )
        admission = self.scheduler.offer(tenant, cost=request_cost, payload=state)
        record["admission"] = admission.as_dict()
        if not admission.admitted:
            self.metrics["rejected"] += 1
            session.post(
                {
                    "id": request_id,
                    "event": "rejected",
                    "reason": admission.reason,
                    "backpressure": admission.backpressure,
                    "retry_after_ms": self.scheduler.retry_after_ms(),
                    "trace": record,
                }
            )
            return
        seq = admission.seq
        assert seq is not None
        state.entry = self.scheduler.entry_of(seq)
        state.status = "queued"
        self._requests[seq] = state
        session.requests.add(seq)
        self.metrics["admitted"] += 1
        session.post(
            {
                "id": request_id,
                "event": "accepted",
                "seq": seq,
                "backpressure": admission.backpressure,
            }
        )
        if self._auto_dispatch:
            self._work.set()

    def _cancel(self, session: _Session, request_id: str) -> None:
        for seq in sorted(session.requests):
            state = self._requests.get(seq)
            if state is None or state.request_id != request_id:
                continue
            if state.status == "queued" and self.scheduler.cancel(seq):
                self._finish_cancelled(state, "queued")
            else:
                # Already dispatched into a batch: the engine work is
                # not interruptible, so mark it and drop the result
                # when the batch completes.
                state.cancel_requested = True
            return
        session.post(
            {
                "id": request_id,
                "event": "protocol-error",
                "error": f"no active request {request_id!r} to cancel",
            }
        )

    def _finish_cancelled(self, state: _Request, stage: str) -> None:
        state.status = "cancelled"
        state.trace["cancelled"] = {"stage": stage}
        trace_mod.publish(state.trace)
        self.metrics["cancelled"] += 1
        self._drop_request(state)
        state.session.post(
            {
                "id": state.request_id,
                "event": "cancelled",
                "stage": stage,
                "trace": state.trace,
            }
        )

    def _drop_request(self, state: _Request) -> None:
        if state.entry is not None:
            self._requests.pop(state.entry.seq, None)
            state.session.requests.discard(state.entry.seq)

    async def _abandon_session(self, session: _Session) -> None:
        """Reader saw EOF/reset: withdraw the session's pending work."""
        session.closed = True
        self.metrics["disconnects"] += 1
        for seq in sorted(session.requests):
            state = self._requests.get(seq)
            if state is None:
                continue
            if state.status == "queued" and self.scheduler.cancel(seq):
                state.status = "cancelled"
                state.trace["cancelled"] = {"stage": "disconnect"}
                self.metrics["cancelled"] += 1
                self._requests.pop(seq, None)
            else:
                # In flight: finish the engine work, drop the result.
                state.cancel_requested = True
        session.requests.clear()
        await self._close_session(session)

    async def _close_session(self, session: _Session) -> None:
        session.closed = True
        self._sessions.pop(session.id, None)
        if session.writer_task is not None:
            session.outbox.put_nowait(_CLOSE)
            await session.writer_task
            session.writer_task = None
        try:
            session.writer.close()
            await session.writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass

    async def _write_loop(self, session: _Session) -> None:
        """Serialise this session's frames; absorb a dying transport."""
        broken = False
        while True:
            frame = await session.outbox.get()
            if frame is _CLOSE:
                return
            if broken:
                continue
            delay = chaos.client_delay()
            if delay:
                await asyncio.sleep(delay)
            try:
                session.writer.write(
                    json.dumps(frame, sort_keys=True).encode() + b"\n"
                )
                await session.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                broken = True

    # -- dispatch ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            await self._work.wait()
            self._work.clear()
            if self._stopping:
                return
            while len(self.scheduler) and not self._stopping:
                started = await self._launch_one_batch()
                if not started:
                    break

    def _take(self) -> List[_Request]:
        """Pop the next lane batch: up to ``window`` requests, fair order."""
        queued = iter(self.scheduler.next, None)
        states = [entry.payload for entry in islice(queued, self.config.window)]
        for position, state in enumerate(states):
            state.status = "running"
            state.trace["batch"] = {
                "id": self.metrics["batches_built"],
                "position": position,
                "size": len(states),
            }
        if states:
            self.metrics["batches_built"] += 1
            self.metrics["requests_batched"] += len(states)
        return states

    async def _launch_one_batch(self) -> bool:
        assert self._lane_sem is not None
        await self._lane_sem.acquire()
        if self._stopping:
            # Woken by shutdown: leave the queue for the drain pass.
            self._lane_sem.release()
            return False
        states = self._take()
        if not states:
            self._lane_sem.release()
            return False
        task = asyncio.create_task(self._run_batch(states))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)
        return True

    async def dispatch_once(self) -> int:
        """Take and run one lane batch to completion (deterministic mode).

        Returns the number of requests the batch carried (0 = nothing
        queued).  Available regardless of ``auto_dispatch``; the test
        battery uses it to pin batch composition and cancellation
        windows without racing a background dispatcher.
        """
        states = self._take()
        if states:
            await self._run_batch(states, own_lane=False)
        return len(states)

    def resume_dispatch(self) -> None:
        """Enable the background dispatcher on an auto_dispatch=False service."""
        if self._dispatcher is None:
            self._auto_dispatch = True
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._work.set()

    async def _run_batch(
        self, states: List[_Request], *, own_lane: bool = True
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._engine, self._execute_batch, loop, states
            )
        finally:
            if own_lane and self._lane_sem is not None:
                self._lane_sem.release()
                self._work.set()
        for state, (kind, value) in zip(states, outcomes):
            trace_mod.publish(state.trace)
            self._drop_request(state)
            if kind == "cancelled":
                state.status = "cancelled"
                self.metrics["cancelled"] += 1
                state.session.post(
                    {
                        "id": state.request_id,
                        "event": "cancelled",
                        "stage": value,
                        "trace": state.trace,
                    }
                )
            elif kind == "error":
                state.status = "done"
                self.metrics["errors"] += 1
                state.session.post(
                    {
                        "id": state.request_id,
                        "event": "error",
                        "error": value,
                        "trace": state.trace,
                    }
                )
            else:
                state.status = "done"
                self.metrics["results"] += 1
                state.session.post(
                    {
                        "id": state.request_id,
                        "event": "result",
                        "payload": value,
                        "trace": state.trace,
                    }
                )

    def _execute_batch(
        self, loop: asyncio.AbstractEventLoop, states: List[_Request]
    ) -> List[Tuple[str, Any]]:
        """Run a batch's requests back to back on one engine lane.

        Executes on an engine-lane thread: the context-scoped engine
        records (``LAST_DECISION`` / ``LAST_HEALTH``) belong to this
        lane, so the per-request engine snapshot cannot observe another
        lane's decisions.  Partial chunks are posted to the owning
        session through the loop (thread-safe hand-off).
        """
        outcomes: List[Tuple[str, Any]] = []
        for state in states:
            if state.cancel_requested or state.session.closed:
                stage = "running" if state.cancel_requested else "disconnect"
                state.trace["cancelled"] = {"stage": stage}
                outcomes.append(("cancelled", stage))
                continue

            def emit(
                chunk_payload: Dict[str, Any], _state: _Request = state
            ) -> None:
                _state.partials_sent += 1
                self.metrics["partials"] += 1
                frame = {
                    "id": _state.request_id,
                    "event": "partial",
                    "chunk": _state.partials_sent - 1,
                    "payload": chunk_payload,
                }
                loop.call_soon_threadsafe(_state.session.post, frame)

            try:
                handler = handler_registry.get(state.capability)
                payload = handler.run(state.params, emit)
                trace_mod.record_engine(state.trace)
            except Exception as exc:  # application error: report, isolate
                trace_mod.record_engine(state.trace)
                state.trace["error"] = f"{type(exc).__name__}: {exc}"
                outcomes.append(("error", str(exc) or type(exc).__name__))
                continue
            if state.cancel_requested:
                state.trace["cancelled"] = {"stage": "running"}
                outcomes.append(("cancelled", "running"))
            else:
                outcomes.append(("result", payload))
        return outcomes

    # -- stats ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            **self.metrics,
            "queued": len(self.scheduler),
            "pressure": round(self.scheduler.pressure(), 4),
            "backpressure": self.scheduler.backpressure_level(),
            "coalescing_ratio": round(
                self.metrics["requests_batched"]
                / max(self.metrics["batches_built"], 1),
                4,
            ),
        }
