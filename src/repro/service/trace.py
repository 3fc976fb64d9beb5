"""Structured per-request trace records for the decode service.

Every scheduling, batching, backpressure, cancellation, and engine
decision the service takes on behalf of one request lands in a single
dict -- the request's **trace** -- which is attached verbatim to the
terminal event (``result`` / ``error`` / ``cancelled``) streamed back to
the client.  This extends the engine's ``LAST_DECISION`` / ``PoolHealth``
convention one layer up: instead of guessing at scheduling behaviour
from timings, the concurrency test battery asserts against the recorded
decisions, exactly the way the chaos suite asserts against
:data:`repro.engine.resilience.LAST_HEALTH`.

Trace schema (all sections optional until the request reaches them)::

    {
      "request": str,            # client-chosen request id
      "tenant": str,
      "capability": str,         # handler name
      "admission": {             # FairScheduler.offer decision
        "decision": "admitted" | "rejected",
        "reason": "ok" | "queue-full" | "tenant-quota",
        "seq": int | None,       # global admission sequence number
        "queue_depth": int,      # occupancy *after* the decision
        "tenant_depth": int,
        "pressure": float,       # occupancy / capacity
        "backpressure": "accept" | "throttle" | "reject",
        "virtual_finish": float, # WFQ finish tag (admitted only)
      },
      "batch": {                 # the lane batch that ran it
        "id": int,               # batches numbered from 0 per service
        "position": int,         # this request's slot in the batch
        "size": int,             # requests in the batch (<= window)
      },
      "cancelled": {"stage": "queued" | "running" | "shutdown" | "disconnect"},
      "engine": {                # snapshots taken after the engine call
        "decision": {...},       # pool.LAST_DECISION.snapshot()
        "pool_health": {...},    # resilience.LAST_HEALTH.snapshot()
      },
    }

:data:`LAST_TRACE` mirrors the most recently completed request's trace
(context-scoped, like the records it extends) so in-process callers --
the load generator's smoke mode, tests driving handlers directly -- can
read the last decision trail without parsing the wire frames.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.engine import pool, resilience
from repro.engine.records import ScopedRecord

#: Trace of the most recently completed request in this context.
LAST_TRACE = ScopedRecord("service-last-trace")


def new_trace(request_id: str, tenant: str, capability: str) -> Dict[str, Any]:
    """A fresh trace record with the identifying fields filled in."""
    return {
        "request": request_id,
        "tenant": tenant,
        "capability": capability,
    }


def record_engine(trace: Dict[str, Any]) -> None:
    """Snapshot the engine decision records into ``trace``.

    Must be called on the thread that ran the engine work: the records
    are context-scoped, so only that context sees this request's
    decisions -- which is precisely what makes the snapshot race-free.
    """
    trace["engine"] = {
        "decision": pool.LAST_DECISION.snapshot(),
        "pool_health": resilience.LAST_HEALTH.snapshot(),
    }


def publish(trace: Dict[str, Any]) -> None:
    """Expose ``trace`` as :data:`LAST_TRACE` in the current context."""
    LAST_TRACE.clear()
    LAST_TRACE.update(trace)
