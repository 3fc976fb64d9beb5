"""Decode-as-a-service: the asyncio front end over the RAPPID engine.

ROADMAP item 2.  One long-lived :class:`~repro.service.server.DecodeService`
accepts concurrent decode / coverage / reachability requests over a
newline-delimited-JSON protocol, admits them through a weighted
per-tenant fair scheduler with bounded-queue backpressure
(:mod:`repro.service.scheduler`), runs them in fair order on engine
lanes, up to ``window`` requests per lane job, streams partial results
while they run, and attaches a structured decision trace
(:mod:`repro.service.trace`) to every terminal event.
:mod:`repro.service.client` is the matching async client;
:mod:`repro.service.loadgen` drives load and the ``--smoke`` check.

The load-bearing contract: a service response is **bit-identical** to
the same request made directly against the engine API -- batching,
fairness, chaos, and concurrency only move work around, never change
results.  ``docs/service.md`` documents the protocol and the contracts.
"""

from repro.service.client import (
    BackpressureRejected,
    RequestCancelled,
    RequestFailed,
    ServiceClient,
    ServiceError,
    ServiceResult,
)
from repro.service.scheduler import Admission, Entry, FairScheduler
from repro.service.server import DecodeService, ServiceConfig

__all__ = [
    "Admission",
    "BackpressureRejected",
    "DecodeService",
    "Entry",
    "FairScheduler",
    "RequestCancelled",
    "RequestFailed",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceResult",
]
