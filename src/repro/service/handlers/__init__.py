"""Capability handlers: one module per engine capability.

Each handler module exposes the same four-name surface:

``NAME``
    The capability string clients put in their request frames.
``batch_key(params) -> str``
    The coalescing key: requests with equal ``(NAME, batch_key)`` may
    share one engine batch (see :mod:`repro.service.batcher`).  Keys
    must depend only on ``params``.
``cost(params) -> float``
    The request's weight-normalised cost charged by the fair scheduler.
``run(params, emit) -> dict``
    Execute the capability and return the result payload (a
    JSON-serialisable dict).  ``emit(chunk)`` streams partial-result
    chunks to the client while the engine works; the final payload must
    be **bit-identical** to the same call made directly against the
    engine API -- the concurrency and chaos batteries pin that.

Every handler routes its pool dispatch through the engine entry points
built on :func:`repro.engine.resilience.supervised_map` --
``stuck_at_coverage``/``simulate_faults`` and ``explore``
-- never through a raw executor.  ``scripts/lint_contracts.py``
(``handler-unsupervised-dispatch``) enforces this mechanically for
every module in this package.

:func:`register` lets tests and embedders add ad-hoc capabilities (any
object carrying the four names); the stock registry maps the three
engine capabilities of ROADMAP item 2.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.service.handlers import coverage, decode, reachability

#: Capability name -> handler module (or module-like object).
HANDLERS: Dict[str, Any] = {
    decode.NAME: decode,
    coverage.NAME: coverage,
    reachability.NAME: reachability,
}


def register(handler: Any) -> None:
    """Add (or replace) a capability handler at runtime.

    ``handler`` must expose ``NAME``, ``batch_key``, ``cost`` and
    ``run`` as described in the module docstring.  Used by the test
    battery to install controllable capabilities (e.g. a gate-blocked
    sleeper for cancellation tests); production capabilities live as
    modules in this package so the contract lint covers them.
    """
    for attribute in ("NAME", "batch_key", "cost", "run"):
        if not hasattr(handler, attribute):
            raise ValueError(f"handler lacks required attribute {attribute!r}")
    HANDLERS[handler.NAME] = handler


def get(name: str) -> Any:
    try:
        return HANDLERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown capability {name!r}; available: {sorted(HANDLERS)}"
        ) from exc
