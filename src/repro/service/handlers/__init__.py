"""Capability handlers: one module per engine capability.

Each handler module exposes the same three-name surface:

``NAME``
    The capability string clients put in their request frames.
``cost(params) -> float``
    The request's weight-normalised cost charged by the fair scheduler.
    Admission calls it before queueing, so it is also where a handler
    rejects bad or over-cap params (``ValueError`` naming the field).
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
object carrying the three names); the stock registry maps the three
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

    ``handler`` must expose ``NAME``, ``cost`` and ``run`` as described
    in the module docstring.  Used by the test battery to install
    controllable capabilities (e.g. a gate-blocked sleeper for
    cancellation tests); production capabilities live as modules in
    this package so the contract lint covers them.
    """
    for attribute in ("NAME", "cost", "run"):
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
