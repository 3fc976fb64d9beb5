"""Resilient dispatch over the persistent worker pool.

Before this layer, pool dispatch (``FaultSimEngine``'s fault-chunk
round-robin) sent futures bare: one crashed worker threw away *every*
shard's results and silently re-ran the whole campaign in-process, a
hung worker blocked ``future.result()`` forever, and a broad ``except
RuntimeError`` could not tell an infrastructure failure from a genuine
engine bug raised inside a worker.  :func:`supervised_map` is the
shared primitive that fixes all three:

* **Per-task deadlines.**  Every ``future.result`` waits at most
  ``deadline_s`` seconds; a hung or straggling worker turns into a
  retryable timeout instead of an eternal stall.
* **Infrastructure-only retries.**  ``BrokenProcessPool`` (and the
  other ``BrokenExecutor`` flavours), deadline timeouts, cancelled
  futures, spawn/IPC ``OSError`` and argument ``PicklingError`` are
  retried with exponential backoff, up to ``max_retries`` re-dispatch
  rounds.  *Application* errors -- an exception raised by the work
  function itself, e.g. a genuine ``RuntimeError`` from kernel code --
  propagate to the caller immediately; they are bugs to surface, not
  conditions to mask with an in-process rerun.
* **Pool respawn mid-campaign.**  A broken pool or a deadline timeout
  marks the executor suspect: the persistent pool is discarded (hung
  workers terminated) and respawned via
  :func:`repro.engine.pool.discard` + :func:`repro.engine.pool.get_pool`
  before the next round, so one dead worker does not poison the rest of
  the campaign -- or the next one.
* **Partial-result salvage.**  Completed tasks are kept; only lost or
  late tasks are re-dispatched.  This is safe because every work unit
  in this repo is deterministic -- a retried task must return a
  bit-identical result, and the differential suite pins that.  Even a
  *terminal* failure (retries exhausted) salvages: the raised
  :class:`PoolDispatchError` carries the completed results and the
  pending task indices, so callers finish just the missing work
  in-process instead of recomputing everything.

Every recovery decision lands in a structured **PoolHealth** record --
:data:`LAST_HEALTH`, also aliased as ``pool_health`` inside
:data:`repro.engine.pool.LAST_DECISION` -- counting retries, respawns,
timeouts, broken pools, salvaged tasks, chaos injections, and the final
outcome.  The benchmark harness persists it into ``BENCH_faultsim.json``
(the ``resilience`` row); the chaos suite asserts against it.  The
failure model, policy, and schema are documented in
``docs/resilience.md``.

Deterministic fault injection (:mod:`repro.engine.chaos`) threads
through this dispatcher: when a :class:`~repro.engine.chaos.ChaosPlan`
is active, worker calls are wrapped in
:func:`~repro.engine.chaos.chaos_call` and parent-side points
(``pickle-fail``) are applied at submission, so the chaos suite
exercises exactly the production recovery paths.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor, CancelledError, Executor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine import chaos, pool
from repro.engine.records import ScopedRecord

# Per-task deadline for one future.result wait.  Generous on purpose:
# the largest healthy shard in the benchmark corpus completes in
# seconds, so ten minutes only ever fires on a genuinely wedged worker.
DEFAULT_DEADLINE_S = 600.0
# Re-dispatch rounds after the initial one.
DEFAULT_MAX_RETRIES = 2
# First-retry backoff; doubles per round, capped below.
DEFAULT_BACKOFF_S = 0.05
BACKOFF_CAP_S = 2.0

# Infrastructure failures: retryable, never a statement about the work
# item itself.  Note builtin TimeoutError (== concurrent.futures
# TimeoutError on 3.11+) subclasses OSError, so classification below
# tests it first.
INFRA_EXCEPTIONS = (
    BrokenExecutor,
    TimeoutError,
    CancelledError,
    OSError,
    pickle.PicklingError,
)

# PoolHealth record of the most recent supervised_map call.  Also
# aliased into pool.LAST_DECISION["pool_health"], so existing
# observability (benchmarks persisting LAST_DECISION) picks it up.
# Context-scoped like LAST_DECISION itself: concurrent service requests
# dispatching on executor threads each observe their own health record.
LAST_HEALTH = ScopedRecord("resilience-last-health")

# Cap on retained error reprs in the health record.
_HEALTH_ERRORS_MAX = 8


class PoolDispatchError(RuntimeError):
    """Terminal infrastructure failure after retries were exhausted.

    Carries the salvage: ``results`` is the per-task result list with
    completed entries filled in, ``pending`` the sorted indices that
    never completed, ``health`` the PoolHealth record.  Callers finish
    the pending work in-process -- deterministic work units make the
    mixed provenance invisible in the output.
    """

    def __init__(
        self,
        message: str,
        *,
        results: List[Any],
        pending: List[int],
        health: Dict[str, Any],
    ) -> None:
        super().__init__(message)
        self.results = results
        self.pending = pending
        self.health = health


def _new_health(label: Optional[str], tasks: int) -> Dict[str, Any]:
    return {
        "label": label,
        "tasks": tasks,
        "rounds": 1,
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "broken_pools": 0,
        "infra_errors": 0,
        "salvaged": 0,
        "injected": {},
        "errors": [],
        "outcome": "ok",
        "degraded": False,
    }


def _note_failure(health: Dict[str, Any], exc: BaseException) -> bool:
    """Record one infrastructure failure; True when the pool is suspect."""
    if isinstance(exc, TimeoutError):
        health["timeouts"] += 1
        suspect = True
    elif isinstance(exc, (BrokenExecutor, CancelledError)):
        health["broken_pools"] += 1
        suspect = True
    else:  # OSError (IPC), PicklingError: retry, but the pool is fine
        health["infra_errors"] += 1
        suspect = False
    if len(health["errors"]) < _HEALTH_ERRORS_MAX:
        health["errors"].append(f"{type(exc).__name__}: {exc}")
    return suspect


def _finish(health: Dict[str, Any]) -> None:
    """Expose ``health`` as LAST_HEALTH / LAST_DECISION["pool_health"]."""
    LAST_HEALTH.clear()
    LAST_HEALTH.update(health)
    pool.LAST_DECISION["pool_health"] = LAST_HEALTH


def mark_degraded(note: str) -> None:
    """Mark the most recent dispatch as degraded (caller fell back)."""
    LAST_HEALTH["degraded"] = note


def _default_respawn() -> Executor:
    """Replace the persistent pool: terminate stragglers, start clean."""
    pool.discard(kill=True)
    return pool.get_pool()


def supervised_map(
    executor: Executor,
    fn: Callable,
    work_items: Sequence[Sequence[Any]],
    *,
    deadline_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff: Optional[float] = None,
    respawn: Optional[Callable[[], Executor]] = None,
    label: Optional[str] = None,
) -> List[Any]:
    """Run ``fn(*item)`` for every item on ``executor``, supervised.

    Returns results in ``work_items`` order.  Infrastructure failures
    (see :data:`INFRA_EXCEPTIONS`) are retried up to ``max_retries``
    re-dispatch rounds with exponential ``backoff``; a broken pool or a
    task that outlives ``deadline_s`` triggers a pool respawn
    (``respawn``, defaulting to discard-and-recreate of the persistent
    pool) before the next round.  Completed results are never discarded:
    retries re-dispatch only the failed tasks, and a terminal failure
    raises :class:`PoolDispatchError` carrying the salvage.  Exceptions
    raised *by the work function* propagate immediately and verbatim.

    The PoolHealth record of the call lands in :data:`LAST_HEALTH`
    whether it returns or raises.
    """
    plan = chaos.current()
    items = list(work_items)
    count = len(items)
    deadline = DEFAULT_DEADLINE_S if deadline_s is None else deadline_s
    retries_allowed = DEFAULT_MAX_RETRIES if max_retries is None else max_retries
    backoff_s = DEFAULT_BACKOFF_S if backoff is None else backoff
    respawn_pool = _default_respawn if respawn is None else respawn

    health = _new_health(label, count)
    results: List[Any] = [None] * count
    done = [False] * count
    pending = list(range(count))
    attempt = 0
    current = executor

    while True:
        submitted = []
        failed: List[int] = []
        suspect = False
        for key in pending:
            if plan is not None:
                # Mirror worker-side decisions parent-side: decide() is
                # pure, so the health record can count injections the
                # worker will apply without any backchannel.
                for point in chaos.WORKER_POINTS + ("pickle-fail",):
                    if plan.decide(point, key, attempt):
                        injected = health["injected"]
                        injected[point] = injected.get(point, 0) + 1
            try:
                if plan is not None and plan.decide("pickle-fail", key, attempt):
                    raise pickle.PicklingError(
                        f"chaos[pickle-fail]: injected fault (key={key}, "
                        f"attempt={attempt})"
                    )
                if plan is not None:
                    future = current.submit(
                        chaos.chaos_call, plan, key, attempt, fn, *items[key]
                    )
                else:
                    future = current.submit(fn, *items[key])
            except INFRA_EXCEPTIONS as exc:
                suspect |= _note_failure(health, exc)
                failed.append(key)
                continue
            submitted.append((key, future))

        collected = False
        try:
            for key, future in submitted:
                try:
                    results[key] = future.result(timeout=deadline)
                    done[key] = True
                except INFRA_EXCEPTIONS as exc:
                    suspect |= _note_failure(health, exc)
                    failed.append(key)
            collected = True
        finally:
            if not collected:
                # An application error is propagating: cancel whatever
                # has not started (best effort), record the outcome, and
                # let the exception reach the caller untouched.
                for _key, future in submitted:
                    future.cancel()
                health["outcome"] = "app-error"
                _finish(health)

        if not failed:
            _finish(health)
            return results

        # Completed siblings of this failed round are salvage: they are
        # kept as-is while only the failed tasks go around again.
        health["salvaged"] += sum(1 for key, _future in submitted if done[key])

        if attempt >= retries_allowed:
            health["outcome"] = "exhausted"
            _finish(health)
            pending = sorted(failed)
            raise PoolDispatchError(
                f"pool dispatch failed for {len(pending)}/{count} task(s) "
                f"after {attempt + 1} round(s)"
                + (f" [{label}]" if label else ""),
                results=results,
                pending=pending,
                health=health,
            )

        attempt += 1
        health["rounds"] = attempt + 1
        health["retries"] += len(failed)
        if backoff_s > 0:
            time.sleep(min(backoff_s * (2 ** (attempt - 1)), BACKOFF_CAP_S))
        if suspect:
            current = respawn_pool()
            health["respawns"] += 1
        pending = sorted(failed)
