"""Process-global persistent worker pool for sharded evaluation.

Its one consumer is the fault-simulation engine, which splits large
stuck-at campaigns into fault chunks
(:meth:`~repro.engine.faultsim.FaultSimEngine._sweep_verdicts`).
Spawning a fresh ``ProcessPoolExecutor`` per campaign would pay worker
start-up (interpreter fork, module import) every time, so this module
keeps **one** lazily created, process-global pool alive across calls:

* :func:`get_pool` creates the pool on first use (sized to the host's
  scheduling affinity) and returns the same executor afterwards, so the
  second and later campaigns reuse warm workers -- asserted by a
  worker-pid probe test.
* **Fork-safety guard**: the pool remembers the PID that created it.  A
  forked child (including one of the pool's own workers) that reaches
  :func:`get_pool` sees a PID mismatch and builds its own pool instead of
  deadlocking on inherited executor state.
* :func:`shutdown` disposes the pool explicitly (also registered via
  ``atexit``); a broken pool (killed worker) is discarded with
  :func:`discard` so the next call starts clean.
* :func:`decide` centralises the in-process fallback policy: on a
  single-CPU host, or when the estimated per-shard work is below the
  caller's calibrated floor, sharding overhead cannot win, so callers
  evaluate in-process.  Every decision lands in :data:`LAST_DECISION`
  so the benchmark harness can persist it next to the timings (making
  trajectories comparable across hosts).
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Optional, Tuple

from concurrent.futures import ProcessPoolExecutor

from repro.engine.records import ScopedRecord

# Decision record of the most recent pool decision:
# {"use_pool": bool, "reason": str, "cpu_count": int, "per_shard": int}.
# Context-scoped (see repro.engine.records): each thread / asyncio task
# observes its own record, so concurrent service requests cannot clobber
# each other's decisions between the engine call and the trace read.
LAST_DECISION = ScopedRecord("pool-last-decision")

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_PID: Optional[int] = None
_POOL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def worker_count() -> int:
    """CPUs available to this process (scheduling affinity when known)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def get_pool(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """The persistent pool, created lazily on first use.

    ``max_workers`` only applies at creation (the persistent pool is
    sized once, to the host affinity by default); later callers share it
    regardless of their own shard count, since the executor queues excess
    work.  If the current PID differs from the creating PID the inherited
    pool state is unusable (post-``fork``), so a fresh pool is built.
    """
    global _POOL, _POOL_PID, _ATEXIT_REGISTERED
    pid = os.getpid()
    if _POOL is not None and _POOL_PID == pid:
        return _POOL
    # Creation is serialised: two service threads racing here must not
    # each spawn a pool (the loser's workers would leak until exit).
    with _POOL_LOCK:
        if _POOL is not None and _POOL_PID == pid:
            return _POOL
        if _POOL is not None:
            # Inherited across fork: the queues/threads belong to the
            # parent.  Drop the reference without joining its workers.
            _POOL = None
        _POOL = ProcessPoolExecutor(max_workers=max_workers or worker_count())
        _POOL_PID = pid
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown)
            _ATEXIT_REGISTERED = True
        return _POOL


def discard(kill: bool = False) -> None:
    """Forget a broken pool without waiting on its workers.

    Safe on an already-broken pool (killed worker): the executor's own
    shutdown tolerates broken state, and the globals are cleared first
    so a re-entrant :func:`get_pool` starts clean regardless.  With
    ``kill=True`` the pool's worker processes are also terminated --
    the supervised dispatcher uses this when a deadline timeout marks a
    worker as hung, so the straggler cannot pin a pool slot (or the
    interpreter's exit join) for the rest of its sleep.
    """
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        pool, _POOL, _POOL_PID = _POOL, None, None
    if pool is None:
        return
    workers = []
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        workers = list(processes.values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


def shutdown(wait: bool = True) -> None:
    """Explicitly dispose the persistent pool (idempotent).

    Runs from ``atexit`` too; only the creating process joins the
    workers -- a forked child that inherited the globals just drops its
    reference.
    """
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        pool, owner_pid = _POOL, _POOL_PID
        _POOL = None
        _POOL_PID = None
    if pool is not None and owner_pid == os.getpid():
        pool.shutdown(wait=wait)


def worker_pids() -> Tuple[int, ...]:
    """PIDs of the pool's spawned workers (empty when no pool exists).

    Reads the executor's process table; used by the reuse probe test and
    for diagnostics, not by the hot path.
    """
    if _POOL is None or _POOL_PID != os.getpid():
        return ()
    return tuple(sorted(_POOL._processes.keys()))


def decide(
    work_units: int,
    shards: int,
    floor: int,
    forced: Optional[bool] = None,
) -> Tuple[bool, str]:
    """Should this sharded call use the worker pool?

    Returns ``(use_pool, reason)`` and records the full decision in
    :data:`LAST_DECISION`.  ``forced`` mirrors ``use_processes``:
    ``True``/``False`` bypass the policy (the caller asked explicitly),
    ``None`` applies it: single-CPU hosts and calls whose per-shard work
    sits below ``floor`` stay in-process (pool overhead is measured to
    lose there; force ``use_processes=True`` to override).  ``floor`` is
    the caller's calibrated minimum per shard, in its own work units
    (the fault-simulation engine counts faults).
    """
    cpus = worker_count()
    per_shard = work_units // max(shards, 1)
    if forced is not None:
        use_pool = bool(forced)
        reason = "forced-pool" if use_pool else "forced-in-process"
    elif cpus <= 1:
        use_pool, reason = False, "single-cpu"
    elif per_shard < floor:
        use_pool, reason = False, "below-threshold"
    else:
        use_pool, reason = True, "pool"
    LAST_DECISION.clear()
    LAST_DECISION.update(
        use_pool=use_pool,
        reason=reason,
        cpu_count=cpus,
        per_shard=per_shard,
        shards=shards,
    )
    return use_pool, reason

