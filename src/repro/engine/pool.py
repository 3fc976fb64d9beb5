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
* **Shared-memory payloads**: callers that ship one large immutable
  blob (compiled netlist tables) to *several* worker
  calls publish it once with :func:`publish_payload` and pass the tiny
  :class:`PayloadRef` handle instead.  Large payloads ride in a
  ``multiprocessing.shared_memory`` segment that every worker attaches
  (and caches) once; payloads below :data:`SHM_MIN_PAYLOAD_BYTES` --
  or any payload when shared memory is unavailable -- fall back to
  plain pickled bytes inside the handle.  :func:`fetch_payload` is the
  worker-side accessor with a small per-process cache keyed by the
  handle's token, so repeated calls against one payload neither
  re-attach nor re-copy.  :func:`release_payload` unlinks the segment
  when the campaign is done.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from concurrent.futures import ProcessPoolExecutor

from repro.engine import chaos
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


# ---------------------------------------------------------------------------
# Shared-memory payloads
# ---------------------------------------------------------------------------

# Below this size the one-off cost of creating/attaching a shared-memory
# segment exceeds just pickling the bytes into every worker call.
SHM_MIN_PAYLOAD_BYTES = 256 * 1024

# Worker-side payload cache: token -> bytes.  Bounded so a long-lived
# worker serving many campaigns does not accumulate stale payloads.
PAYLOAD_CACHE_MAX = 8

# Parent-side registry of live segments: token -> (SharedMemory, owner
# PID).  Keeping the object alive keeps our mapping open until
# release_payload unlinks; the owner PID pins the unlink to the process
# that created the segment -- a forked child inherits this dict, and a
# child-side release must not destroy a segment the parent still serves.
_PUBLISHED: Dict[str, Tuple[object, int]] = {}
_PAYLOAD_CACHE: Dict[str, bytes] = {}

# Tokens whose segment this process has released (or inherited as
# released across a fork).  fetch_payload fails fast on them instead of
# surfacing a confusing FileNotFoundError from the unlinked segment, and
# release_payload reports repeats as duplicates.  Bounded FIFO: tokens
# are uuid4 and never recur, old entries are only diagnostic.
_RELEASED_MAX = 64
_RELEASED: Dict[str, None] = {}


@dataclass(frozen=True)
class PayloadRef:
    """Picklable handle to a published payload.

    ``kind`` is ``"shm"`` (the bytes live in the named shared-memory
    segment; ``data`` is ``None``) or ``"inline"`` (the bytes ride along
    in ``data``; ``name`` is ``None``).  ``size`` is the payload length
    -- shared-memory segments round up to page granularity, so readers
    must slice.
    """

    token: str
    kind: str
    size: int
    name: Optional[str] = None
    data: Optional[bytes] = None


def publish_payload(data: bytes, min_shm_bytes: Optional[int] = None) -> PayloadRef:
    """Publish ``data`` once for consumption by many worker calls.

    Payloads of at least ``min_shm_bytes`` (default
    :data:`SHM_MIN_PAYLOAD_BYTES`) go into a shared-memory segment so
    each worker maps the bytes instead of receiving a pickled copy per
    call; smaller ones -- or any payload when shared memory cannot be
    created (no ``/dev/shm``, permissions) -- are carried inline in the
    returned handle.  The caller must :func:`release_payload` shm-backed
    handles when done (idempotent, and also safe for inline handles).
    """
    threshold = SHM_MIN_PAYLOAD_BYTES if min_shm_bytes is None else min_shm_bytes
    token = uuid.uuid4().hex
    if len(data) >= threshold:
        segment = None
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=max(len(data), 1))
            chaos.check("shm-publish-fail")
            segment.buf[: len(data)] = data
            _PUBLISHED[token] = (segment, os.getpid())
            return PayloadRef(
                token=token, kind="shm", size=len(data), name=segment.name
            )
        except (ImportError, OSError, PermissionError, ValueError):
            # Fall through to the inline handle -- but if the segment
            # was already created (the buffer copy or registry insert
            # failed, not the creation), it must be closed and unlinked
            # here or it leaks in /dev/shm with no handle left to
            # release it.
            if segment is not None:
                try:
                    segment.close()
                    segment.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
    return PayloadRef(token=token, kind="inline", size=len(data), data=data)


def release_payload(ref: PayloadRef) -> None:
    """Unlink the payload's segment (no-op for inline handles).

    Worker *processes* that already cached the bytes keep serving their
    own copies; in the releasing process the token is retired -- its
    cache entry is purged and a later :func:`fetch_payload` of the same
    handle raises instead of reading an unlinked segment.  Only the
    process that published the segment unlinks it: a forked child that
    inherited the registry merely closes its mapping (the parent's
    release remains the single unlink, matching the resource-tracker
    accounting described in :func:`fetch_payload`).  The outcome is
    recorded as ``payload_release`` in :data:`LAST_DECISION`
    (``released`` / ``duplicate`` / ``unknown-token`` /
    ``foreign-owner`` / ``inline``) so campaigns can assert their
    cleanup discipline.
    """
    _PAYLOAD_CACHE.pop(ref.token, None)
    if ref.kind != "shm":
        outcome = "inline"
    else:
        entry = _PUBLISHED.pop(ref.token, None)
        if entry is None:
            outcome = "duplicate" if ref.token in _RELEASED else "unknown-token"
        else:
            segment, owner_pid = entry
            if owner_pid != os.getpid():
                # Inherited across fork: the parent owns the unlink.
                try:
                    segment.close()
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
                outcome = "foreign-owner"
            else:
                try:
                    segment.close()
                    segment.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
                outcome = "released"
        if outcome != "foreign-owner":
            _RELEASED[ref.token] = None
            while len(_RELEASED) > _RELEASED_MAX:
                _RELEASED.pop(next(iter(_RELEASED)))
    LAST_DECISION["payload_release"] = outcome


def forget_cached_payload(ref: PayloadRef) -> None:
    """Drop this process's cached bytes for ``ref`` (worker-side).

    Callers that decode the bytes into a longer-lived form call this
    right after decoding, so the worker cache does not pin the raw blob
    next to its decoded copy.
    """
    _PAYLOAD_CACHE.pop(ref.token, None)


def fetch_payload(ref: PayloadRef) -> bytes:
    """Payload bytes for ``ref``, from the per-process cache when warm.

    Worker-side accessor: the first fetch of a shared-memory handle
    attaches the segment, copies the bytes out, detaches, and caches
    them under the handle's token, so a persistent worker touches the
    segment once per campaign no matter how many shard calls it serves.
    """
    chaos.check("payload-fetch-fail")
    if ref.kind == "inline":
        return ref.data or b""
    if ref.token in _RELEASED:
        # Fail fast on stale handles: the segment is unlinked (or will
        # be by the owner), so serving a fetch here would either read
        # freed memory semantics or raise a bare FileNotFoundError far
        # from the caller that kept the dead handle.
        raise RuntimeError(
            f"payload token {ref.token!r} was released; "
            "re-publish before fetching"
        )
    cached = _PAYLOAD_CACHE.get(ref.token)
    if cached is not None:
        return cached
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=ref.name)
    try:
        data = bytes(segment.buf[: ref.size])
    finally:
        # Close only: pool workers are forked, so they share the parent's
        # resource tracker -- attaching re-registers the same name into
        # the tracker's (set-based) cache, and the parent's unlink in
        # release_payload is the single unregistration.  An explicit
        # worker-side unregister would steal that entry and make the
        # parent's unlink look like a double free.
        segment.close()
    while len(_PAYLOAD_CACHE) >= PAYLOAD_CACHE_MAX:
        _PAYLOAD_CACHE.pop(next(iter(_PAYLOAD_CACHE)))
    _PAYLOAD_CACHE[ref.token] = data
    return data
