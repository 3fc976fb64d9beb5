"""Deterministic fault injection for the resilient dispatch layer.

The paper's claim is robustness through asynchrony: RAPPID decodes
correctly under arbitrary delay variation.  The engine's parallel
execution layer makes the analogous claim -- a campaign sharded over the
persistent pool must produce bit-identical results no matter which
workers die, stall, or fail to decode the campaign along the way.
This module makes that claim *testable*: seeded injection points that
:func:`repro.engine.resilience.supervised_map` and the worker-side
campaign decode (:func:`repro.engine.faultsim._run_fault_shard`)
consult, so ``tests/test_chaos.py`` can run real campaigns under
injected failures and pin the results against the undisturbed run.

Injection points
----------------
``worker-kill``
    The worker process hard-exits (``os._exit``) before touching the
    work item -- the pool breaks (``BrokenProcessPool``) and every
    in-flight future on it fails.
``worker-hang``
    The worker sleeps ``hang_s`` seconds before doing the work --
    long enough to trip the dispatcher's per-task deadline.
``slow-worker``
    The worker sleeps ``slow_s`` seconds first -- a straggler, not a
    failure; the healthy path must absorb it without a retry.
``payload-fetch-fail``
    A worker's campaign decode raises ``OSError`` on a sweep-cache miss
    (:func:`repro.engine.faultsim._run_fault_shard`) -- an
    infrastructure failure the dispatcher must retry.
``pickle-fail``
    Task submission raises ``pickle.PicklingError`` parent-side before
    the work item ever reaches the executor.
``slow-client``
    Service-level point: the decode service's per-session writer stalls
    ``slow_client_s`` seconds before sending a response frame
    (:func:`client_delay`), modelling a client that drains its socket
    slowly.  A slow reader must delay only its own stream -- other
    sessions, batching, and result bit-identity are unaffected, which
    ``tests/test_chaos.py`` pins.

Determinism
-----------
A :class:`ChaosPlan` is a pure decision function over
``(point, key, attempt)``: task-scoped points key on the dispatcher's
task index, checks outside a task on a per-point occurrence counter, and
every decision either selects the first ``N`` keys (integer spec) or
draws a seeded Bernoulli from
``random.Random(f"{seed}|{point}|{key}")`` (float spec -- a string
seed, so decisions do not depend on ``PYTHONHASHSEED``).  Injections
fire only on the attempts listed in ``attempts`` (default: first
attempt only), so a retried task always succeeds and the recovered
campaign can be compared bit-for-bit against the undisturbed one.  The
work units themselves are deterministic, which is what makes that
comparison meaningful.

Threading the plan through dispatch
-----------------------------------
The parent activates a plan with :func:`active`::

    with chaos.active(ChaosPlan(seed=7, worker_kill=1)):
        simulate_faults(..., use_processes=True)

``supervised_map`` picks the plan up via :func:`current` and wraps every
worker call in :func:`chaos_call`, which carries the (picklable) plan to
the worker, applies the worker-side faults, and exposes the task context
to :func:`check` so the campaign-decode injection point fires inside
the right task.  With no plan active every hook is a single ``is None``
test.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Every injection point the plan understands, in documentation order.
POINTS = (
    "worker-kill",
    "worker-hang",
    "slow-worker",
    "payload-fetch-fail",
    "pickle-fail",
    "slow-client",
)

#: Points decided (and applied) inside the worker process, keyed by the
#: dispatcher's task index.
WORKER_POINTS = ("worker-kill", "worker-hang", "slow-worker")

_ACTIVE: Optional["ChaosPlan"] = None
_TASK: Optional[Tuple[int, int]] = None  # (task key, attempt) under chaos_call


class ChaosPlan:
    """Seeded, deterministic fault-injection plan.

    Each keyword selects how often its injection point fires: an ``int``
    ``N`` injects on the first ``N`` keys (task indices inside a
    dispatched task, per-point occurrence indices outside one), a
    ``float`` rate injects on a seeded Bernoulli per key.  ``attempts``
    lists the dispatch attempts on which injections are armed; the
    default ``(0,)`` disturbs only first attempts so retries recover.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        worker_kill: Union[int, float] = 0,
        worker_hang: Union[int, float] = 0,
        slow_worker: Union[int, float] = 0,
        payload_fetch_fail: Union[int, float] = 0,
        pickle_fail: Union[int, float] = 0,
        slow_client: Union[int, float] = 0,
        hang_s: float = 20.0,
        slow_s: float = 0.05,
        slow_client_s: float = 0.05,
        attempts: Tuple[int, ...] = (0,),
    ) -> None:
        self.seed = seed
        self.hang_s = hang_s
        self.slow_s = slow_s
        self.slow_client_s = slow_client_s
        self.attempts = frozenset(attempts)
        self.spec: Dict[str, Union[int, float]] = {
            "worker-kill": worker_kill,
            "worker-hang": worker_hang,
            "slow-worker": slow_worker,
            "payload-fetch-fail": payload_fetch_fail,
            "pickle-fail": pickle_fail,
            "slow-client": slow_client,
        }
        # Parent-side observations (checks outside a task and mirrored
        # worker decisions); purely diagnostic, never consulted by
        # decide().
        self.log: List[Tuple[str, Tuple[int, int]]] = []
        self._occurrences: Dict[str, int] = {}

    def decide(self, point: str, key: int, attempt: int) -> bool:
        """Pure decision: does ``point`` fire for ``(key, attempt)``?

        Pure in the sense that repeated calls with the same arguments
        always agree -- which lets the parent mirror worker-side
        decisions for the :data:`~repro.engine.resilience.LAST_HEALTH`
        record without any backchannel.
        """
        spec = self.spec.get(point, 0)
        if not spec or attempt not in self.attempts:
            return False
        if isinstance(spec, float):
            draw = random.Random(f"{self.seed}|{point}|{key}").random()
            return draw < spec
        return key < spec

    def next_occurrence(self, point: str) -> int:
        """Monotonic per-point occurrence index (parent-side keying)."""
        index = self._occurrences.get(point, 0)
        self._occurrences[point] = index + 1
        return index

    def note(self, point: str, key: int, attempt: int) -> None:
        self.log.append((point, (key, attempt)))

    def injected(self, point: str) -> int:
        """How many injections of ``point`` this plan has logged."""
        return sum(1 for logged, _ctx in self.log if logged == point)


def current() -> Optional[ChaosPlan]:
    """The active plan of this process, or ``None`` (the common case)."""
    return _ACTIVE


@contextmanager
def active(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def check(point: str) -> None:
    """Raise the injected fault for ``point``, if the active plan says so.

    Called from the worker-side campaign decode.  Inside a
    :func:`chaos_call` task the decision keys on that task's
    ``(key, attempt)``; outside one it keys on a per-point occurrence
    counter.  No active plan means no work beyond one ``is None`` test.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if _TASK is not None:
        key, attempt = _TASK
    else:
        key, attempt = plan.next_occurrence(point), 0
    if plan.decide(point, key, attempt):
        plan.note(point, key, attempt)
        raise OSError(
            f"chaos[{point}]: injected fault (key={key}, attempt={attempt})"
        )


def client_delay() -> float:
    """Seconds the service writer must stall before its next frame.

    Service-side hook for the ``slow-client`` point: keyed on a
    per-point occurrence counter (one decision per frame written), it
    returns ``slow_client_s`` when the active plan fires and ``0.0``
    otherwise -- a delay, not a failure, so the caller sleeps instead of
    raising.  No active plan costs one ``is None`` test.
    """
    plan = _ACTIVE
    if plan is None:
        return 0.0
    key = plan.next_occurrence("slow-client")
    if plan.decide("slow-client", key, 0):
        plan.note("slow-client", key, 0)
        return plan.slow_client_s
    return 0.0


def chaos_call(plan, key, attempt, fn, *args):
    """Worker-side task wrapper: apply worker faults, then run ``fn``.

    Installs ``plan`` as the worker's active plan (so the campaign-decode
    :func:`check` hook fires inside this task's context), applies any
    armed worker fault, and finally runs the real work item.  A killed
    worker never reaches ``fn``; a hung/slow worker reaches it late --
    either way a retried attempt reruns ``fn`` from scratch, which is
    safe because every work unit is deterministic.
    """
    global _ACTIVE, _TASK
    previous = (_ACTIVE, _TASK)
    _ACTIVE, _TASK = plan, (key, attempt)
    try:
        if plan.decide("worker-kill", key, attempt):
            # Hard exit, bypassing atexit/finalizers: the pool must see
            # an abrupt worker death, not a clean shutdown.
            os._exit(86)
        if plan.decide("worker-hang", key, attempt):
            time.sleep(plan.hang_s)
        elif plan.decide("slow-worker", key, attempt):
            time.sleep(plan.slow_s)
        return fn(*args)
    finally:
        _ACTIVE, _TASK = previous
