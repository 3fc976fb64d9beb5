"""Weighted per-tenant fair scheduling, admission control, backpressure.

The scheduler is the service's pure, deterministic core: it never reads
the clock, never draws randomness beyond its construction arguments, and
every decision is a function of the arrival sequence alone.  The asyncio
front end (:mod:`repro.service.server`) drives it from the event loop
and cuts each lane batch from consecutive ``next()`` calls, so the fair
order is also the order in which handlers run.  The hypothesis property
suite (``tests/test_service_scheduler.py``) drives it directly with
random arrival sequences and asserts the three contracts the service
depends on:

* **No tenant starvation** -- every admitted request is dispatched after
  finitely many ``next()`` calls, regardless of what other tenants
  offer.  Weighted fair queuing guarantees more: over any window in
  which two tenants stay backlogged, their normalised service
  (dispatched cost / weight) stays within one quantum of each other.
* **Work conservation** -- ``next()`` returns a request whenever any
  request is queued; the scheduler never idles work away.
* **Backpressure monotonicity** -- the advertised pressure level is a
  monotone function of queue occupancy: admitting can only raise it,
  dispatching can only lower it, and the three-level signal
  (``accept`` < ``throttle`` < ``reject``) never ranks a fuller queue
  below an emptier one.

The discipline is start-time weighted fair queuing: each admitted
request is stamped with a virtual finish time ``max(V, F_tenant) +
cost / weight``; ``next()`` always dispatches the smallest stamp,
breaking ties by admission sequence so the order is total and
deterministic.  Admission is bounded twice -- a global ``capacity`` and
a per-tenant ``tenant_capacity`` quota -- and every decision (admit or
reject, with queue depths, pressure, and the backpressure level at
decision time) is returned as an :class:`Admission` record that the
server copies into the request trace (:mod:`repro.service.trace`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Backpressure levels, ordered from calm to saturated.
ACCEPT = "accept"
THROTTLE = "throttle"
REJECT = "reject"
LEVELS = (ACCEPT, THROTTLE, REJECT)


@dataclass(frozen=True)
class Admission:
    """Record of one admission decision (trace-ready via ``as_dict``)."""

    decision: str  # "admitted" | "rejected"
    reason: str  # "ok" | "queue-full" | "tenant-quota"
    seq: Optional[int]
    queue_depth: int
    tenant_depth: int
    pressure: float
    backpressure: str
    virtual_finish: Optional[float] = None

    @property
    def admitted(self) -> bool:
        return self.decision == "admitted"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "decision": self.decision,
            "reason": self.reason,
            "seq": self.seq,
            "queue_depth": self.queue_depth,
            "tenant_depth": self.tenant_depth,
            "pressure": round(self.pressure, 6),
            "backpressure": self.backpressure,
            "virtual_finish": self.virtual_finish,
        }


@dataclass
class Entry:
    """One admitted request waiting for (or holding) a dispatch slot."""

    seq: int
    tenant: str
    cost: float
    virtual_finish: float
    payload: Any = None
    cancelled: bool = False


class FairScheduler:
    """Deterministic weighted fair queue with bounded admission.

    ``capacity`` bounds the total queued requests, ``tenant_capacity``
    (default: ``capacity``) bounds any one tenant's share, and
    ``throttle_ratio`` is the occupancy fraction at which the
    advertised backpressure level steps from ``accept`` to
    ``throttle``.  Tenants are registered implicitly on first offer
    with ``default_weight``; :meth:`set_weight` overrides per tenant.
    """

    def __init__(
        self,
        *,
        capacity: int = 128,
        tenant_capacity: Optional[int] = None,
        default_weight: float = 1.0,
        throttle_ratio: float = 0.5,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if not 0.0 < throttle_ratio <= 1.0:
            raise ValueError("throttle_ratio must be in (0, 1]")
        self.capacity = capacity
        self.tenant_capacity = (
            capacity if tenant_capacity is None else tenant_capacity
        )
        self.default_weight = default_weight
        self.throttle_ratio = throttle_ratio
        self._weights: Dict[str, float] = {}
        self._tenant_finish: Dict[str, float] = {}
        self._tenant_depth: Dict[str, int] = {}
        self._heap: List[Tuple[float, int, Entry]] = []
        self._entries: Dict[int, Entry] = {}
        self._virtual_time = 0.0
        self._next_seq = 0
        self._queued = 0

    # -- weights ----------------------------------------------------------

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        self._weights[tenant] = float(weight)

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, self.default_weight)

    # -- occupancy / backpressure ----------------------------------------

    def __len__(self) -> int:
        return self._queued

    @property
    def virtual_time(self) -> float:
        return self._virtual_time

    def tenant_depth(self, tenant: str) -> int:
        return self._tenant_depth.get(tenant, 0)

    def pressure(self) -> float:
        """Queue occupancy as a fraction of capacity (0..1)."""
        return self._queued / self.capacity

    def backpressure_level(self) -> str:
        """The advertised signal for the *next* arrival.

        Monotone in occupancy by construction: ``reject`` at capacity,
        ``throttle`` from ``throttle_ratio`` up, ``accept`` below.
        """
        if self._queued >= self.capacity:
            return REJECT
        if self.pressure() >= self.throttle_ratio:
            return THROTTLE
        return ACCEPT

    def retry_after_ms(self) -> float:
        """Advisory client backoff, scaled to the queue's fullness."""
        return round(5.0 * max(self._queued, 1), 3)

    # -- admission --------------------------------------------------------

    def offer(
        self,
        tenant: str,
        *,
        cost: float = 1.0,
        payload: Any = None,
    ) -> Admission:
        """Admit or reject one arrival; returns the decision record."""
        if cost <= 0:
            raise ValueError("request cost must be positive")
        depth = self._tenant_depth.get(tenant, 0)
        if self._queued >= self.capacity:
            return Admission(
                "rejected", "queue-full", None, self._queued, depth,
                self.pressure(), REJECT,
            )
        if depth >= self.tenant_capacity:
            return Admission(
                "rejected", "tenant-quota", None, self._queued, depth,
                self.pressure(), self.backpressure_level(),
            )
        seq = self._next_seq
        self._next_seq += 1
        weight = self.weight_of(tenant)
        start = max(self._virtual_time, self._tenant_finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._tenant_finish[tenant] = finish
        entry = Entry(
            seq=seq,
            tenant=tenant,
            cost=cost,
            virtual_finish=finish,
            payload=payload,
        )
        heapq.heappush(self._heap, (finish, seq, entry))
        self._entries[seq] = entry
        self._queued += 1
        self._tenant_depth[tenant] = depth + 1
        return Admission(
            "admitted", "ok", seq, self._queued, depth + 1,
            self.pressure(), self.backpressure_level(), finish,
        )

    # -- dispatch ---------------------------------------------------------

    def next(self) -> Optional[Entry]:
        """Dispatch the queued request with the smallest finish tag.

        Returns ``None`` only when the queue is empty (work
        conservation); cancelled entries are skipped and discarded.
        """
        while self._heap:
            finish, seq, entry = heapq.heappop(self._heap)
            if entry.cancelled or seq not in self._entries:
                continue
            del self._entries[seq]
            self._queued -= 1
            depth = self._tenant_depth.get(entry.tenant, 1) - 1
            if depth:
                self._tenant_depth[entry.tenant] = depth
            else:
                self._tenant_depth.pop(entry.tenant, None)
            self._virtual_time = max(self._virtual_time, finish)
            return entry
        return None

    def entry_of(self, seq: int) -> Optional[Entry]:
        """The still-queued entry with admission number ``seq``, if any."""
        return self._entries.get(seq)

    def cancel(self, seq: int) -> bool:
        """Withdraw a queued request; True when it was still queued."""
        entry = self._entries.pop(seq, None)
        if entry is None:
            return False
        entry.cancelled = True
        self._queued -= 1
        depth = self._tenant_depth.get(entry.tenant, 1) - 1
        if depth:
            self._tenant_depth[entry.tenant] = depth
        else:
            self._tenant_depth.pop(entry.tenant, None)
        return True

    def drain(self) -> List[Entry]:
        """Dispatch everything still queued, in fair order."""
        drained: List[Entry] = []
        while True:
            entry = self.next()
            if entry is None:
                return drained
            drained.append(entry)
