"""In-memory spans for the traced benchmark run.

Spans are recorded by the benchmark's own code around its calls into
each layer's public functions; the program itself carries no tracing.
Each span records ``name``, ``start``, ``end`` (``time.perf_counter``
seconds), the index of its ``parent`` span and the ``op`` it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Single-threaded span recorder (one stack of open spans)."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, op: Optional[int]) -> None:
        """Record a finished top-level span (concurrent requests)."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": None, "op": op}
        )

    def durations_ms(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [
            1000.0 * (span["end"] - span["start"])
            for span in self.spans
            if span["name"] == name
        ]

    def median_ms(self, name: str) -> Optional[float]:
        values = self.durations_ms(name)
        return statistics.median(values) if values else None

    def self_times_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus children's cover.

        Children of one span run sequentially on one thread, so the part
        of the parent's interval they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, cover in zip(self.spans, covered):
            own = span["end"] - span["start"] - cover
            totals[span["name"]] = totals.get(span["name"], 0.0) + 1000.0 * own
        return totals

    def uncovered_share(self, op_name: str) -> Optional[float]:
        """Share of the ``op_name`` spans' time that no child span covers."""
        self_time = self.self_times_ms().get(op_name)
        total = sum(self.durations_ms(op_name))
        if self_time is None or total <= 0:
            return None
        return self_time / total
