"""Async load generator for the decode service.

Drives a local :class:`~repro.service.server.DecodeService` with ``N``
concurrent client sessions issuing back-to-back requests, and reports
requests/s, latency quantiles, requests per lane batch, and the
reject/retry counts.  Client and server share one event loop here, so
the timings are a rough guide; ``perfbench``'s ``service`` workload
measures the server from a separate load process.  The service tests
call :func:`run_load` at 1 / 10 / 100 sessions for its completion
counts; ``check.sh`` runs the one-line smoke::

    PYTHONPATH=src python -m repro.service.loadgen --smoke

which boots a server in-process, pushes a small mixed workload through
a few sessions, verifies one decode response bit-identical to the
direct engine call, and exits non-zero on any mismatch -- the cheapest
end-to-end proof that the service stack (protocol, scheduler, lanes,
handlers, engine) still holds together.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.client import (
    BackpressureRejected,
    ServiceClient,
    ServiceError,
)
from repro.service.server import DecodeService, ServiceConfig


@dataclass
class LoadReport:
    """Aggregate outcome of one load run (JSON-ready via ``as_dict``)."""

    clients: int
    requests: int
    completed: int
    rejected: int
    failed: int
    elapsed_s: float
    latencies_s: List[float] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def requests_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "elapsed_s": round(self.elapsed_s, 6),
            "requests_per_s": round(self.requests_per_s, 3),
            "p50_latency_s": round(self.latency_quantile(0.50), 6),
            "p99_latency_s": round(self.latency_quantile(0.99), 6),
            "coalescing_ratio": self.stats.get("coalescing_ratio", 0.0),
            "batches_built": self.stats.get("batches_built", 0),
            "requests_batched": self.stats.get("requests_batched", 0),
        }


def default_workload(index: int) -> Dict[str, Any]:
    """The canonical small decode request the load generator repeats.

    Every client reuses a tiny set of seeds, so repeated workloads hit
    the decode handler's workload cache.
    """
    return {
        "capability": "decode",
        "params": {"seed": index % 4, "instructions": 400},
    }


async def _client_loop(
    host: str,
    port: int,
    tenant: str,
    requests: int,
    report: LoadReport,
    workload,
) -> None:
    client = await ServiceClient.connect(host, port, tenant=tenant)
    try:
        for index in range(requests):
            spec = workload(index)
            started = time.perf_counter()
            try:
                await client.request(spec["capability"], spec["params"])
            except BackpressureRejected as exc:
                report.rejected += 1
                await asyncio.sleep(exc.retry_after_ms / 1000.0)
                continue
            except ServiceError:
                report.failed += 1
                continue
            report.completed += 1
            report.latencies_s.append(time.perf_counter() - started)
    finally:
        await client.close()


async def run_load(
    *,
    clients: int = 10,
    requests_per_client: int = 10,
    config: Optional[ServiceConfig] = None,
    workload=default_workload,
) -> LoadReport:
    """Boot a service in-process, hammer it, return the aggregate report."""
    service = DecodeService(config or ServiceConfig())
    host, port = await service.start()
    report = LoadReport(
        clients=clients,
        requests=clients * requests_per_client,
        completed=0,
        rejected=0,
        failed=0,
        elapsed_s=0.0,
    )
    started = time.perf_counter()
    try:
        await asyncio.gather(
            *(
                _client_loop(
                    host, port, f"tenant-{i}", requests_per_client,
                    report, workload,
                )
                for i in range(clients)
            )
        )
    finally:
        report.elapsed_s = time.perf_counter() - started
        report.stats = service.stats()
        await service.shutdown()
    return report


async def _smoke() -> int:
    """End-to-end smoke: mixed workload + one bit-identity spot check."""
    from repro.rappid.microarch import RappidConfig, RappidDecoder
    from repro.rappid.workload import WorkloadGenerator
    from repro.service.handlers import decode as decode_handler

    service = DecodeService(ServiceConfig(capacity=64, window=4))
    host, port = await service.start()
    try:
        client = await ServiceClient.connect(host, port, tenant="smoke")
        try:
            decode_result, coverage_result, reach_result = (
                await asyncio.gather(
                    client.request(
                        "decode", {"seed": 3, "instructions": 300}
                    ),
                    client.request(
                        "coverage",
                        {"circuit": "buffer", "duration_ps": 2_000.0},
                    ),
                    client.request(
                        "reachability", {"spec": "fifo", "max_states": 2_000}
                    ),
                )
            )
            await client.ping()
            stats = await client.stats()
        finally:
            await client.close()
    finally:
        await service.shutdown()

    failures: List[str] = []
    generator = WorkloadGenerator(seed=3)
    instructions = generator.instructions(300)
    lines = generator.cache_lines(instructions)
    direct = decode_handler.payload_of(
        RappidDecoder(RappidConfig()).run(instructions, lines)
    )
    if decode_result.payload != direct:
        failures.append("decode payload differs from direct engine call")
    if coverage_result.payload.get("total_faults", 0) <= 0:
        failures.append("coverage campaign reported no faults")
    if not reach_result.payload.get("deadlock_free", False):
        failures.append("fifo spec unexpectedly reported deadlocks")
    if stats.get("results", 0) != 3:
        failures.append(f"server stats disagree: {stats}")

    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "service smoke ok: "
        + json.dumps(
            {
                "decode_issue_signature": decode_result.payload[
                    "issue_signature"
                ][:12],
                "coverage": coverage_result.payload["coverage"],
                "reachability_states": reach_result.payload["states"],
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the end-to-end smoke check and exit",
    )
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--requests", type=int, default=10)
    args = parser.parse_args(argv)
    if args.smoke:
        return asyncio.run(_smoke())
    report = asyncio.run(
        run_load(clients=args.clients, requests_per_client=args.requests)
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
