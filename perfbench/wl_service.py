"""``service`` workload: a mixed request stream against ``DecodeService``.

The server runs in its own process (``service_server.py``); this process
only generates load.  It opens 2 connections (one per CPU of the
reference host) and keeps 4 requests in flight on each -- a closed loop,
because callers wait for their replies.  The requests follow a seeded
fixed sequence, shuffled in blocks of eight:

* 5/8 decode requests of 2k instructions, with seeds drawn from 16, so
  batches repeat work and hit the decode handler's workload cache;
* 2/8 reduced reachability on ``rappid_control:2x2``;
* 1/8 coverage on ``buffer``.

Engine work per request is a few milliseconds, so protocol, admission,
batching, thread hand-off and serialisation dominate.  Every response is
compared with the payload of the same handler called directly here.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.service import handlers
from repro.service.client import BackpressureRejected, ServiceClient, ServiceError

from common import HERE, ROOT, median, pin_cpu, worker_env
from tracing import Tracer

CONNECTIONS = 2
IN_FLIGHT = 4
DECODE_SEEDS = 16
MIX = ("decode",) * 5 + ("reachability",) * 2 + ("coverage",)
#: Requests generated up front; the load cycles through them.
SEQUENCE = 8192
#: Throughput is sampled over each run of this many correct responses.
WINDOW = 100
#: Direct handler calls timed per distinct request.
HANDLER_REPEATS = 3
SERVER = [sys.executable, f"{HERE}/service_server.py"]


def _params(capability: str, seed: int) -> dict:
    if capability == "decode":
        return {"seed": seed, "instructions": 2_000}
    if capability == "reachability":
        return {"spec": "rappid_control:2x2"}
    return {"circuit": "buffer"}


def _key(capability: str, params: dict) -> str:
    return capability + json.dumps(params, sort_keys=True)


class Workload:
    NAME = "service"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        seeds = [seed * DECODE_SEEDS + k for k in range(DECODE_SEEDS)]
        self.requests = []
        for _ in range(SEQUENCE // len(MIX)):
            block = list(MIX)
            rng.shuffle(block)
            for capability in block:
                self.requests.append((capability, _params(capability, rng.choice(seeds))))
        self._expected: Dict[str, dict] = {}
        self._handler_ms: Dict[str, float] = {}
        self._next = 0
        self.server_stats: Optional[dict] = None
        self.clients: List[ServiceClient] = []
        self.loop = asyncio.new_event_loop()
        self.server = subprocess.Popen(
            SERVER, cwd=ROOT, env=worker_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        # The server pins itself to the first CPU, the load to the last.
        pin_cpu(-1)
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("service server exited before binding a port")
        address = json.loads(line)

        async def connect():
            return await asyncio.gather(
                *(
                    ServiceClient.connect(address["host"], address["port"], tenant=f"load-{k}")
                    for k in range(CONNECTIONS)
                )
            )

        self.clients = self.loop.run_until_complete(connect())

    def warmup(self) -> None:
        async def one_of_each():
            for capability in dict.fromkeys(MIX):
                await self.clients[0].request(capability, _params(capability, 0))

        self.loop.run_until_complete(one_of_each())

    # -- load ------------------------------------------------------------

    async def _lane(self, client, deadline, records, tracer) -> None:
        while time.perf_counter() < deadline:
            index = self._next
            self._next += 1
            capability, params = self.requests[index % len(self.requests)]
            record = {"index": index, "capability": capability, "params": params,
                      "payload": None, "trace": {}, "error": None}
            started = time.perf_counter()
            try:
                result = await client.request(capability, params)
                record["payload"], record["trace"] = result.payload, result.trace
            except BackpressureRejected as exc:
                record["error"], record["rejected"] = str(exc), True
                record["trace"] = exc.trace
            except ServiceError as exc:
                record["error"], record["trace"] = str(exc), exc.trace
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - started
            if tracer is not None:
                tracer.add(f"service.request.{capability}", started, record["end"], index)
            records.append(record)

    async def _phase(self, seconds: float, tracer) -> dict:
        before = await self.clients[0].stats()
        cpu, started = time.process_time(), time.perf_counter()
        deadline = started + seconds
        records: list = []
        await asyncio.gather(
            *(
                self._lane(client, deadline, records, tracer)
                for client in self.clients
                for _ in range(IN_FLIGHT)
            )
        )
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        after = await self.clients[0].stats()
        return {"records": records, "started": started, "wall": wall, "cpu": cpu,
                "stats": {k: after.get(k, 0) - before.get(k, 0) for k in
                          ("errors", "requests_batched", "batches_built")}}

    # -- checks ----------------------------------------------------------

    def _expectation(self, capability: str, params: dict) -> dict:
        """Direct handler payload for a request; times warm repeat calls."""
        key = _key(capability, params)
        if key not in self._expected:
            handler = handlers.get(capability)
            self._expected[key] = handler.run(params, lambda chunk: None)
            times = []
            for _ in range(HANDLER_REPEATS):
                started = time.perf_counter()
                handler.run(params, lambda chunk: None)
                times.append(1000.0 * (time.perf_counter() - started))
            self._handler_ms[key] = median(times)
        return self._expected[key]

    def _check(self, phase: dict) -> int:
        """Correct responses in ``phase``; marks the others failed."""
        correct = 0
        for record in phase["records"]:
            if record["error"] is None:
                expected = self._expectation(record["capability"], record["params"])
                if record["payload"] == expected:
                    correct += 1
                else:
                    record["error"] = (
                        f"{record['capability']} {record['params']}: "
                        "response differs from the direct handler call"
                    )
        return correct

    def model_lines(self) -> List[str]:
        seed = next(params["seed"] for capability, params in self.requests
                    if capability == "decode")
        decode = self._expectation("decode", _params("decode", seed))
        reach = self._expectation("reachability", _params("reachability", 0))
        coverage = self._expectation("coverage", _params("coverage", 0))
        return [
            f"service model: decode seed={seed} "
            f"instr_per_ns={decode['throughput_instructions_per_ns']!r} "
            f"reachability states={reach['states']} coverage={coverage['coverage']!r}"
        ]

    # -- measurement -----------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> dict:
        """Untraced: one load phase.  Traced: an untraced and a traced half."""
        tracer = Tracer() if traced else None
        phases = [self.loop.run_until_complete(self._phase(seconds / (2 if traced else 1), None))]
        if traced:
            phases.append(self.loop.run_until_complete(self._phase(seconds / 2, tracer)))
        correct = [self._check(phase) for phase in phases]
        self.close()
        records = [record for phase in phases for record in phase["records"]]
        errors = [record["error"] for record in records if record["error"] is not None]
        result = {"attempted": len(records), "failed": len(errors), "errors": errors[:5]}
        if not traced:
            result.update(
                times=[record["seconds"] for record in records],
                rates=self._rates(phases[0]),
                spent=phases[0]["wall"],
                peak_rss_mb=self.server_stats["peak_rss_kib"] / 1024.0,
            )
            return result
        throughput = [done / phase["wall"] for done, phase in zip(correct, phases)]
        result["metrics"] = self._layer_metrics(phases[1], throughput)
        result["self_time_ms"] = tracer.self_times_ms()
        result["spans"] = tracer.spans
        return result

    @staticmethod
    def _rates(phase: dict) -> List[float]:
        """Correct responses per second over each run of ``WINDOW`` of them."""
        ends = sorted(r["end"] for r in phase["records"] if r["error"] is None)
        return [
            WINDOW / (ends[first + WINDOW] - ends[first])
            for first in range(0, len(ends) - WINDOW, WINDOW)
        ]

    def _layer_metrics(self, phase: dict, throughput: list) -> dict:
        records = [r for r in phase["records"] if r["error"] is None]
        metrics: Dict[str, Optional[float]] = {}
        overhead, e2e_total = [], 0.0
        for capability in dict.fromkeys(MIX):
            mine = [r for r in records if r["capability"] == capability]
            metrics[f"service.e2e.{capability}.ms"] = median(
                [1000.0 * r["seconds"] for r in mine])
            metrics[f"service.handler.{capability}.ms"] = median(
                [self._handler_ms[_key(capability, r["params"])] for r in mine])
        for r in records:
            e2e = 1000.0 * r["seconds"]
            overhead.append(e2e - self._handler_ms[_key(r["capability"], r["params"])])
            e2e_total += e2e
        metrics["service.overhead.ms"] = median(overhead)

        batches: Dict[int, list] = {}
        depths = []
        for r in records:
            batch, admission = r["trace"].get("batch"), r["trace"].get("admission")
            if batch is not None:
                batches.setdefault(batch["id"], []).append(
                    (batch["position"], batch["size"], _key(r["capability"], r["params"])))
            if admission is not None:
                depths.append(admission["queue_depth"])
        duplicates = 0
        for members in batches.values():
            seen = set()
            for _position, _size, key in sorted(members):
                duplicates += key in seen
                seen.add(key)
        stats = phase["stats"]
        metrics.update({
            "service.batch.size_p50": median([m[0][1] for m in batches.values()]),
            "service.batch.coalescing_ratio": (
                stats["requests_batched"] / stats["batches_built"]
                if stats["batches_built"] else None),
            "service.batch.duplicate_share": (
                duplicates / sum(len(m) for m in batches.values()) if batches else None),
            "service.admission.queue_depth_p50": median(depths),
            "service.admission.rejected": sum(1 for r in phase["records"] if r.get("rejected")),
            # The server counts every handler error it sends back.
            "service.errors": stats["errors"],
            "service.loadgen.cpu_share": phase["cpu"] / phase["wall"],
            "service.trace.overhead": throughput[1] / throughput[0] - 1.0,
            "service.trace.uncovered_share": (
                sum(overhead) / e2e_total if e2e_total else None),
        })
        return metrics

    def close(self) -> None:
        """Close the connections, stop the server and collect its stats."""
        if self.loop.is_closed():
            return
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.loop.close()
        out, _ = self.server.communicate(timeout=30)
        for line in out.splitlines():
            if line.startswith("@stats "):
                self.server_stats = json.loads(line[len("@stats "):])
