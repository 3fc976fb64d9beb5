"""The ``service`` workload's server process.

Boots a default ``DecodeService`` on an ephemeral local port, prints
``{"host": ..., "port": ...}`` on one line, and serves until its
standard input closes -- so it also stops if the load process dies.  It
then shuts the service down and prints ``@stats {...}``: the server's
own counters and its peak RSS, which the load process reports as
``peak_rss_mb``.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys

from repro.service import DecodeService, ServiceConfig

from common import pin_cpu


async def serve() -> None:
    # The event loop and the engine-lane thread share the interpreter
    # lock; on one CPU they never hand it across CPUs.
    pin_cpu(0)
    service = DecodeService(ServiceConfig())
    host, port = await service.start()
    print(json.dumps({"host": host, "port": port}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await service.shutdown()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("@stats " + json.dumps({"peak_rss_kib": peak_kib, **service.stats()}),
          flush=True)


if __name__ == "__main__":
    asyncio.run(serve())
