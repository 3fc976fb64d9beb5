"""Helpers shared by the benchmark's processes (standard library only)."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from typing import Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Prefixes of the machine-read lines a worker prints.
READY = "@ready "
EXPECT = "@expect "
RESULT = "@result "


class Mismatch(AssertionError):
    """An op's output differs from what the in-tree oracle expects."""


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def p90(values: Sequence[float]) -> Optional[float]:
    """90th percentile (inclusive method); needs 10 values to mean much."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pin_cpu(which: int) -> None:
    """Pin this process, and the threads it starts later, to one CPU.

    ``which`` indexes the CPUs the process may use; on a single-CPU host
    nothing changes.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[which]})


def worker_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The program is imported from this checkout's ``src``, and a fixed
    hash seed keeps set iteration order -- and with it the work that
    synthesis does -- the same in every process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _source_rev() -> str:
    """Git revision, or a hash of ``src`` when the tree is not a checkout."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = git.stdout.split() if git.returncode == 0 else []
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    # A tree copied inside some other repository must not take its HEAD.
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance(seed: int, traced: bool) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "rev": _source_rev(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "traced": traced,
    }
