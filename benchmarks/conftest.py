"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  The
expensive synthesis results are shared session-wide; the pytest-benchmark
fixture times the core regeneration step of each experiment.

Quick mode: setting ``REPRO_BENCH_QUICK=1`` (as scripts/check.sh does)
disables pytest-benchmark's calibration rounds and makes the engine
benchmarks (benchmarks/test_bench_engine.py) shrink their workloads and
skip their timing assertions -- every benchmark still runs end to end as
a functional smoke test.

Summaries (``BENCH_*.json``) are written to the gitignored
``.benchmarks/`` directory through the ``bench_dir`` fixture, never over
the committed baselines at the repo root; ``scripts/check.sh
--update-baselines`` is what copies a full run over them.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

BENCH_QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Output directory of benchmark summaries (listed in .gitignore).
BENCH_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"


def pytest_configure(config):
    if BENCH_QUICK and hasattr(config.option, "benchmark_disable"):
        # pytest-benchmark then calls each benchmarked function exactly once.
        config.option.benchmark_disable = True


@pytest.fixture(scope="session")
def bench_quick() -> bool:
    """True when the harness runs in REPRO_BENCH_QUICK smoke mode."""
    return BENCH_QUICK

from repro.core.assumptions import assume
from repro.stg import specs
from repro.synthesis import (
    synthesize_burst_mode,
    synthesize_rt,
    synthesize_si,
    to_pulse_mode,
)


@pytest.fixture(scope="session")
def fifo_si():
    return synthesize_si(specs.fifo_controller())


@pytest.fixture(scope="session")
def fifo_bm():
    return synthesize_burst_mode(specs.fifo_controller())


@pytest.fixture(scope="session")
def fifo_rt():
    return synthesize_rt(specs.fifo_controller())


@pytest.fixture(scope="session")
def fifo_rt_user():
    return synthesize_rt(
        specs.fifo_controller(),
        user_assumptions=[assume("ri-", "li+", rationale="ring with a single token")],
    )


@pytest.fixture(scope="session")
def fifo_pulse(fifo_rt_user):
    return to_pulse_mode(fifo_rt_user)


@pytest.fixture(scope="session")
def bench_dir() -> Path:
    """The directory benchmarks write their ``BENCH_*.json`` files to."""
    BENCH_DIR.mkdir(exist_ok=True)
    return BENCH_DIR
