"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables/figures at a reduced
but shape-preserving scale (override with ``REPRO_BENCH_SCALE=1.0``)
and writes the rendered rows/series to ``benchmarks/results/``.

The evaluation figures (10-14) share one 8-workload x 4-scheme sweep,
computed once per session.  The sweep fans out over
``REPRO_BENCH_JOBS`` worker processes (default: all cores) and goes
through the on-disk result cache, so a re-run at the same scale/seed
against unchanged sources replays without simulating; set
``REPRO_NO_CACHE=1`` to force fresh simulations.

Every session also appends per-bench wall seconds to
``benchmarks/results/timing.json`` (see ``bench_timing.py``) so perf
regressions show up as a trajectory across commits.
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from bench_timing import TimingRecorder
from repro.analysis.parallel import WorkloadSpec
from repro.analysis.sweep import SchemeSweep, paper_schemes
from repro.sim.resultcache import cache_enabled
from repro.workloads.stamp import STAMP_WORKLOADS

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS",
                                str(os.cpu_count() or 1)))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_RECORDER = TimingRecorder(RESULTS_DIR / "timing.json")


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def paper_sweep():
    """The 8 x 4 evaluation grid, shared by the Fig. 10-14 benches."""
    specs = {
        name: WorkloadSpec(name, scale=BENCH_SCALE, seed=BENCH_SEED)
        for name in STAMP_WORKLOADS
    }
    sweep = SchemeSweep(paper_schemes(), jobs=BENCH_JOBS)
    return sweep.run(specs)


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_jobs():
    return BENCH_JOBS


# ---------------------------------------------------------------------
# wall-clock trajectory (benchmarks/results/timing.json)
# ---------------------------------------------------------------------

@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    t0 = time.perf_counter()
    yield
    _RECORDER.record(item.nodeid, time.perf_counter() - t0)


def pytest_sessionfinish(session, exitstatus):
    _RECORDER.flush(scale=BENCH_SCALE, seed=BENCH_SEED,
                    jobs=BENCH_JOBS, cache_enabled=cache_enabled())
