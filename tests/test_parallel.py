"""Parallel sweep execution: serial/parallel equivalence, determinism,
task descriptors, the resilient executor (crash replacement, timeouts,
resume by rerunning against the result cache), and the strict
(non-ragged) SweepResult grid."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
import repro.system
from repro.analysis.parallel import (
    SweepExecutionError,
    SweepTask,
    WorkloadSpec,
    grid_tasks,
    resolve_jobs,
    run_task,
    run_tasks,
    run_tasks_resilient,
)
from repro.analysis.sweep import SchemeSweep, SweepResult, paper_schemes
from repro.sim.config import small_config
from repro.sim.engine import Simulator
from repro.sim.resultcache import ResultCache, cell_key
from repro.sim.stats import Stats


def _schemes4():
    base = small_config(4)
    return {
        "baseline": ("baseline", base),
        "backoff": ("backoff", base),
        "rmw": ("rmw", base),
        "puno": ("puno", base.with_puno()),
    }


def _specs4(names=("intruder", "kmeans"), scale=0.1, seed=0):
    return {n: WorkloadSpec(n, num_nodes=4, scale=scale, seed=seed)
            for n in names}


# ---------------------------------------------------------------------
# equivalence and determinism
# ---------------------------------------------------------------------

def test_parallel_matches_serial_2x4():
    """jobs=4 must produce bit-identical Stats to jobs=1 on every cell
    of a 2-workload x 4-scheme grid."""
    schemes, specs = _schemes4(), _specs4()
    serial = SchemeSweep(schemes, max_cycles=20_000_000,
                         jobs=1, cache=False).run(specs)
    parallel = SchemeSweep(schemes, max_cycles=20_000_000,
                           jobs=4, cache=False).run(specs)
    assert set(serial.stats) == set(parallel.stats)
    for wl in specs:
        for scheme in schemes:
            assert (serial.stats[wl][scheme].snapshot()
                    == parallel.stats[wl][scheme].snapshot()), \
                f"parallel run diverged on {wl}/{scheme}"


@pytest.mark.slow
def test_parallel_matches_serial_full_paper_grid():
    """The full 8-workload x 4-scheme paper grid at reduced scale:
    SchemeSweep(jobs=4) equals the serial run cell for cell."""
    specs = {name: WorkloadSpec(name, scale=0.05, seed=0)
             for name in ("bayes", "intruder", "labyrinth", "yada",
                          "genome", "kmeans", "ssca2", "vacation")}
    serial = SchemeSweep(paper_schemes(), jobs=1, cache=False).run(specs)
    parallel = SchemeSweep(paper_schemes(), jobs=4, cache=False).run(specs)
    for wl in specs:
        for scheme in ("baseline", "backoff", "rmw", "puno"):
            assert (serial.stats[wl][scheme].snapshot()
                    == parallel.stats[wl][scheme].snapshot()), \
                f"parallel run diverged on {wl}/{scheme}"


def test_serial_reruns_are_deterministic():
    """Two fresh serial runs of the same cell produce identical Stats —
    the property the cache and the parallel layer both rely on."""
    schemes = {"baseline": ("baseline", small_config(4))}
    specs = _specs4(names=("intruder",))
    a = SchemeSweep(schemes, jobs=1, cache=False).run(specs)
    b = SchemeSweep(schemes, jobs=1, cache=False).run(specs)
    assert (a.stats["intruder"]["baseline"].snapshot()
            == b.stats["intruder"]["baseline"].snapshot())


# ---------------------------------------------------------------------
# sweep-level cache behaviour
# ---------------------------------------------------------------------

def test_warm_cache_replays_grid_without_simulating(tmp_path):
    schemes, specs = _schemes4(), _specs4()
    cold = SchemeSweep(schemes, max_cycles=20_000_000,
                       jobs=1, cache=tmp_path).run(specs)
    # run the same grid through the parallel path against the warm
    # cache: every cell must be a hit and identical
    tasks = grid_tasks(schemes, specs, max_cycles=20_000_000,
                       cache_dir=str(tmp_path))
    results = run_tasks(tasks, jobs=2)
    assert all(tr.cache_hit for tr in results)
    for tr in results:
        assert (tr.stats.snapshot()
                == cold.stats[tr.workload][tr.scheme].snapshot())


def test_no_cache_env_defeats_task_cache(tmp_path, monkeypatch):
    schemes, specs = _schemes4(), _specs4(names=("kmeans",))
    SchemeSweep(schemes, max_cycles=20_000_000,
                jobs=1, cache=tmp_path).run(specs)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    task = grid_tasks(schemes, specs, max_cycles=20_000_000,
                      cache_dir=str(tmp_path))[0]
    assert not run_task(task).cache_hit


# ---------------------------------------------------------------------
# descriptors and plumbing
# ---------------------------------------------------------------------

def test_tasks_are_picklable():
    import pickle
    task = grid_tasks(_schemes4(), _specs4())[0]
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task
    assert clone.spec.build().name == task.workload


def test_workload_spec_builds_synthetic():
    spec = WorkloadSpec("micro", kind="synthetic", num_nodes=4, seed=5,
                        params=(("instances", 3), ("shared_lines", 16),
                                ("tx_reads", 4), ("tx_writes", 1)))
    wl = spec.build()
    assert wl.num_nodes == 4 and wl.total_instances() > 0


def test_workload_spec_unknown_kind():
    with pytest.raises(ValueError):
        WorkloadSpec("x", kind="nope").build()


def test_parallel_sweep_rejects_live_factories():
    sweep = SchemeSweep(_schemes4(), jobs=4)
    with pytest.raises(TypeError):
        sweep.run({"intruder": lambda: None})


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-3) == 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


def test_grid_tasks_order_is_workload_major():
    tasks = grid_tasks(_schemes4(), _specs4())
    labels = [(t.workload, t.scheme) for t in tasks]
    assert labels[:4] == [("intruder", "baseline"), ("intruder", "backoff"),
                          ("intruder", "rmw"), ("intruder", "puno")]
    assert labels[4][0] == "kmeans"


# ---------------------------------------------------------------------
# resilient execution: crash replacement, timeouts, deterministic errors
# ---------------------------------------------------------------------

# Fault-simulating runners for the resilient executor.  They must be
# module-level (they cross the pickle boundary into pool workers), and
# every test that uses a crashing/hanging runner needs >= 2 tasks AND
# jobs >= 2: with a single pending cell the executor runs in-process,
# where os._exit would take pytest down with it.

_CRASH_FLAG_ENV = "REPRO_TEST_CRASH_DIR"


def _tasks2(max_cycles=20_000_000, cache_dir=None, audit=True):
    schemes = {"baseline": ("baseline", small_config(4)),
               "backoff": ("backoff", small_config(4))}
    return grid_tasks(schemes, _specs4(names=("intruder",)),
                      max_cycles=max_cycles, audit=audit,
                      cache_dir=None if cache_dir is None
                      else str(cache_dir))


def _crashy_run_task(task):
    """Dies hard (os._exit) the first time each cell is attempted;
    marker files in $REPRO_TEST_CRASH_DIR persist across workers."""
    marker = (Path(os.environ[_CRASH_FLAG_ENV])
              / f"{task.workload}-{task.scheme}.crashed")
    if not marker.exists():
        marker.write_bytes(b"x")
        os._exit(137)
    return run_task(task)


def _sleepy_run_task(task):
    time.sleep(60)
    return run_task(task)  # pragma: no cover - the pool is torn down


def _raise_run_task(task):
    raise ValueError(f"deterministic failure on {task.scheme}")


def test_resilient_matches_plain_runner():
    tasks = _tasks2()
    plain = run_tasks(tasks, jobs=2)
    resilient = run_tasks_resilient(tasks, jobs=2)
    assert [(r.workload, r.scheme) for r in resilient] \
        == [(t.workload, t.scheme) for t in tasks]
    for a, b in zip(plain, resilient):
        assert a.stats.snapshot() == b.stats.snapshot()


def test_killed_worker_is_retried_to_completion(tmp_path, monkeypatch):
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    tasks = _tasks2()
    results = run_tasks_resilient(tasks, jobs=2, retries=3,
                                  runner=_crashy_run_task)
    assert all(r is not None for r in results)
    assert all(r.stats.tx_committed > 0 for r in results)
    # every cell really did crash once before completing
    assert len(list(tmp_path.glob("*.crashed"))) == len(tasks)


def test_stuck_pool_times_out_with_structured_error():
    with pytest.raises(SweepExecutionError, match="no completion within"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            task_timeout=0.5,
                            runner=_sleepy_run_task)


def test_deterministic_worker_error_is_not_retried():
    with pytest.raises(SweepExecutionError, match="not retried"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=5,
                            runner=_raise_run_task)


def test_crash_exhaustion_names_the_failed_cells(tmp_path, monkeypatch):
    """retries=0 means a first-attempt crash is already exhaustion."""
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    with pytest.raises(SweepExecutionError, match="after 1 attempt"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            runner=_crashy_run_task)


# ---------------------------------------------------------------------
# resume = rerun against the result cache
# ---------------------------------------------------------------------

@pytest.fixture
def sims(monkeypatch):
    """The cm name of every real simulation in this process."""
    calls = []
    real = repro.system.run_workload

    def counting(config, workload, cm="baseline", **kwargs):
        calls.append(cm)
        return real(config, workload, cm=cm, **kwargs)

    monkeypatch.setattr(repro.system, "run_workload", counting)
    return calls


def _cache_path(root, task):
    key = cell_key(task.config, task.cm,
                   parallel._FINGERPRINTS[repr(task.spec)])
    return root / key[:2] / f"{key}.pkl"


def _snapshots(results):
    return [r.stats.snapshot() for r in results]


def test_resume_recomputes_only_the_missing_cell(tmp_path, fresh_memo,
                                                 builds, sims):
    tasks = _tasks2(cache_dir=tmp_path)
    cold = run_tasks_resilient(tasks, jobs=1)
    _cache_path(tmp_path, tasks[0]).unlink()

    # a fresh process reruns the grid in-process: the missing cell is
    # built and simulated, the other one is read from the cache
    parallel._FINGERPRINTS.clear()
    builds.clear()
    sims.clear()
    warm = run_tasks_resilient(tasks, jobs=1)
    assert builds == [tasks[0].workload]
    assert sims == [tasks[0].cm]
    assert [r.cache_hit for r in warm] == [False, True]
    assert _snapshots(warm) == _snapshots(cold)
    assert len(ResultCache(tmp_path)) == len(tasks)


def test_resume_sends_only_the_missing_cells_to_the_pool(
        tmp_path, fresh_memo, monkeypatch):
    schemes, specs = _schemes4(), _specs4()
    cold = run_tasks_resilient(
        grid_tasks(schemes, specs, max_cycles=20_000_000,
                   cache_dir=str(tmp_path / "cold")), jobs=2)
    tasks = grid_tasks(schemes, specs, max_cycles=20_000_000,
                       cache_dir=str(tmp_path / "cache"))
    run_tasks_resilient(tasks[::2], jobs=2)  # half the grid finished

    rounds = []
    real = parallel._run_round

    def recording(task_list, pending, *args):
        rounds.append(list(pending))
        return real(task_list, pending, *args)

    monkeypatch.setattr(parallel, "_run_round", recording)
    resumed = run_tasks_resilient(tasks, jobs=2)
    missing = list(range(1, len(tasks), 2))
    assert rounds == [missing]
    assert [i for i, r in enumerate(resumed) if not r.cache_hit] == missing
    assert _snapshots(resumed) == _snapshots(cold)
    assert len(ResultCache(tmp_path / "cache")) == len(tasks)


def test_budget_and_audit_stay_out_of_the_cache_key(tmp_path, fresh_memo,
                                                    monkeypatch):
    """A finished cell answers for any max_cycles budget and either
    audit setting, because both only ever raise and never change a
    completed run's Stats; a cell that raises is never stored."""
    cold = run_tasks_resilient(
        _tasks2(max_cycles=20_000_000, cache_dir=tmp_path), jobs=1)
    assert not any(r.cache_hit for r in cold)
    for tasks in (_tasks2(max_cycles=200_000_000, cache_dir=tmp_path),
                  _tasks2(audit=False, cache_dir=tmp_path)):
        parallel._FINGERPRINTS.clear()
        warm = run_tasks_resilient(tasks, jobs=1)
        assert all(r.cache_hit for r in warm)
        assert _snapshots(warm) == _snapshots(cold)

    real = Simulator.run

    def short_chunks(self, until=None, max_events=None):
        # System.run checks the budget between 2M-event chunks; small
        # chunks reach that check without a multi-second cell
        if max_events is not None:
            max_events = min(max_events, 200)
        return real(self, until=until, max_events=max_events)

    monkeypatch.setattr(Simulator, "run", short_chunks)
    over = tmp_path / "over"
    with pytest.raises(RuntimeError, match="without completion"):
        run_tasks_resilient(_tasks2(max_cycles=10, cache_dir=over), jobs=1)
    assert len(ResultCache(over)) == 0


# ---------------------------------------------------------------------
# strict SweepResult grid
# ---------------------------------------------------------------------

def test_sweepresult_rejects_duplicate_cell():
    r = SweepResult()
    r.add("wl", "baseline", Stats(4))
    with pytest.raises(ValueError, match="duplicate"):
        r.add("wl", "baseline", Stats(4))


def test_sweepresult_rejects_ragged_grid():
    r = SweepResult()
    a, b = Stats(4), Stats(4)
    a.execution_cycles = b.execution_cycles = 100
    r.add("wl1", "baseline", a)
    r.add("wl1", "puno", b)
    r.add("wl2", "baseline", a)  # wl2 is missing "puno"
    with pytest.raises(ValueError, match="missing"):
        r.table("exec")
    with pytest.raises(ValueError, match="missing"):
        r.normalized("exec")


def test_sweepresult_complete_grid_builds_table():
    r = SweepResult()
    for wl in ("wl1", "wl2"):
        for scheme in ("baseline", "puno"):
            s = Stats(4)
            s.execution_cycles = 100
            r.add(wl, scheme, s)
    t = r.table("exec")
    assert t.get("wl2", "puno") == 100
