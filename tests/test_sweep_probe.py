"""The caller-side cache probe of the resilient sweep executor.

A spec grid's warm cells are read from the result cache in the calling
process, keyed on the workload fingerprint learned from the first
result that hashed each spec: no pool, no workload build.  The probe
stands in for :func:`run_task`'s own cache lookup only, so it is off
wherever that lookup would be (faults, sanitizer, cache disabled) and
for custom runners, which must see every cell.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.analysis.parallel as parallel
import repro.analysis.sweep as sweep_mod
from repro.analysis.parallel import (
    WorkloadSpec,
    grid_tasks,
    run_task,
    run_tasks_resilient,
)
from repro.analysis.sweep import SchemeSweep
from repro.sim.config import small_config
from repro.sim.resultcache import cell_key
from repro.workloads.families import FAMILIES, FamilyMeta, \
    make_hotspot_workload

MAX_CYCLES = 20_000_000


def _schemes():
    base = small_config(4)
    return {"baseline": ("baseline", base),
            "puno": ("puno", base.with_puno())}


def _specs(names=("intruder", "kmeans")):
    return {n: WorkloadSpec(n, num_nodes=4, scale=0.1, seed=0)
            for n in names}


# each test starts with no learned fingerprints
pytestmark = pytest.mark.usefixtures("fresh_memo")


@pytest.fixture
def sweep_results(monkeypatch):
    """Every TaskResult SchemeSweep gets back from the executor,
    collected through the sweep module's attribute."""
    seen = []
    real = sweep_mod.run_tasks_resilient

    def spy(tasks, *args, **kwargs):
        results = real(tasks, *args, **kwargs)
        seen.extend(results)
        return results

    monkeypatch.setattr(sweep_mod, "run_tasks_resilient", spy)
    return seen


def _tasks(cache_dir, **kwargs):
    return grid_tasks(_schemes(), _specs(), max_cycles=MAX_CYCLES,
                      cache_dir=str(cache_dir), **kwargs)


def _snapshots(results):
    return [r.stats.snapshot() for r in results]


# ---------------------------------------------------------------------
# warm grids skip the pool and the workload builds
# ---------------------------------------------------------------------

def test_warm_parallel_grid_forks_no_pool(tmp_path, monkeypatch,
                                          sweep_results):
    cold = SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=2,
                       cache=tmp_path).run(_specs())
    assert not any(tr.cache_hit for tr in sweep_results)
    sweep_results.clear()

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully warm grid must not start a pool")

    monkeypatch.setattr(parallel, "_run_round", no_pool)
    warm = SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=2,
                       cache=tmp_path).run(_specs())
    assert len(sweep_results) == 4
    assert all(tr.cache_hit for tr in sweep_results)
    for tr in sweep_results:
        assert (tr.stats.snapshot()
                == cold.stats[tr.workload][tr.scheme].snapshot())
        assert (warm.stats[tr.workload][tr.scheme].snapshot_digest()
                == cold.stats[tr.workload][tr.scheme].snapshot_digest())


def test_warm_serial_spec_sweeps_build_each_spec_at_most_once(
        tmp_path, builds, sweep_results):
    SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=1,
                cache=tmp_path).run(_specs())
    assert len(builds) == 4  # cold: one build per cell
    # a fresh process against the warm cache: the first cell of each
    # row builds and hashes, the rest of the row is probed
    parallel._FINGERPRINTS.clear()
    builds.clear()
    sweep_results.clear()
    first = SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=1,
                        cache=tmp_path).run(_specs())
    assert sorted(builds) == ["intruder", "kmeans"]
    assert all(tr.cache_hit for tr in sweep_results)
    # the second warm sweep in this process builds nothing
    builds.clear()
    second = SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=1,
                         cache=tmp_path).run(_specs())
    assert builds == []
    for wl, row in first.stats.items():
        for scheme, st in row.items():
            assert (second.stats[wl][scheme].snapshot_digest()
                    == st.snapshot_digest())


def test_cold_sweep_hashes_each_spec_once(tmp_path, monkeypatch):
    hashed = []
    real = parallel.workload_fingerprint

    def counting(workload):
        hashed.append(workload.name)
        return real(workload)

    monkeypatch.setattr(parallel, "workload_fingerprint", counting)
    results = run_tasks_resilient(_tasks(tmp_path), jobs=1)
    assert sorted(hashed) == ["intruder", "kmeans"]
    assert not any(r.cache_hit for r in results)
    assert all(r.fingerprint for r in results)


# ---------------------------------------------------------------------
# where the probe must stay out of the way
# ---------------------------------------------------------------------

def test_sanitized_warm_grid_simulates_every_cell(tmp_path, monkeypatch,
                                                  sweep_results):
    SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=1,
                cache=tmp_path).run(_specs())
    assert parallel._FINGERPRINTS  # the memo is primed
    sweep_results.clear()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    SchemeSweep(_schemes(), max_cycles=MAX_CYCLES, jobs=1,
                cache=tmp_path).run(_specs())
    assert len(sweep_results) == 4
    assert not any(tr.cache_hit for tr in sweep_results)
    assert all(tr.stats.sanitizer_checks > 0 for tr in sweep_results)


def test_custom_runner_sees_every_cell_with_a_primed_memo(tmp_path):
    tasks = _tasks(tmp_path)
    run_tasks_resilient(tasks, jobs=1)
    assert parallel._FINGERPRINTS
    calls = []

    def counting_runner(task):  # jobs=1 stays in-process: closures OK
        calls.append((task.workload, task.scheme))
        return run_task(task)

    results = run_tasks_resilient(tasks, jobs=1,
                                  runner=counting_runner)
    assert calls == [(t.workload, t.scheme) for t in tasks]
    assert all(r.cache_hit for r in results)  # run_task's own lookup


def test_fault_cells_simulate_with_a_primed_memo(tmp_path, builds):
    tasks = _tasks(tmp_path)
    run_tasks_resilient(tasks, jobs=1)
    assert parallel._FINGERPRINTS
    builds.clear()
    faulty = [dataclasses.replace(t, faults="delay=0.05,seed=3")
              for t in tasks]
    results = run_tasks_resilient(faulty, jobs=1)
    assert len(builds) == len(faulty)
    assert not any(r.cache_hit for r in results)


def test_disabled_cache_is_not_probed(tmp_path, monkeypatch, builds):
    tasks = _tasks(tmp_path)
    run_tasks_resilient(tasks, jobs=1)
    builds.clear()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    results = run_tasks_resilient(tasks, jobs=1)
    monkeypatch.delenv("REPRO_NO_CACHE")
    uncached = [dataclasses.replace(t, use_cache=False) for t in tasks]
    results += run_tasks_resilient(uncached, jobs=1)
    assert len(builds) == 2 * len(tasks)
    assert not any(r.cache_hit for r in results)


def test_corrupt_entry_found_by_probe_is_quarantined_and_resimulated(
        tmp_path):
    tasks = _tasks(tmp_path)
    cold = run_tasks_resilient(tasks, jobs=1)
    victim = tasks[1]
    key = cell_key(victim.config, victim.cm,
                   parallel._FINGERPRINTS[repr(victim.spec)])
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.write_bytes(b"bit rot")

    warm = run_tasks_resilient(tasks, jobs=2)
    assert [r.cache_hit for r in warm] == [True, False, True, True]
    assert path.with_name(path.name + ".corrupt").is_file()
    assert _snapshots(warm) == _snapshots(cold)
    # the re-simulated cell was stored again
    again = run_tasks_resilient(tasks, jobs=2)
    assert all(r.cache_hit for r in again)


def _hotlist(num_nodes=16, scale=1.0, seed=0, hot=(0,), name="hotlist"):
    return make_hotspot_workload(num_nodes=num_nodes, scale=scale,
                                 seed=seed, hot_lines=len(hot), name=name)


def test_spec_with_list_params_is_probed(tmp_path, monkeypatch, builds):
    monkeypatch.setitem(FAMILIES, "hotlist",
                        FamilyMeta("hotlist", _hotlist, "test family"))
    spec = WorkloadSpec("hl", kind="hotlist", num_nodes=4, scale=0.25,
                        params=(("hot", [1, 2, 3]),))
    with pytest.raises(TypeError):
        hash(spec)
    tasks = grid_tasks(_schemes(), {"hl": spec}, max_cycles=MAX_CYCLES,
                       cache_dir=str(tmp_path))
    cold = run_tasks_resilient(tasks, jobs=1)
    builds.clear()
    warm = run_tasks_resilient(tasks, jobs=2)
    assert builds == []
    assert all(r.cache_hit for r in warm)
    assert _snapshots(warm) == _snapshots(cold)
