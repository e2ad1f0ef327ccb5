"""Multi-run comparison harness.

``SchemeSweep`` runs one workload family under several schemes
(contention manager + config pairs) and materializes
:class:`~repro.analysis.metrics.MetricTable` objects for any metric —
this is the engine behind Figs. 10-14 and the ablation benches.

Grid cells are independent simulations, so the sweep can fan out over
a process pool (``jobs=N``) when the workloads are given as picklable
:class:`~repro.analysis.parallel.WorkloadSpec` descriptors, and every
cell goes through the on-disk result cache
(:mod:`repro.sim.resultcache`) unless ``cache=False`` — a warm cache
replays a whole spec grid without running a single simulation, and,
once this process has seen each spec, without a pool or a workload
build: one cache-file read per cell.  Each finished cell is stored as
it completes, so rerunning an interrupted sweep resumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.analysis.metrics import METRICS, MetricTable
from repro.analysis.parallel import WorkloadSpec, grid_tasks, \
    run_tasks_resilient
from repro.sim.config import SystemConfig
from repro.sim.resultcache import CacheLike, cached_run_workload, \
    resolve_cache
from repro.sim.stats import Stats
from repro.workloads.base import Workload

# A scheme is (contention manager name, config) — PUNO needs both.
Scheme = Tuple[str, SystemConfig]

# A sweep row source: either a zero-arg factory or a picklable spec.
WorkloadSource = Union[Callable[[], Workload], WorkloadSpec]


def paper_schemes(config: Optional[SystemConfig] = None
                  ) -> Dict[str, Scheme]:
    """The four designs of the paper's evaluation (Section IV-A)."""
    base = config or SystemConfig()
    return {
        "baseline": ("baseline", base),
        "backoff": ("backoff", base),
        "rmw": ("rmw", base),
        "puno": ("puno", base.with_puno()),
    }


@dataclass
class SweepResult:
    """All Stats from one sweep, indexed [workload][scheme].

    The grid must stay rectangular: :meth:`add` rejects duplicate
    cells and :meth:`table` rejects ragged grids, so a crashed or
    skipped worker can never yield a silently partial (and therefore
    wrongly normalized) table.
    """

    stats: Dict[str, Dict[str, Stats]] = field(default_factory=dict)

    def add(self, workload: str, scheme: str, stats: Stats) -> None:
        row = self.stats.setdefault(workload, {})
        if scheme in row:
            raise ValueError(
                f"duplicate sweep cell {workload!r}/{scheme!r}: "
                f"each (workload, scheme) pair may be added only once")
        row[scheme] = stats

    def schemes(self) -> Tuple[str, ...]:
        """Union of scheme names across rows, first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.stats.values():
            for scheme in row:
                seen.setdefault(scheme, None)
        return tuple(seen)

    def _check_complete(self) -> None:
        expected = self.schemes()
        for wl, row in self.stats.items():
            missing = [s for s in expected if s not in row]
            if missing:
                raise ValueError(
                    f"incomplete sweep grid: workload {wl!r} is missing "
                    f"scheme(s) {missing} (did a sweep worker crash or "
                    f"a run get skipped?); refusing to build a partial "
                    f"table")

    def table(self, metric: str) -> MetricTable:
        self._check_complete()
        fn = METRICS[metric]
        t = MetricTable(metric)
        for wl, row in self.stats.items():
            for scheme, st in row.items():
                t.set(wl, scheme, fn(st))
        return t

    def normalized(self, metric: str,
                   baseline: str = "baseline") -> MetricTable:
        return self.table(metric).normalized_to(baseline)


class SchemeSweep:
    """Run {workload name -> Workload source} x {scheme} grids.

    A grid of :class:`WorkloadSpec` values always runs through the
    resilient executor (:func:`run_tasks_resilient`), in-process for
    ``jobs=1`` and over a process pool for ``jobs`` > 1, so a warm
    cell is read from the cache in this process without rebuilding its
    workload.  ``jobs`` != 1 requires every workload to be a spec
    (live factories don't pickle); a grid holding live factories runs
    serially here.  ``cache`` accepts the usual forms (True = process
    default, False/None = off, path or ResultCache = explicit); both
    paths share the same cache keys.  A spec grid opens the cache by
    its directory, so an explicit ResultCache's hit/miss counters are
    not bumped by it, and ``REPRO_NO_CACHE`` turns it off.

    Execution is resilient: crashed workers are replaced and retried
    up to ``retries`` times, and a pool making no progress for
    ``task_timeout`` seconds is recycled.  An interrupted sweep resumes
    by rerunning it: every cell that finished is in the cache.
    """

    def __init__(self, schemes: Optional[Dict[str, Scheme]] = None,
                 max_cycles: Optional[int] = 200_000_000,
                 audit: bool = True, jobs: int = 1,
                 cache: CacheLike = True, retries: int = 2,
                 task_timeout: Optional[float] = None):
        self.schemes = schemes if schemes is not None else paper_schemes()
        self.max_cycles = max_cycles
        self.audit = audit
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------
    def run(self, workloads: Dict[str, WorkloadSource],
            verbose: bool = False) -> SweepResult:
        if all(isinstance(w, WorkloadSpec) for w in workloads.values()):
            return self._run_tasks(workloads, verbose)
        if self.jobs != 1:
            raise TypeError(
                "SchemeSweep(jobs!=1) needs picklable WorkloadSpec "
                "values, not live workload factories; pass "
                "repro.analysis.parallel.WorkloadSpec entries or "
                "use jobs=1")
        return self._run_serial(workloads, verbose)

    # ------------------------------------------------------------------
    def _cache_args(self) -> Tuple[bool, Optional[str]]:
        """(use_cache, cache_dir) for task descriptors."""
        resolved = resolve_cache(self.cache)
        if resolved is None:
            return False, None
        return True, str(resolved.root)

    def _run_tasks(self, workloads: Dict[str, WorkloadSpec],
                   verbose: bool) -> SweepResult:
        use_cache, cache_dir = self._cache_args()
        tasks = grid_tasks(self.schemes, workloads,
                           max_cycles=self.max_cycles, audit=self.audit,
                           use_cache=use_cache, cache_dir=cache_dir)
        result = SweepResult()
        for tr in run_tasks_resilient(
                tasks, self.jobs, retries=self.retries,
                task_timeout=self.task_timeout):
            result.add(tr.workload, tr.scheme, tr.stats)
            if verbose:
                hit = " [cached]" if tr.cache_hit else ""
                print(f"  {tr.workload}/{tr.scheme}: "
                      f"{tr.stats.execution_cycles} cycles, "
                      f"{tr.stats.tx_aborted} aborts "
                      f"({tr.wall_seconds:.2f}s wall){hit}")
        return result

    def _run_serial(self, workloads: Dict[str, WorkloadSource],
                    verbose: bool) -> SweepResult:
        """A grid holding live factories (spec rows are built too)."""
        result = SweepResult()
        for wl_name, source in workloads.items():
            for scheme_name, (cm, config) in self.schemes.items():
                wl = (source.build() if isinstance(source, WorkloadSpec)
                      else source())
                r = cached_run_workload(config, wl, cm=cm,
                                        max_cycles=self.max_cycles,
                                        audit=self.audit,
                                        cache=self.cache)
                result.add(wl_name, scheme_name, r.stats)
                if verbose:
                    hit = " [cached]" if r.extras.get("cache_hit") else ""
                    print(f"  {wl_name}/{scheme_name}: "
                          f"{r.stats.execution_cycles} cycles, "
                          f"{r.stats.tx_aborted} aborts "
                          f"({r.wall_seconds:.2f}s wall){hit}")
        return result
