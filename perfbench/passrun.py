"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/passrun.py '<request json>'``.  The request
names the workload, the seed, the mode (``full`` or ``setup``: stop at
the first simulated event), whether to trace, the launcher's spawn
time and the output directory.  The pass prints one JSON object on its
last stdout line: set-up, wall and run seconds measured from the spawn
(in reference seconds, see ``refclock.py``, and in host seconds), the
per-cell digests and deterministic counts, its own peak RSS, and, when
traced, the per-layer span folds.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import cells as wl_defs
import layers
from procmem import vmhwm_kb
from refclock import REFERENCE_S, Meter, calibrate

def stats_counts(stats, events: int = 0, instances: int = 0,
                 trace_records: int = 0) -> Dict[str, int]:
    """Deterministic per-cell counts: for a given seed and source tree
    each repeats exactly, and run.py pins them across passes and runs."""
    return {
        "events": events,
        "instances": instances,
        "commits": stats.tx_committed,
        "attempts": stats.tx_attempts,
        "messages": sum(stats.messages_by_type.values()),
        "flit_traversals": stats.flit_router_traversals,
        "dir_services": sum(stats.dir_requests.values()),
        "blocked_cycles": stats.dir_blocked_cycles_total,
        "queue_wait_cycles": stats.dir_queue_wait_cycles,
        "l2_misses": stats.l2_misses,
        "good_cycles": stats.good_cycles,
        "discarded_cycles": stats.discarded_cycles,
        "false_victims": stats.false_victims,
        "ticks": stats.puno_timeouts,
        "unicasts": stats.puno_unicasts,
        "declines": sum(stats.puno_declines.values()),
        "mispredictions": stats.puno_mispredictions,
        "correct_predictions": stats.puno_correct_predictions,
        "notified_backoff_cycles": stats.puno_notified_backoff_cycles,
        "sanitizer_checks": stats.sanitizer_checks,
        "trace_records": trace_records,
    }


def puno_ratios(pairs: Dict[str, Dict[str, object]]
                ) -> Tuple[Dict[str, float], List[str]]:
    """PUNO / baseline for aborts, traffic and execution time, averaged
    over the high-contention STAMP inputs when the pass has any, else
    over every input that ran under both designs; returns the ratios
    and the inputs they average over."""
    from repro.analysis.metrics import METRICS
    paired = [k for k, row in pairs.items()
              if "baseline" in row and "puno" in row]
    keys = [k for k in paired if k in wl_defs.HIGH_CONTENTION] or paired
    out: Dict[str, float] = {}
    for metric in wl_defs.PAPER_RATIOS:
        fn = METRICS[metric]
        vals = [fn(pairs[k]["puno"]) / fn(pairs[k]["baseline"])
                for k in keys]
        # 0 marks a workload with no cell under both designs
        out[metric] = sum(vals) / len(vals) if vals else 0.0
    return out, keys


def _plain_span(trace_id, name, layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _make_system(cell, workload):
    from repro.analysis.timeseries import TimeSeriesSampler
    from repro.sim.trace import Tracer
    from repro.system import System
    if cell.audited:
        return System(cell.config, workload, cell.scheme, sanitize=True,
                      watchdog=True, trace=Tracer(),
                      sampler=TimeSeriesSampler())
    return System(cell.config, workload, cell.scheme, sanitize=False)


def _audit(system) -> None:
    system.audit_coherence()
    system.audit_values()


def run_cells(workload: str, seed: int, meter: Meter,
              clock: Optional[layers.LayerClock],
              setup_only: bool = False) -> Dict[str, object]:
    """Generate every input, then run each cell to completion.

    Set-up ends at the first simulated event; every later segment of
    the meter is one cell (wiring, run, audits, digest).
    """
    span: Callable = clock.cell_span if clock is not None else _plain_span
    inputs = {input_id: span(input_id, "generate", "workloads", gen)
              for input_id, gen in wl_defs.build_inputs(workload, seed)}
    instances = {k: w.total_instances() for k, w in inputs.items()}
    records: List[Dict[str, object]] = []
    pairs: Dict[str, Dict[str, object]] = {}
    out: Dict[str, object] = {"cells": records, "run_s": 0.0,
                              "run_raw_s": 0.0, "commits": 0,
                              "instances": sum(instances.values())}
    for cell in wl_defs.build_cells(workload):
        rec: Dict[str, object] = {"id": cell.cell_id}
        records.append(rec)
        run_raw = 0.0
        try:
            system = span(cell.cell_id, "wire", "system", _make_system,
                          cell, inputs[cell.input_id])
            if clock is not None:
                layers.wrap_endpoints(clock, system.network)
            if "setup_s" not in out:
                close_setup(out, meter)
                if setup_only:
                    records.clear()
                    return out
            t0 = time.perf_counter()
            span(cell.cell_id, "run", "sim", system.run,
                 max_cycles=wl_defs.MAX_CYCLES, audit=False)
            run_raw = time.perf_counter() - t0
            span(cell.cell_id, "audit", "audit", _audit, system)
            stats = system.stats
            rec["digest"] = span(cell.cell_id, "digest", "stats",
                                 stats.snapshot_digest)
            tracer = stats.tracer
            rec["counts"] = stats_counts(
                stats, events=system.sim.events_processed,
                instances=instances[cell.input_id],
                trace_records=len(tracer.events) if tracer else 0)
            if stats.tx_committed != instances[cell.input_id]:
                raise AssertionError(
                    f"{stats.tx_committed} commits for "
                    f"{instances[cell.input_id]} transaction instances")
            out["commits"] += stats.tx_committed
            stats.tracer = None
            pairs.setdefault(cell.input_id, {})[cell.scheme] = stats
            del system
        except Exception as exc:  # a failed cell is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"[:400]
            traceback.print_exc(file=sys.stderr)
        if "setup_s" not in out:
            close_setup(out, meter)
        else:
            _, factor = meter.close()
            out["run_s"] += run_raw * factor
            out["run_raw_s"] += run_raw
    out["ratios"], out["ratio_basis"] = puno_ratios(pairs)
    return out


def close_setup(out: Dict[str, object], meter: Meter) -> None:
    raw, factor = meter.close()
    out["setup_raw_s"] = raw
    out["setup_s"] = raw * factor


class SweepProbe:
    """Reads each TaskResult on the parent side of the sweep executor."""

    def __init__(self, clock: layers.LayerClock):
        self.clock = clock
        self.phase = ""
        self.results: List[Dict[str, object]] = []
        self.sweep_s = 0.0
        self.retries = 0
        self._first_round = False

    def install(self) -> Callable[[], None]:
        import repro.analysis.parallel as parallel
        import repro.analysis.sweep as sweep
        resilient, run_round = sweep.run_tasks_resilient, parallel._run_round

        def traced_resilient(tasks, *args, **kwargs):
            self._first_round = True
            t0 = time.perf_counter()
            results = self.clock.cell_span(self.phase, "sweep", "analysis",
                                           resilient, tasks, *args, **kwargs)
            self.sweep_s += time.perf_counter() - t0
            for tr in results:
                self.results.append({"phase": self.phase,
                                     "hit": tr.cache_hit,
                                     "wall_s": tr.wall_seconds})
            return results

        def traced_round(task_list, pending, *args, **kwargs):
            # every round after a call's first resubmits failed cells
            if not self._first_round:
                self.retries += len(pending)
            self._first_round = False
            return run_round(task_list, pending, *args, **kwargs)

        setattr(traced_resilient, layers.MARK, resilient)
        setattr(traced_round, layers.MARK, run_round)
        sweep.run_tasks_resilient = traced_resilient
        parallel._run_round = traced_round

        def uninstall() -> None:
            sweep.run_tasks_resilient = resilient
            parallel._run_round = run_round

        return uninstall

    def summary(self, cold_phase: str) -> Dict[str, float]:
        warm = [r for r in self.results if r["phase"] != cold_phase]
        hits = [r for r in self.results if r["hit"]]
        misses = [r for r in self.results if not r["hit"]]
        busy = sum(r["wall_s"] for r in self.results)
        capacity = wl_defs.SWEEP_JOBS * self.sweep_s

        def mean(rows):
            return sum(r["wall_s"] for r in rows) / len(rows) if rows else 0.0

        return {
            "cells": len(self.results),
            "worker_busy_s": busy,
            "pool_idle_share": 1 - busy / capacity if capacity else 0.0,
            "retries": self.retries,
            "hit_ratio": (sum(1 for r in warm if r["hit"]) / len(warm)
                          if warm else 0.0),
            "hit_cell_s": mean(hits),
            "miss_cell_s": mean(misses),
        }


WARM_ENTRY_POINTS = ("fig11", "fig12", "fig13", "fig14", "table1", "fig2",
                     "fig3")


def run_sweep(seed: int, meter: Meter,
              clock: Optional[layers.LayerClock],
              setup_only: bool = False) -> Dict[str, object]:
    """Cold fig10 into a fresh cache, then the seven warm entry points;
    every warm output is checked against the cold cells.  Set-up ends
    when fig10 starts; the cold sweep, each warm entry point and the
    output checks are the meter's later segments."""
    from repro.analysis import experiments

    out: Dict[str, object] = {"cells": []}
    close_setup(out, meter)
    if setup_only:
        return out
    probe = uninstall = None
    if clock is not None:
        probe = SweepProbe(clock)
        uninstall = probe.install()
    try:
        _sweep(experiments, seed, meter, probe, out)
    finally:
        if uninstall is not None:
            uninstall()
    return out


def _sweep(ex, seed: int, meter: Meter, probe: Optional[SweepProbe],
           out: Dict[str, object]) -> None:
    from repro.analysis.falseabort import victim_distribution

    kw = dict(scale=wl_defs.PAPER_SCALE, seed=seed, jobs=wl_defs.SWEEP_JOBS)
    if probe is not None:
        probe.phase = "fig10"
    fig10 = ex.fig10(**kw)
    cold_raw, factor = meter.close()
    out["cold_s"], out["cold_raw_s"] = cold_raw * factor, cold_raw
    warm = {}
    out["warm_s"] = out["warm_raw_s"] = 0.0
    for name in WARM_ENTRY_POINTS:
        if probe is not None:
            probe.phase = name
        warm[name] = getattr(ex, name)(**kw)
        raw, factor = meter.close()
        out["warm_s"] += raw * factor
        out["warm_raw_s"] += raw

    cold = fig10.data["sweep"].stats
    records: List[Dict[str, object]] = []
    digests = {}
    for wl, row in cold.items():
        for scheme, st in row.items():
            cid = f"{wl}/{scheme}"
            digests[cid] = st.snapshot_digest()
            records.append({"id": cid, "digest": digests[cid],
                            "counts": stats_counts(st)})

    def check(cid: str, ok: bool, what: str) -> None:
        rec: Dict[str, object] = {"id": cid, "warm": True}
        if not ok:
            rec["error"] = f"warm {what} differs from the cold cells"
        records.append(rec)

    for name in ("fig11", "fig12", "fig13", "fig14"):
        for wl, row in warm[name].data["sweep"].stats.items():
            for scheme, st in row.items():
                cid = f"{wl}/{scheme}"
                check(f"{name}:{cid}", st.snapshot_digest() == digests[cid],
                      "digest")
    base = {wl: row["baseline"] for wl, row in cold.items()}
    for row in warm["table1"].data["rows"]:
        wl = row["benchmark"]
        check(f"table1:{wl}", row["measured abort %"]
              == round(100 * base[wl].abort_rate(), 1), "abort rate")
    for wl, value in warm["fig2"].data["series"].items():
        if wl != "average":
            check(f"fig2:{wl}",
                  value == 100 * base[wl].false_aborting_fraction(),
                  "false-aborting share")
    for wl, dist in warm["fig3"].data["distributions"].items():
        check(f"fig3:{wl}", dist == victim_distribution(base[wl]),
              "victim distribution")

    out["cells"] = records
    out["commits"] = sum(st.tx_committed for row in cold.values()
                         for st in row.values())
    # every instance commits exactly once, so the baseline column
    # counts the generated instances
    out["instances"] = sum(row["baseline"].tx_committed
                           for row in cold.values())
    out["run_s"], out["run_raw_s"] = out["cold_s"], cold_raw
    hc = {m: f.data["hc_average"]["puno"] for m, f in
          (("aborts", fig10), ("traffic", warm["fig11"]),
           ("exec", warm["fig13"]))}
    out["ratios"] = hc
    out["ratio_basis"] = list(wl_defs.HIGH_CONTENTION)
    if probe is not None:
        out["sweep"] = probe.summary("fig10")
    meter.close()


def main(argv: List[str]) -> int:
    req = json.loads(argv[1])
    workload, seed = req["workload"], req["seed"]
    scaled = wl_defs.WORKLOADS[workload].scaled
    meter = Meter(elapsed=time.time() - req["t_spawn"],
                  calibrate=calibrate if scaled else lambda: REFERENCE_S)
    setup_only = req["mode"] == "setup"
    clock = uninstall = None
    if req["traced"]:
        clock = layers.LayerClock()
        if workload != "eval-sweep":
            # sweep workers fork from this process: they must run the
            # shipped code, so the eval-sweep trace stays parent-side
            uninstall = layers.install(clock)
    if workload == "eval-sweep":
        out = run_sweep(seed, meter, clock, setup_only)
    else:
        out = run_cells(workload, seed, meter, clock, setup_only)
    out["wall_s"], out["wall_raw_s"] = meter.ref_s, meter.raw_s
    out["peak_rss_kb"] = vmhwm_kb()
    from repro.sim.resultcache import source_digest
    out["source_digest"] = source_digest()
    if clock is not None:
        out["layers"] = clock.summary()
        out["event_buckets"] = dict(clock.events)
        spans_dir = Path(req["out_dir"])
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"spans-{workload}-s{seed}.json").write_text(
            json.dumps(clock.cell_spans))
        if uninstall is not None:
            uninstall()
    out["wrappers_left"] = layers.installed()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
