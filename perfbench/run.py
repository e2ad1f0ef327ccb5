"""The repository's benchmark: four closed-loop workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass of a workload runs in a fresh interpreter (``passrun.py``)
with the simulator's environment switches pinned, so ambient
``REPRO_*`` variables cannot change what is measured.  With
``--trace 0`` the launcher repeats whole passes while the next one
still fits in ``--seconds`` (at least one) and reports the medians of
the end-to-end metrics.  Times are in reference seconds: each segment
of a pass is scaled by a calibration loop run around it, because this
class of host changes speed by up to 1.6x for minutes at a time
(``refclock.py``); raw host seconds are printed beside them.  The
eval-sweep workload, which simulates in pool workers, reports host
seconds (``cells.WorkloadDef.scaled``).  With ``--trace 1`` it runs one untraced and
one traced pass and reports the per-layer metrics, the tracing
overhead and whether the traced digests equal the untraced ones.

Every cell's output is checked: audits and, on audited16, the
sanitizer and watchdog run inside the pass; every committed count must
equal the workload's transaction instances; digests and the
deterministic counts must repeat across passes, across runs of the
same source tree (pinned under ``.perfbench/pins``), between traced
and untraced passes, and, on eval-sweep, between the warm entry points
and the cold cells.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
from statistics import median
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import cells as wl_defs
from procmem import PeakWatcher, descendants, stop_all

BENCH_DIR = Path(__file__).resolve().parent

#: name -> (unit, better); the end-to-end metrics of every workload,
#: measured with tracing off.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "commits_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); reported by the traced run of every workload.
#: Layers a workload does not exercise report 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "workloads.gen_s": ("s", "lower"),
    "workloads.instances": ("count", "higher"),
    "system.wire_s": ("s", "lower"),
    "system.audit_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_commit": ("events/commit", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events.network": ("count", "lower"),
    "sim.events.htm": ("count", "lower"),
    "sim.events.coherence": ("count", "lower"),
    "sim.events.core": ("count", "lower"),
    "sim.events.instrument": ("count", "lower"),
    "network.messages": ("count", "lower"),
    "network.messages_per_commit": ("msgs/commit", "lower"),
    "network.flit_traversals": ("count", "lower"),
    "network.self_s": ("s", "lower"),
    "coherence.dir_services": ("count", "lower"),
    "coherence.blocked_cycles": ("cycles", "lower"),
    "coherence.queue_wait_cycles": ("cycles", "lower"),
    "coherence.l2_misses": ("count", "lower"),
    "coherence.self_s": ("s", "lower"),
    "htm.tx_attempts": ("count", "lower"),
    "htm.commit_ratio": ("ratio", "higher"),
    "htm.discarded_share": ("share", "lower"),
    "htm.false_victims": ("count", "lower"),
    "htm.self_s": ("s", "lower"),
    "core.ticks": ("count", "lower"),
    "core.unicasts": ("count", "higher"),
    "core.declines": ("count", "lower"),
    "core.mispredictions": ("count", "lower"),
    "core.prediction_accuracy": ("share", "higher"),
    "core.notified_backoff_cycles": ("cycles", "lower"),
    "core.self_s": ("s", "lower"),
    "stats.snapshot_s": ("s", "lower"),
    "sanitize.checks": ("count", "higher"),
    "sanitize.self_s": ("s", "lower"),
    "watchdog.self_s": ("s", "lower"),
    "trace.records": ("count", "higher"),
    "trace.self_s": ("s", "lower"),
    "analysis.cells": ("count", "higher"),
    "analysis.worker_busy_s": ("s", "lower"),
    "analysis.pool_idle_share": ("share", "lower"),
    "analysis.retries": ("count", "lower"),
    "analysis.cold_s": ("s", "lower"),
    "resultcache.hit_ratio": ("ratio", "higher"),
    "resultcache.hit_cell_s": ("s", "lower"),
    "resultcache.miss_cell_s": ("s", "lower"),
    "resultcache.warm_s": ("s", "lower"),
    "puno_abort_ratio_hc": ("ratio", "lower"),
    "puno_traffic_ratio_hc": ("ratio", "lower"),
    "puno_exec_ratio_hc": ("ratio", "lower"),
    "perfbench.trace_overhead": ("ratio", "lower"),
}

RATIO_METRICS = {"aborts": "puno_abort_ratio_hc",
                 "traffic": "puno_traffic_ratio_hc",
                 "exec": "puno_exec_ratio_hc"}

#: set-up samples per untraced run; passes that do not fit in the time
#: budget are made up with set-up-only probes
SETUP_SAMPLES = 5
#: every run ends within this many seconds of starting
RUN_DEADLINE_S = 170.0


def pinned_env(root: Path, wd: wl_defs.WorkloadDef,
               cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_SANITIZE"] = "1" if wd.sanitize else "0"
    env["REPRO_NO_CACHE"] = "0" if wd.cache else "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_ENGINE_FAST"] = "0"
    return env


class Launcher:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.state = root / ".perfbench"
        self.started = time.perf_counter()
        self.npass = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, wd: wl_defs.WorkloadDef, mode: str,
              traced: bool) -> Optional[Dict[str, object]]:
        """Run one pass in a fresh interpreter; None when it failed."""
        self.npass += 1
        scratch = self.state / "tmp" / f"{os.getpid()}-{self.npass}"
        scratch.mkdir(parents=True, exist_ok=True)
        request = {"workload": wd.name, "seed": self.seed, "mode": mode,
                   "traced": traced, "out_dir": str(self.state / "out")}
        env = pinned_env(self.root, wd, scratch / "cache")
        try:
            request["t_spawn"] = time.time()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "passrun.py"),
                 json.dumps(request)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, text=True)
            with PeakWatcher(proc.pid) as watcher:
                try:
                    stdout, _ = proc.communicate(
                        timeout=max(1.0, self.remaining()))
                except subprocess.TimeoutExpired:
                    watcher.pids_seen.update(descendants(proc.pid))
                    proc.kill()
                    proc.communicate()
                    print(f"[{wd.name}] pass timed out", file=sys.stderr)
                    return None
                finally:
                    stop_all(list(watcher.pids_seen))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"[{wd.name}] pass exited {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        result["host_s"] = time.time() - request["t_spawn"]
        result["peak_rss_kb"] = max(result["peak_rss_kb"] or 0,
                                    watcher.peak_kb)
        result["workers_seen"] = len(watcher.pids_seen)
        return result


class Checker:
    """Counts attempted and failed cell checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def cells(self, result: Optional[Dict[str, object]],
              reference: Dict[str, Dict[str, object]],
              label: str) -> None:
        """Check one pass against the reference digests and counts;
        cells seen first here become the reference."""
        if result is None:
            self.attempted += 1
            self.fail(f"{label}: pass failed")
            return
        if result.get("wrappers_left"):
            self.attempted += 1
            self.fail(f"{label}: wrappers left installed: "
                      f"{result['wrappers_left']}")
        for rec in result["cells"]:
            self.attempted += 1
            cid = rec["id"]
            if "error" in rec:
                self.fail(f"{label}: {cid}: {rec['error']}")
                continue
            if "digest" not in rec:
                continue
            ref = reference.setdefault(
                cid, {"digest": rec["digest"], "counts": rec["counts"]})
            if ref["digest"] != rec["digest"]:
                self.fail(f"{label}: {cid}: digest drift")
            elif ref["counts"] != rec["counts"]:
                drift = sorted(k for k in rec["counts"]
                               if rec["counts"][k] != ref["counts"].get(k))
                self.fail(f"{label}: {cid}: deterministic counts drift "
                          f"({', '.join(drift)})")


def check_pins(launcher: Launcher, workload: str, source: str,
               reference: Dict[str, Dict[str, object]],
               checker: Checker) -> None:
    """Compare with an earlier run of the same seed, simulator sources
    and benchmark sources, or pin this run's digests and counts for
    later runs."""
    bench = hashlib.sha256(b"".join(
        f.read_bytes() for f in sorted(BENCH_DIR.glob("*.py")))).hexdigest()
    path = (launcher.state / "pins" / f"{source[:16]}-{bench[:12]}"
            / f"{workload}-s{launcher.seed}.json")
    if path.is_file():
        pinned = json.loads(path.read_text())
        for cid, ref in reference.items():
            if cid in pinned:
                checker.attempted += 1
                if pinned[cid] != ref:
                    checker.fail(f"{cid}: differs from an earlier run of "
                                 f"the same code")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(reference, sort_keys=True))
    os.replace(tmp, path)


def run_untraced(launcher: Launcher, wd: wl_defs.WorkloadDef,
                 seconds: float, checker: Checker
                 ) -> Tuple[Dict[str, float], Dict[str, object]]:
    passes: List[Dict[str, object]] = []
    reference: Dict[str, Dict[str, object]] = {}
    t0 = time.perf_counter()
    while True:
        result = launcher.spawn(wd, "full", traced=False)
        checker.cells(result, reference, f"pass {len(passes) + 1}")
        if result is None:
            break
        passes.append(result)
        elapsed = time.perf_counter() - t0
        if elapsed + result["host_s"] > seconds:
            break
    if not passes:
        return {}, {}
    setups = passes[:]
    while len(setups) < SETUP_SAMPLES:
        probe = launcher.spawn(wd, "setup", traced=False)
        if probe is None:
            checker.attempted += 1
            checker.fail("set-up probe failed")
            break
        setups.append(probe)
    check_pins(launcher, wd.name, passes[0]["source_digest"], reference,
               checker)

    def med(rows, key):
        return median([r[key] for r in rows])

    metrics = {
        "setup_s": med(setups, "setup_s"),
        "wall_s": med(passes, "wall_s"),
        "commits_per_s": median([p["commits"] / p["run_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_kb"] / 1024 for p in passes]),
    }
    extra = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "raw": {"setup_s": med(setups, "setup_raw_s"),
                "wall_s": med(passes, "wall_raw_s"),
                "commits_per_s": median([p["commits"] / p["run_raw_s"]
                                         for p in passes])},
        "ratios": passes[0]["ratios"],
        "ratio_basis": passes[0]["ratio_basis"],
    }
    if wd.name == "eval-sweep":
        for key in ("cold_s", "warm_s"):
            extra[key] = med(passes, key)
            extra["raw"][key] = med(passes, key.replace("_s", "_raw_s"))
        extra["workers_seen"] = max(p["workers_seen"] for p in passes)
    return metrics, extra


def _sum(cells: List[Dict[str, object]], key: str) -> int:
    return sum(c["counts"][key] for c in cells if "counts" in c)


def layer_metrics(untraced: Dict[str, object], traced: Dict[str, object]
                  ) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced pass, times and
    event attribution from the traced one."""
    cells = [c for c in untraced["cells"] if "counts" in c]
    folds = traced.get("layers", {})

    def self_s(layer: str) -> float:
        return folds.get(layer, {}).get("self_s", 0.0)

    def total_s(layer: str) -> float:
        return folds.get(layer, {}).get("total_s", 0.0)

    commits = _sum(cells, "commits")
    events = _sum(cells, "events")
    messages = _sum(cells, "messages")
    attempts = _sum(cells, "attempts")
    good, discarded = _sum(cells, "good_cycles"), _sum(cells,
                                                       "discarded_cycles")
    correct = _sum(cells, "correct_predictions")
    mispredicted = _sum(cells, "mispredictions")
    buckets = traced.get("event_buckets", {})
    sweep = traced.get("sweep", {})
    m: Dict[str, float] = {
        "workloads.gen_s": total_s("workloads"),
        "workloads.instances": untraced["instances"],
        "system.wire_s": total_s("system"),
        "system.audit_s": total_s("audit"),
        "sim.events": events,
        "sim.events_per_commit": events / commits if commits else 0.0,
        "sim.self_s": self_s("sim"),
        "network.messages": messages,
        "network.messages_per_commit": messages / commits if commits else 0.0,
        "network.flit_traversals": _sum(cells, "flit_traversals"),
        "network.self_s": self_s("network"),
        "coherence.dir_services": _sum(cells, "dir_services"),
        "coherence.blocked_cycles": _sum(cells, "blocked_cycles"),
        "coherence.queue_wait_cycles": _sum(cells, "queue_wait_cycles"),
        "coherence.l2_misses": _sum(cells, "l2_misses"),
        "coherence.self_s": self_s("coherence"),
        "htm.tx_attempts": attempts,
        "htm.commit_ratio": commits / attempts if attempts else 0.0,
        "htm.discarded_share": (discarded / (good + discarded)
                                if good + discarded else 0.0),
        "htm.false_victims": _sum(cells, "false_victims"),
        "htm.self_s": self_s("htm"),
        "core.ticks": _sum(cells, "ticks"),
        "core.unicasts": _sum(cells, "unicasts"),
        "core.declines": _sum(cells, "declines"),
        "core.mispredictions": mispredicted,
        "core.prediction_accuracy": (correct / (correct + mispredicted)
                                     if correct + mispredicted else 0.0),
        "core.notified_backoff_cycles": _sum(cells,
                                             "notified_backoff_cycles"),
        "core.self_s": self_s("core"),
        "stats.snapshot_s": total_s("stats"),
        "sanitize.checks": _sum(cells, "sanitizer_checks"),
        "sanitize.self_s": self_s("sanitize"),
        "watchdog.self_s": self_s("watchdog"),
        "trace.records": _sum(cells, "trace_records"),
        "trace.self_s": self_s("trace"),
        "analysis.cells": sweep.get("cells", 0),
        "analysis.worker_busy_s": sweep.get("worker_busy_s", 0.0),
        "analysis.pool_idle_share": sweep.get("pool_idle_share", 0.0),
        "analysis.retries": sweep.get("retries", 0),
        "analysis.cold_s": untraced.get("cold_s", 0.0),
        "resultcache.hit_ratio": sweep.get("hit_ratio", 0.0),
        "resultcache.hit_cell_s": sweep.get("hit_cell_s", 0.0),
        "resultcache.miss_cell_s": sweep.get("miss_cell_s", 0.0),
        "resultcache.warm_s": untraced.get("warm_s", 0.0),
        "perfbench.trace_overhead": traced["wall_s"] / untraced["wall_s"],
    }
    for bucket in ("network", "htm", "coherence", "core", "instrument"):
        m[f"sim.events.{bucket}"] = buckets.get(bucket, 0)
    for key, name in RATIO_METRICS.items():
        m[name] = untraced["ratios"][key]
    return m


def run_traced(launcher: Launcher, wd: wl_defs.WorkloadDef,
               checker: Checker) -> Tuple[Dict[str, float],
                                          Dict[str, object]]:
    reference: Dict[str, Dict[str, object]] = {}
    untraced = launcher.spawn(wd, "full", traced=False)
    checker.cells(untraced, reference, "untraced pass")
    traced = launcher.spawn(wd, "full", traced=True)
    checker.cells(traced, reference, "traced pass")
    if untraced is None or traced is None:
        return {}, {}
    check_pins(launcher, wd.name, untraced["source_digest"], reference,
               checker)
    metrics = layer_metrics(untraced, traced)
    if wd.name != "eval-sweep":
        checker.attempted += 1
        if sum(traced["event_buckets"].values()) != metrics["sim.events"]:
            checker.fail("traced event attribution does not cover every "
                         "executed event")
    return metrics, {"ratios": untraced["ratios"],
                     "ratio_basis": untraced["ratio_basis"],
                     "layers": traced["layers"]}


def provenance(seed: int) -> Dict[str, object]:
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "host": socket.gethostname(),
            "loadavg": list(os.getloadavg())}


def report(name: str, metrics: Dict[str, float], extra: Dict[str, object],
           checker: Checker, traced: bool) -> None:
    """Human-readable lines; the JSON result line comes last."""
    table = PER_LAYER if traced else END_TO_END
    raw = extra.get("raw", {})

    def line(metric: str, value: float, unit: str) -> None:
        host = (f"  (host: {raw[metric]:.6g} {unit})" if metric in raw
                else "")
        print(f"{name:<11} {metric:<30} {value:>14.6g} {unit}{host}")

    for metric, value in metrics.items():
        line(metric, value, table[metric][0])
    for key in ("cold_s", "warm_s"):
        if key in extra:
            line(key, extra[key], "s")
    if raw and wl_defs.WORKLOADS[name].scaled:
        print(f"{name:<11} times are reference seconds (see refclock.py); "
              f"raw host values in parentheses")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{name:<11} {'fail_share':<30} {share:>14.6g} share "
          f"(of {checker.attempted} cell checks attempted)")
    basis = extra.get("ratio_basis", [])
    paper_basis = sorted(basis) == sorted(wl_defs.HIGH_CONTENTION)
    for key, value in (extra["ratios"] if basis else {}).items():
        paper = wl_defs.PAPER_RATIOS[key]
        vs_paper = (f"paper {paper}, error {value - paper:+.3f}"
                    if paper_basis else "no paper value for this basis")
        print(f"{name:<11} {RATIO_METRICS[key]:<30} {value:>14.6g} ratio "
              f"({vs_paper})")
    if basis:
        print(f"{name:<11} simulated ratios are PUNO / baseline averaged "
              f"over {', '.join(basis)}; absolute cycle counts are "
              f"unvalidated (EXPERIMENTS.md)")
    for problem in checker.problems:
        print(f"{name:<11} FAILED {problem}")


def run_workload(launcher: Launcher, name: str, seconds: float,
                 traced: bool) -> Tuple[Checker, Dict[str, float]]:
    wd = wl_defs.WORKLOADS[name]
    checker = Checker()
    if traced:
        metrics, extra = run_traced(launcher, wd, checker)
    else:
        metrics, extra = run_untraced(launcher, wd, seconds, checker)
    if not metrics:
        checker.attempted += 1
        checker.fail("no pass completed")
    report(name, metrics, extra, checker, traced)
    record = {"workload": name, "trace": int(traced),
              "provenance": provenance(launcher.seed),
              "attempted": checker.attempted, "failed": checker.failed,
              "problems": checker.problems, "metrics": metrics,
              "extra": {k: v for k, v in extra.items() if k != "layers"}}
    print(f"{name:<11} provenance {json.dumps(record['provenance'])}")
    out = launcher.state / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{name}-s{launcher.seed}-t{int(traced)}.json").write_text(
        json.dumps(record, indent=1))
    return checker, metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl_defs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {root / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    names = (list(wl_defs.WORKLOADS) if args.workload == "all"
             else [args.workload])
    table = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics_out: Dict[str, Dict[str, object]] = {}
    for name in names:
        launcher = Launcher(root, args.seed)
        checker, metrics = run_workload(launcher, name, args.seconds,
                                        bool(args.trace))
        attempted += checker.attempted
        failed += checker.failed
        for metric, value in metrics.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics_out[key] = {"value": value, "unit": table[metric][0]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
