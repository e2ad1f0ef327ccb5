"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import cells as wl_defs  # noqa: E402
import layers  # noqa: E402
import passrun  # noqa: E402
import procmem  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    lc = layers.LayerClock(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        lc.wrap("c", leaf)()
        clock.now += 3.0
        lc.wrap("c", leaf)()

    def outer():
        clock.now += 5.0
        lc.wrap("b", middle)()
        clock.now += 0.5

    lc.wrap("a", outer)()
    folds = lc.summary()
    assert folds["a"] == {"count": 1, "total_s": 13.5, "self_s": 5.5}
    assert folds["b"] == {"count": 1, "total_s": 8.0, "self_s": 4.0}
    assert folds["c"] == {"count": 2, "total_s": 4.0, "self_s": 4.0}
    assert lc.stack == []


def test_self_time_survives_exceptions():
    clock = FakeClock()
    lc = layers.LayerClock(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            lc.wrap("inner", boom)()

    lc.wrap("outer", outer)()
    folds = lc.summary()
    assert folds["outer"]["self_s"] == 1.0
    assert folds["inner"]["total_s"] == 1.0
    assert lc.stack == []


def test_event_dispatch_counts_bucket_and_owner_time():
    clock = FakeClock()
    lc = layers.LayerClock(clock)
    slot = (lc.layer("htm"), "network")

    def handler(msg):
        clock.now += msg

    lc.dispatch(slot, handler, (3.0,))
    assert lc.events["network"] == 1
    assert lc.summary()["htm"]["self_s"] == 3.0


def test_meter_scales_each_segment_by_its_own_calibrations():
    clock = FakeClock()
    calibrations = iter([0.010, 0.030, 0.010, 0.020])

    def calibrate():
        took = next(calibrations)
        clock.now += took
        return took

    clock.now = 0.5
    meter = refclock.Meter(elapsed=0.5, calibrate=calibrate, clock=clock)
    clock.now += 2.0
    raw, factor = meter.close()
    assert raw == pytest.approx(2.5)  # start-up counts, calibration not
    assert factor == pytest.approx(refclock.REFERENCE_S / 0.020)
    clock.now += 1.0
    assert meter.close() == (pytest.approx(1.0),
                             pytest.approx(refclock.REFERENCE_S / 0.020))
    clock.now += 3.0
    meter.close()
    assert meter.raw_s == pytest.approx(6.5)
    assert meter.ref_s == pytest.approx(
        (2.5 + 1.0) * 0.5 + 3.0 * refclock.REFERENCE_S / 0.015)


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
            assert better in ("lower", "higher")
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_agrees_with_the_benchmark():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl_defs.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == wl_defs.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert doc["paths"] == ["perfbench"]


@pytest.fixture
def tiny_cells(monkeypatch):
    """Two cheap audited cells in place of a full workload."""
    from repro.workloads.stamp import make_stamp_workload
    from repro.sim.config import SystemConfig

    def inputs(workload, seed):
        return [("intruder", lambda: make_stamp_workload(
            "intruder", num_nodes=16, scale=0.05, seed=seed))]

    def cells(workload):
        cfg = SystemConfig(seed=1)
        return [wl_defs.Cell("intruder/baseline", "intruder", "baseline",
                             cfg, audited=True),
                wl_defs.Cell("intruder/puno", "intruder", "puno",
                             cfg.with_puno(), audited=True)]

    monkeypatch.setattr(wl_defs, "build_inputs", inputs)
    monkeypatch.setattr(wl_defs, "build_cells", cells)


def test_untraced_pass_installs_no_wrapper_and_traced_pass_agrees(
        tiny_cells):
    assert layers.installed() == []
    meter = refclock.Meter(calibrate=lambda: refclock.REFERENCE_S)
    plain = passrun.run_cells("audited16", 3, meter, clock=None)
    assert layers.installed() == []
    clock = layers.LayerClock()
    uninstall = layers.install(clock)
    try:
        assert layers.installed()
        traced = passrun.run_cells("audited16", 3, meter, clock=clock)
    finally:
        uninstall()
    assert layers.installed() == []
    assert all("error" not in c for c in plain["cells"] + traced["cells"])
    assert [(c["digest"], c["counts"]) for c in plain["cells"]] == \
        [(c["digest"], c["counts"]) for c in traced["cells"]]
    events = sum(c["counts"]["events"] for c in plain["cells"])
    assert sum(clock.events.values()) == events
    folds = clock.summary()
    for layer in ("sim", "network", "htm", "coherence", "core", "sanitize",
                  "trace", "workloads", "system", "audit", "stats"):
        assert folds[layer]["self_s"] > 0, layer


def test_sweep_probe_uninstalls_cleanly():
    probe = passrun.SweepProbe(layers.LayerClock())
    uninstall = probe.install()
    assert sorted(layers.installed()) == [
        "repro.analysis.parallel._run_round",
        "repro.analysis.sweep.run_tasks_resilient"]
    uninstall()
    assert layers.installed() == []


def test_child_reports_its_own_peak_not_the_parents():
    ballast = bytearray(80 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    assert procmem.vmhwm_kb() > 80 * 1024
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); " \
           "import procmem; print(procmem.vmhwm_kb())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert int(out.stdout) < 40 * 1024
    del ballast


def test_peak_watcher_sees_a_grandchild():
    grandchild = ("b = bytearray(60 << 20); b[::4096] = b'1' * "
                  "len(b[::4096]); import time; time.sleep(1.0)")
    code = textwrap.dedent(f"""
        import subprocess, sys
        subprocess.run([sys.executable, "-c", {grandchild!r}], check=True)
    """)
    proc = subprocess.Popen([sys.executable, "-c", code])
    with procmem.PeakWatcher(proc.pid) as watcher:
        proc.wait(timeout=60)
    assert watcher.peak_kb > 60 * 1024
    assert watcher.pids_seen


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "paper16", "--seed", "0", "--seconds",
                     "1", "--trace", "0"]) == 2
