"""The benchmark's workloads: what each one runs and why.

Every workload is a closed-loop batch: each simulation cell runs to
completion before the next starts.  Inputs are generated from the
benchmark seed by the benchmark; the simulator only receives the
generated workloads.  The simulator-side configuration (contention
manager RNG seed, mesh, PUNO parameters) is fixed per workload.

This module imports nothing from ``repro`` at load time, so the
launcher can read the workload table without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    #: pinned REPRO_SANITIZE for the pass process and its workers
    sanitize: bool
    #: pinned REPRO_NO_CACHE: only the sweep workload uses the cache
    cache: bool
    #: report reference seconds (refclock.py).  Only work done in the
    #: pass process is tracked by its calibration loop: eval-sweep
    #: simulates in pool workers, and scaling its host seconds by the
    #: parent's calibrations widened their spread on a 2-vCPU VM
    #: (IQR/median over ten seeds 0.07-0.13 in host seconds, 0.11-0.17
    #: scaled), so it reports host seconds.
    scaled: bool = True


WORKLOADS: Dict[str, WorkloadDef] = {w.name: w for w in (
    WorkloadDef(
        "paper16",
        "Table IV at scale 1.0, 8 STAMP x 4 designs on 16 nodes, serial, "
        "cache off: the kernel's main load, where PUNO ticks are under 1% "
        "of events",
        sanitize=False, cache=False),
    WorkloadDef(
        "mesh-scale",
        "zipf-64 smoke under puno for 16 sub-seeds plus paper-256 smoke zipf "
        "baseline: PUNO ticks are most events; computed routing, pooled "
        "directories, wide bitsets",
        sanitize=False, cache=False),
    WorkloadDef(
        "eval-sweep",
        "figure set as the bench suite builds it, jobs=2 into a fresh "
        "cache: cold fig10, then seven cache-hit entry points; the only "
        "pool and cache user",
        sanitize=False, cache=True, scaled=False),
    WorkloadDef(
        "audited16",
        "golden-tour cells at scale 1.0 with sanitizer, watchdog, tracer "
        "and sampler attached: where the instrumentation layers do their "
        "work",
        sanitize=True, cache=False),
)}

PAPER_SCALE = 1.0
MAX_CYCLES = 200_000_000
SWEEP_JOBS = 2

#: The golden-tour workloads (repro.scenarios.golden) at full scale.
AUDITED_WORKLOADS = ("intruder", "kmeans", "vacation", "genome")

#: (scenario, scheme, sub-seeds) cells of mesh-scale; each runs the
#: scenario's smoke zipf workload once per sub-seed.  A single seed's
#: PUNO tick count follows its execution time, which swings by tens of
#: percent from seed to seed at every mesh size (and the paper-1024
#: smoke cell's event count by 3.5x), so the pass sums many small cells
#: to keep its total work steady across benchmark seeds.
MESH_CELLS: Tuple[Tuple[str, str, int], ...] = (
    ("zipf-64", "puno", 16),
    ("paper-256", "baseline", 4),
)

#: The paper's high-contention group (Table I); its PUNO averages are
#: the only simulated ratios the paper reports.
HIGH_CONTENTION = ("bayes", "intruder", "labyrinth", "yada")

#: The paper's high-contention averages of PUNO / baseline
#: (Figs. 10, 11 and 13), printed beside the simulated ratios.
PAPER_RATIOS = {"aborts": 0.39, "traffic": 0.67, "exec": 0.88}


@dataclass
class Cell:
    """One simulation: an input, a scheme and how to wire it."""

    cell_id: str
    input_id: str
    scheme: str
    config: object
    audited: bool = False


def build_inputs(workload: str, seed: int) -> List[Tuple[str, object]]:
    """(input id, zero-arg generator) pairs for one pass, in order."""
    from repro.scenarios.registry import get_scenario
    from repro.workloads.stamp import STAMP_WORKLOADS, make_stamp_workload

    def stamp(name):
        return lambda: make_stamp_workload(name, num_nodes=16,
                                           scale=PAPER_SCALE, seed=seed)

    def smoke_zipf(scenario, sub_seed):
        spec = get_scenario(scenario).smoke()
        zipf = spec.workloads[0]
        return zipf.to_spec(spec.nodes, spec.scale, sub_seed).build

    if workload == "paper16":
        return [(n, stamp(n)) for n in STAMP_WORKLOADS]
    if workload == "audited16":
        return [(n, stamp(n)) for n in AUDITED_WORKLOADS]
    if workload == "mesh-scale":
        return [(f"{scenario}/zipf/s{k}",
                 smoke_zipf(scenario, seed * count + k))
                for scenario, _, count in MESH_CELLS for k in range(count)]
    raise KeyError(f"{workload!r} has no generated inputs")


def build_cells(workload: str) -> List[Cell]:
    """The simulation cells of one pass, in run order."""
    from repro.analysis.sweep import paper_schemes
    from repro.scenarios.golden import GOLDEN_SCHEMES, GOLDEN_SEED
    from repro.scenarios.registry import get_scenario
    from repro.sim.config import SystemConfig
    from repro.workloads.stamp import STAMP_WORKLOADS

    if workload == "paper16":
        return [Cell(f"{n}/{s}", n, cm, cfg)
                for n in STAMP_WORKLOADS
                for s, (cm, cfg) in paper_schemes().items()]
    if workload == "audited16":
        cells = []
        for n in AUDITED_WORKLOADS:
            for s in GOLDEN_SCHEMES:
                cfg = SystemConfig(seed=GOLDEN_SEED + 1)
                if s == "puno":
                    cfg = cfg.with_puno()
                cells.append(Cell(f"{n}/{s}", n, s, cfg, audited=True))
        return cells
    if workload == "mesh-scale":
        cells = []
        for scenario, scheme, count in MESH_CELLS:
            spec = get_scenario(scenario).smoke()
            cfg = spec.config(scheme, spec.seeds[0])
            for k in range(count):
                input_id = f"{scenario}/zipf/s{k}"
                cells.append(Cell(f"{input_id}/{scheme}", input_id, scheme,
                                  cfg))
        return cells
    raise KeyError(f"{workload!r} is not a cell workload")
