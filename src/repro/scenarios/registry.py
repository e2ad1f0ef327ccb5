"""Built-in scenario registry.

Scenarios fall into three bands:

* **paper envelope** (16 nodes) — the Table IV evaluation as one
  runnable matrix (``paper-16``),
* **scaled meshes** (32/64 nodes) — the contention families and the
  high-contention STAMP members stretched past the paper's envelope,
  where sharer counts and priority spreads stress P-Buffer capacity,
  UD-pointer staleness and TxLB estimates,
* **stress/chaos** — deliberately hostile parameterizations
  (shortened rollover periods, injected message faults).

``register_scenario`` accepts user-defined specs, so downstream code
can add scenarios the same way the built-ins do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scenarios.spec import ScenarioSpec, WorkloadDef

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec,
                      replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (rejects silent redefinition)."""
    problems = spec.validate()
    if problems:
        raise ValueError(f"scenario {spec.name!r} is invalid: "
                         + "; ".join(problems))
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown scenario {name!r}; choices: "
                       f"{sorted(_REGISTRY)}")
    return spec


def list_scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """All registered scenarios (optionally filtered by tag), sorted
    by name."""
    specs = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if tag is not None:
        specs = [s for s in specs if tag in s.tags]
    return specs


# =====================================================================
# built-ins
# =====================================================================

_STAMP_ALL = ("bayes", "genome", "intruder", "kmeans", "labyrinth",
              "ssca2", "vacation", "yada")
_STAMP_HC = ("bayes", "intruder", "labyrinth", "yada")


register_scenario(ScenarioSpec(
    name="paper-16",
    description="The paper's Table IV evaluation: the eight STAMP "
                "analogues under all four designs at the 16-node "
                "Table II envelope.",
    nodes=16,
    workloads=tuple(WorkloadDef(w) for w in _STAMP_ALL),
    schemes=("baseline", "backoff", "rmw", "puno"),
    scale=0.4,
    smoke_scale=0.25,
    smoke_workloads=3,
    tags=("paper", "stamp"),
))

register_scenario(ScenarioSpec(
    name="stamp-hc-32",
    description="The high-contention STAMP members (Bayes, Intruder, "
                "Labyrinth, Yada) on a 32-node mesh: twice the "
                "sharers per written line, twice the priority spread.",
    nodes=32,
    workloads=tuple(WorkloadDef(w) for w in _STAMP_HC),
    schemes=("baseline", "puno"),
    scale=0.25,
    smoke_scale=0.4,
    smoke_workloads=2,
    tags=("scaled", "stamp"),
))

register_scenario(ScenarioSpec(
    name="hotspot-32",
    description="Hotspot RMW counters on a 32-node mesh: all-to-few "
                "write contention, P-Buffer refreshed by every node "
                "between rollovers.",
    nodes=32,
    workloads=(WorkloadDef("hotspot", kind="hotspot"),),
    schemes=("baseline", "puno"),
    seeds=(0, 1),
    smoke_scale=0.25,
    tags=("scaled", "family"),
))

register_scenario(ScenarioSpec(
    name="prodcons-32",
    description="Producer-consumer chains around a 32-node mesh: "
                "neighbour-wise conflicts, far-node P-Buffer entries "
                "go stale between uses.",
    nodes=32,
    workloads=(WorkloadDef("prodcons", kind="prodcons"),),
    schemes=("baseline", "puno"),
    smoke_scale=0.25,
    tags=("scaled", "family"),
))

register_scenario(ScenarioSpec(
    name="zipf-64",
    description="Zipf-shared counters on a 64-node mesh: head lines "
                "carry chip-wide sharer lists — the false-aborting "
                "mechanism at 4x the paper's scale.",
    nodes=64,
    workloads=(WorkloadDef("zipf", kind="zipf",
                           params={"lines": 512}),),
    schemes=("baseline", "puno"),
    scale=0.5,
    smoke_scale=0.2,
    tags=("scaled", "family"),
))

register_scenario(ScenarioSpec(
    name="rw-64",
    description="Long read-only scanners vs short polling writers on "
                "a 64-node mesh: the Fig. 4 false-abort pathology "
                "with dozens of concurrent victims per line.",
    nodes=64,
    workloads=(WorkloadDef("rw_mix", kind="rw_mix",
                           params={"shared_lines": 96}),),
    schemes=("baseline", "backoff", "puno"),
    scale=0.5,
    smoke_scale=0.2,
    tags=("scaled", "family"),
))

register_scenario(ScenarioSpec(
    name="pbuffer-stress-64",
    description="64-node Zipf + hotspot mix under a deliberately "
                "hostile PUNO parameterization: rollover period "
                "halved and recency window shrunk, so predictions "
                "lean on stale P-Buffer state — the regime where "
                "misprediction feedback must earn its keep.",
    nodes=64,
    workloads=(
        WorkloadDef("zipf", kind="zipf", params={"lines": 512}),
        WorkloadDef("hotspot", kind="hotspot"),
    ),
    schemes=("baseline", "puno"),
    scale=0.4,
    overrides={"puno": {"timeout_scale": 0.5, "recency_window": 128,
                        "min_nacker_length": 0}},
    smoke_scale=0.2,
    smoke_workloads=1,
    tags=("scaled", "stress"),
))

register_scenario(ScenarioSpec(
    name="paper-256",
    description="The scale-out tier: Zipf counters and hotspot RMW on "
                "a 256-node mesh — past the route-table threshold, so "
                "the computed-routing path and the pooled directory "
                "store carry the whole run.  Smoke digests are pinned "
                "as the scale section of the golden suite.",
    nodes=256,
    workloads=(
        WorkloadDef("zipf", kind="zipf", params={"lines": 2048}),
        WorkloadDef("hotspot", kind="hotspot",
                    params={"hot_lines": 16}),
    ),
    schemes=("baseline", "puno"),
    scale=0.4,
    smoke_scale=0.25,
    smoke_workloads=1,
    tags=("scale", "family"),
))

register_scenario(ScenarioSpec(
    name="paper-1024",
    description="The 1024-node stress tier (32x32 mesh): Zipf "
                "counters with chip-wide sharer lists at 64x the "
                "paper's node count, comparing baseline, backoff and "
                "PUNO.  PUNO's P-Buffers hold one entry per node per "
                "directory (O(N^2) in total) but age without heap "
                "events, so its cell costs about what baseline's does.",
    nodes=1024,
    workloads=(WorkloadDef("zipf", kind="zipf",
                           params={"lines": 8192}),),
    schemes=("baseline", "backoff", "puno"),
    scale=0.2,
    smoke_scale=0.25,
    tags=("scale", "family"),
))

# The scheme tournament: every registered scheme head-to-head against
# PUNO at the golden-tour envelope (see repro.schemes.tournament; the
# import is placed here, after ScenarioSpec machinery is loaded, since
# tournament_spec builds on repro.scenarios.spec).
from repro.schemes.tournament import tournament_spec  # noqa: E402

register_scenario(tournament_spec())

register_scenario(ScenarioSpec(
    name="chaos-32",
    description="rw_mix on a 32-node mesh with injected message "
                "delays and duplicate responses: PUNO's prediction "
                "machinery under a lossy-looking (but loss-free) "
                "interconnect, watchdog armed.",
    nodes=32,
    workloads=(WorkloadDef("rw_mix", kind="rw_mix"),),
    schemes=("baseline", "puno"),
    faults="delay=0.05,dup=0.02,seed=7",
    smoke_scale=0.25,
    tags=("scaled", "chaos"),
))
