"""The golden *scale* section: paper-256/paper-1024 smoke digests.

The 256/1024-node scenarios run entirely on the computed-routing and
pooled-directory paths, so their sanitized smoke digests are the
bit-identity contract for the scale-out machinery the same way the
STAMP tour pins the 16-node protocol.  The full family (~25 s) runs
via ``repro golden scale`` (CI's scale-smoke job runs its paper-256
cells under an RSS budget); the tests here keep every pytest
invocation cheap by re-running only the cheapest cell and checking the
rest structurally.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.golden import (
    GOLDEN_FORMAT,
    SCALE_SCENARIOS,
    SECTIONS,
    cells,
    check,
    load_digests,
)
from repro.scenarios.registry import get_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"


# ---------------------------------------------------------------------
# scenario definitions
# ---------------------------------------------------------------------

def test_scale_scenarios_registered_and_valid():
    for name in SCALE_SCENARIOS:
        spec = get_scenario(name)
        assert spec.validate() == []
        assert "scale" in spec.tags


def test_paper_256_shape():
    spec = get_scenario("paper-256")
    assert spec.nodes == 256
    assert set(spec.schemes) == {"baseline", "puno"}
    smoke = spec.smoke()
    # smoke keeps one workload so the CI cell count stays bounded
    assert len(smoke.workloads) == 1
    assert smoke.scale < spec.scale


def test_paper_1024_shape():
    """PUNO runs at 1024 nodes beside the two PUNO-free schemes: its
    P-Buffers age without heap events, so the tier no longer has to
    leave it out."""
    from repro.scenarios.spec import KNOWN_SCHEMES

    spec = get_scenario("paper-1024")
    assert spec.nodes == 1024
    assert spec.schemes == ("baseline", "backoff", "puno")
    assert [s for s in spec.schemes if KNOWN_SCHEMES[s]] == ["puno"]


def test_scale_meshes_use_computed_routing():
    """Both tiers sit past the route-table threshold — the point of
    the family is to exercise the O(N)-memory path."""
    from repro.network.topology import ROUTE_TABLE_MAX_NODES, build_topology

    for name in SCALE_SCENARIOS:
        spec = get_scenario(name)
        assert spec.nodes > ROUTE_TABLE_MAX_NODES
        cfg = spec.config(spec.schemes[0], seed=0)
        assert not build_topology(cfg.network).has_tables


# ---------------------------------------------------------------------
# the pinned section
# ---------------------------------------------------------------------

def test_scale_section_is_pinned():
    doc = json.loads(GOLDEN_PATH.read_text())
    assert doc["format"] == GOLDEN_FORMAT
    assert set(doc["scale"]) == set(cells("scale"))
    for digest in doc["scale"].values():
        assert len(digest) == 64
        int(digest, 16)


@pytest.fixture(scope="module")
def paper_256_cells():
    """The two sub-second paper-256 smoke cells, run once per module."""
    return {scheme: SECTIONS["scale"].run(f"paper-256/zipf/{scheme}/s0")
            for scheme in ("baseline", "puno")}


def test_cheapest_scale_cell_matches_pinned(paper_256_cells):
    """Re-run the sub-second cells (paper-256 zipf) and compare their
    digests against the pinned section — the fast regression tooth;
    CI's scale-smoke job covers the remaining cells."""
    pinned = load_digests("scale", GOLDEN_PATH)
    for scheme, system in paper_256_cells.items():
        assert system.stats.sanitizer_checks > 0
        assert (system.stats.snapshot_digest()
                == pinned[f"paper-256/zipf/{scheme}/s0"]), (
            f"paper-256 {scheme} smoke digest drifted — scale-out "
            f"behaviour changed; if intentional, bless with "
            f"'repro golden scale --update'")


def test_puno_event_cost_tracks_baseline(paper_256_cells):
    """Deterministic cost guard: P-Buffer aging schedules no events, so
    PUNO's event count stays within 1.5x of baseline's on the same
    256-node cell (one rollover event per directory per tick made it
    ~20x)."""
    events = {scheme: system.sim.events_processed
              for scheme, system in paper_256_cells.items()}
    assert events["puno"] <= 1.5 * events["baseline"], events


def test_check_scale_golden_with_injected_digests():
    pinned = load_digests("scale", GOLDEN_PATH)
    ok = check("scale", GOLDEN_PATH, current=dict(pinned))
    assert ok.ok and len(ok.matched) == len(pinned)
    mutated = dict(pinned)
    first = next(iter(mutated))
    mutated[first] = "0" * 64
    bad = check("scale", GOLDEN_PATH, current=mutated)
    assert not bad.ok and first in bad.mismatched


def test_check_scale_golden_scenario_subset():
    """Restricting to paper-256 (the CI job) ignores the 1024 cells
    instead of reporting them missing."""
    pinned = load_digests("scale", GOLDEN_PATH)
    subset = {c: d for c, d in pinned.items()
              if c.startswith("paper-256/")}
    report = check("scale", GOLDEN_PATH, only="paper-256/",
                   current=subset)
    assert report.ok
    assert not report.missing
    assert len(report.matched) == len(subset) == 2
