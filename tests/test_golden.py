"""Golden-run regression suite.

``tests/golden/golden.json`` pins canonical snapshot digests, one
mapping per section of :data:`repro.scenarios.golden.SECTIONS`.  The
default section is a small sanitized STAMP tour (four workloads x
{baseline, puno}); the digest covers *every* counter in
:meth:`repro.sim.stats.Stats.snapshot`, so any behavioural drift in the
protocol — one skipped message, one miscounted cycle — flips at least
one digest and fails this suite.

Intentional behaviour changes are blessed with ``repro golden
<section> --update`` (and the re-pin should be called out in the
commit).

The meta-tests prove the suite has teeth: one flips a protocol line
(skip the MP-bit relay on UNBLOCK, the PUNO feedback path) and asserts
the tour catches it; another perturbs only the declared same-cycle
order and asserts which pins catch it.  The pinned-file I/O
tests run once per section.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.sweep import paper_schemes
from repro.htm.node import Mshr
from repro.scenarios.golden import (
    DEFAULT_GOLDEN_PATH,
    GOLDEN_FORMAT,
    GOLDEN_SCHEMES,
    GOLDEN_WORKLOADS,
    SECTIONS,
    Unpinned,
    cells,
    check,
    compare_digests,
    compute_digests,
    load_digests,
    save_digests,
)
from repro.sim.engine import NET, OWNER_BITS, Simulator
from repro.workloads.stamp import STAMP_WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"


@pytest.fixture(scope="module")
def tour_runs():
    """Run the tour once for the whole module (sub-second per cell)."""
    return {key: SECTIONS["tour"].run(key) for key in cells("tour")}


@pytest.fixture(scope="module")
def current_digests(tour_runs):
    return {key: system.stats.snapshot_digest()
            for key, system in tour_runs.items()}


#: Heap events per tour cell: deterministic for a given source tree,
#: pinned exactly so that a change which adds (or removes) an event hop
#: fails on a count rather than on a timing.  Every op of a running
#: transaction is one event (tests/test_hotpath.py); the per-op
#: ``_run_op`` hop this replaced cost 8,783 / 9,669 / 2,357 / 2,409 /
#: 5,019 / 5,027 / 2,452 / 2,469 events on the same cells.
TOUR_EVENTS = {
    "intruder/baseline": 7087, "intruder/puno": 7848,
    "kmeans/baseline": 1849, "kmeans/puno": 1901,
    "vacation/baseline": 4049, "vacation/puno": 4088,
    "genome/baseline": 1961, "genome/puno": 1979,
}


def test_tour_event_counts_are_pinned(tour_runs):
    assert set(TOUR_EVENTS) == set(tour_runs)
    events = {key: system.sim.events_processed
              for key, system in tour_runs.items()}
    assert events == TOUR_EVENTS


def test_golden_file_is_pinned():
    assert GOLDEN_PATH.exists(), (
        "tests/golden/golden.json missing — pin it with "
        "'repro golden --update'")
    doc = json.loads(GOLDEN_PATH.read_text())
    assert doc["format"] == GOLDEN_FORMAT
    assert set(doc["tour"]) == set(cells("tour"))
    for digest in doc["tour"].values():
        assert len(digest) == 64
        int(digest, 16)  # valid hex


def test_golden_tour_matches_pinned(current_digests):
    """The regression check itself: current behaviour == pinned."""
    report = check("tour", GOLDEN_PATH, current=current_digests)
    assert report.ok, "\n" + report.describe()
    assert len(report.matched) == len(cells("tour"))


def test_golden_runs_are_sanitized_and_nontrivial():
    """The tour must exercise real protocol activity (else the digests
    pin nothing) and run with the sanitizer armed."""
    system = SECTIONS["tour"].run("intruder/puno")
    st = system.stats
    assert st.sanitizer_checks > 0, "sanitizer must be armed"
    assert st.tx_committed > 0
    assert st.tx_aborted > 0, "tour must include real contention"
    # The PUNO cells must actually drive the PUNO machinery, otherwise
    # the meta-test mutation below would be invisible.
    assert st.puno_unicasts > 0
    assert st.puno_pbuffer_updates > 0


def test_compare_digests_reports_all_categories():
    pinned = {"a/x": "1", "b/x": "2", "c/x": "3"}
    current = {"a/x": "1", "b/x": "9", "d/x": "4"}
    report = compare_digests(pinned, current)
    assert not report.ok
    assert report.matched == ["a/x"]
    assert report.mismatched == {"b/x": ("2", "9")}
    assert report.missing == ["c/x"]
    assert report.extra == ["d/x"]
    text = report.describe()
    assert "MISMATCH b/x" in text
    assert "MISSING  c/x" in text
    assert "EXTRA    d/x" in text
    assert "FAILED" in text


def test_load_rejects_wrong_format(tmp_path):
    """A file of another format is unpinned for every section, and
    re-pinning a section rewrites it in the current format."""
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"format": 999, "tour": {}}))
    for section in SECTIONS:
        with pytest.raises(Unpinned, match="format 999"):
            load_digests(section, path)
    save_digests("tour", {"intruder/puno": "ab" * 32}, path)
    assert json.loads(path.read_text()) == {
        "format": GOLDEN_FORMAT, "tour": {"intruder/puno": "ab" * 32}}


def test_default_path_is_repo_relative():
    assert DEFAULT_GOLDEN_PATH == Path("tests") / "golden" / "golden.json"


# ---------------------------------------------------------------------
# meta-test: the suite must detect a one-line protocol change
# ---------------------------------------------------------------------

def test_golden_detects_skipped_mp_relay(monkeypatch, current_digests):
    """Flip one protocol line — drop the MP-bit relay on UNBLOCK
    (requesters stop reporting mispredicted unicasts back to the
    directory, so the P-Buffer never invalidates stale predictions) —
    and assert the golden comparison catches the drift.

    This is the detection guarantee the suite exists for: if this
    meta-test ever passes with ``report.ok`` true, the digests have
    stopped covering the protocol.
    """
    monkeypatch.setattr(Mshr, "mp_node", lambda self: -1)
    mutated = compute_digests("tour")
    report = check("tour", GOLDEN_PATH, current=mutated)
    assert not report.ok, (
        "golden suite failed to detect a skipped MP-bit relay — "
        "digest coverage has regressed")
    # Every PUNO cell with real contention should drift; baseline
    # cells never send unicasts, so their digests must NOT change
    # (proves the mutation was surgical, not an environment diff).
    assert any(cell.endswith("/puno") for cell in report.mismatched)
    baseline_cells = {f"{wl}/baseline" for wl in GOLDEN_WORKLOADS}
    assert baseline_cells <= set(report.matched)
    # And the unmutated tour still matches (sanity: the mismatch above
    # came from the monkeypatch, not from ambient nondeterminism).
    assert compare_digests(load_digests("tour", GOLDEN_PATH),
                           current_digests).ok


def test_golden_schemes_cover_both_designs():
    assert "baseline" in GOLDEN_SCHEMES
    assert "puno" in GOLDEN_SCHEMES
    assert set(GOLDEN_WORKLOADS) == {"intruder", "kmeans", "vacation",
                                     "genome"}


# ---------------------------------------------------------------------
# the paper section: Table IV at scale 1.0
# ---------------------------------------------------------------------

def test_paper_section_pins_table_iv():
    """Exactly the paper's 8 STAMP workloads x 4 designs are pinned."""
    pinned = load_digests("paper", GOLDEN_PATH)
    assert set(paper_schemes()) == {"baseline", "backoff", "rmw", "puno"}
    expected = {f"{wl}/{scheme}" for wl in STAMP_WORKLOADS
                for scheme in paper_schemes()}
    assert len(expected) == 32
    assert set(pinned) == expected == set(cells("paper"))
    for digest in pinned.values():
        assert len(digest) == 64
        int(digest, 16)


def _reverse_link_order(monkeypatch):
    """Perturb the declared same-cycle key: deliveries of one cycle run
    in descending link order instead of ascending.  Every event still
    lands on its cycle; only the order among same-cycle deliveries of
    different links moves."""
    owner_key = Simulator.owner_key

    def reversed_links(self, cls, owner):
        if cls == NET:
            owner = (1 << OWNER_BITS) - 1 - owner
        return owner_key(self, cls, owner)

    monkeypatch.setattr(Simulator, "owner_key", reversed_links)


def test_golden_sees_same_cycle_order(monkeypatch):
    """Same-cycle order is a declared model choice (repro.sim.engine),
    and the pins must see it: reversing the delivery order by link
    flips the pinned bayes/backoff paper cell with the sanitizer clean,
    so only the pinned digest can catch it.  On the tour it flips the
    genome and intruder cells and leaves kmeans and vacation as
    pinned."""
    pinned = load_digests("paper", GOLDEN_PATH)["bayes/backoff"]
    assert (SECTIONS["paper"].run("bayes/backoff").stats.snapshot_digest()
            == pinned)
    _reverse_link_order(monkeypatch)
    perturbed = SECTIONS["paper"].run("bayes/backoff")
    assert perturbed.stats.sanitizer_checks > 0  # a violation would raise
    assert perturbed.stats.snapshot_digest() != pinned, (
        "the paper section no longer sees same-cycle order")
    tour = check("tour", GOLDEN_PATH, current=compute_digests("tour"))
    assert sorted(tour.mismatched) == [
        "genome/baseline", "genome/puno", "intruder/baseline",
        "intruder/puno"]
    assert sorted(tour.matched) == [
        "kmeans/baseline", "kmeans/puno", "vacation/baseline",
        "vacation/puno"]


# ---------------------------------------------------------------------
# pinned-file I/O, once per section
# ---------------------------------------------------------------------

@pytest.fixture(params=sorted(SECTIONS))
def section(request):
    return request.param


def test_save_and_load_roundtrip(tmp_path, section):
    path = tmp_path / "golden.json"
    digests = {"a/x": "ab" * 32, "b/x": "cd" * 32}
    save_digests(section, digests, path)
    assert load_digests(section, path) == digests
    assert json.loads(path.read_text())["format"] == GOLDEN_FORMAT


def test_save_preserves_other_sections(tmp_path, section):
    path = tmp_path / "golden.json"
    for name in SECTIONS:
        save_digests(name, {f"{name}/x": "a" * 64}, path)
    save_digests(section, {f"{section}/y": "b" * 64}, path)
    for name in SECTIONS:
        expected = ({f"{section}/y": "b" * 64} if name == section
                    else {f"{name}/x": "a" * 64})
        assert load_digests(name, path) == expected


def test_load_missing_file_or_section_raises(tmp_path, section):
    path = tmp_path / "golden.json"
    with pytest.raises(Unpinned, match="no such file"):
        load_digests(section, path)
    other = next(name for name in SECTIONS if name != section)
    save_digests(other, {"a/x": "a" * 64}, path)
    with pytest.raises(Unpinned, match=f"no {section} section; pin it "
                                       f"with 'repro golden {section} "
                                       f"--update"):
        load_digests(section, path)
