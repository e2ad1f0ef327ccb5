"""Cross-scheme conformance suite + scheme-golden teeth.

Every registered scheme — whatever its directory-forward, contention
and version-management policies — must obey the shared protocol
contract.  The matrix below runs each scheme through the sanitized
paper-16 smoke workloads and asserts the invariants of
:mod:`repro.testing`; the mutation meta-tests then seed one deliberate
bug per new scheme and prove (a) the conformance suite and (b) the
pinned ``tournament`` golden section each catch it, mirroring the
MP-bit relay meta-test of the main golden tour.
"""

import json
import random
from pathlib import Path

import pytest

from repro.scenarios.golden import (
    SECTIONS,
    cells,
    check,
    compare_digests,
    load_digests,
)
from repro.schemes import (
    AdaptiveRequeue,
    PhasePriorityArbiter,
    scheme_names,
)
from repro.testing import (
    conformance_matrix,
    conformance_workloads,
    run_scheme_conformance,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"

WORKLOADS = conformance_workloads()
REPLAY_WORKLOAD = WORKLOADS[0]
MATRIX = [(s, w) for s in scheme_names() for w in WORKLOADS]


# ---------------------------------------------------------------------
# the conformance matrix
# ---------------------------------------------------------------------

def test_matrix_covers_every_registered_scheme():
    assert {s for s, _ in MATRIX} == set(scheme_names())
    assert set(WORKLOADS) == {"bayes", "genome", "intruder"}


@pytest.mark.parametrize("scheme,workload", MATRIX,
                         ids=[f"{s}-{w}" for s, w in MATRIX])
def test_scheme_conforms(scheme, workload):
    report = run_scheme_conformance(
        scheme, workload, replay=(workload == REPLAY_WORKLOAD))
    assert report.ok, "\n" + report.describe()
    assert report.sanitizer_checks > 0
    if workload == REPLAY_WORKLOAD:
        assert report.replay_digest == report.digest


def test_conformance_matrix_helper_runs_everything():
    reports = conformance_matrix(schemes=("baseline",),
                                 workloads=("genome",))
    assert set(reports) == {("baseline", "genome")}
    assert reports[("baseline", "genome")].ok


def test_conformance_exercises_real_contention():
    """A conformance pass over a contention-free matrix would prove
    nothing about arbitration/backoff policy — intruder cells must
    abort."""
    report = run_scheme_conformance("baseline", "intruder",
                                    replay=False)
    assert report.aborts > 0


# ---------------------------------------------------------------------
# tournament golden section
# ---------------------------------------------------------------------

def test_scheme_section_is_pinned_and_complete():
    doc = json.loads(GOLDEN_PATH.read_text())
    assert "tournament" in doc, (
        "golden.json has no tournament section — pin it with "
        "'repro golden tournament --update'")
    assert set(doc["tournament"]) == set(cells("tournament"))
    for digest in doc["tournament"].values():
        assert len(digest) == 64
        int(digest, 16)


def test_new_schemes_have_pinned_tournament_digests():
    pinned = load_digests("tournament", GOLDEN_PATH)
    for scheme in ("phase-priority", "adaptive-requeue", "lazy"):
        for wl in ("intruder", "vacation"):
            assert f"{wl}/{scheme}" in pinned


def test_tournament_grid_matches_pinned():
    """The regression check itself, over every registered scheme."""
    report = check("tournament", GOLDEN_PATH)
    assert report.ok, "\n" + report.describe()
    assert len(report.matched) == len(cells("tournament"))


def test_scheme_section_agrees_with_main_tour():
    """baseline/puno tournament cells share the main tour's envelope,
    so their digests must be literally the same — a cross-section
    consistency check that both sections pin the same behaviour."""
    tour = load_digests("tour", GOLDEN_PATH)
    schemes_section = load_digests("tournament", GOLDEN_PATH)
    for wl in ("intruder", "vacation"):
        for scheme in ("baseline", "puno"):
            assert schemes_section[f"{wl}/{scheme}"] == \
                tour[f"{wl}/{scheme}"]


# ---------------------------------------------------------------------
# mutation meta-tests: one seeded bug per new scheme, caught twice
# ---------------------------------------------------------------------

def test_conformance_catches_phase_priority_dropping_a_forward(
        monkeypatch):
    """Seeded bug: the arbiter silently discards the lowest-priority
    waiter whenever it reorders — a dropped deferred forward.  The
    victim's request is never serviced, its node never finishes, and
    the conformance run must fail (deadlock / lost outcome), not pass.
    """
    real_select = PhasePriorityArbiter.select

    def dropping_select(self, waitq, now):
        if len(waitq) >= 2:
            # identify the worst waiter and drop it on the floor
            worst = max(range(len(waitq)),
                        key=lambda i: self.priority_key(
                            waitq[i][0], waitq[i][1], i))
            del waitq[worst]
        return real_select(self, waitq, now)

    monkeypatch.setattr(PhasePriorityArbiter, "select", dropping_select)
    report = run_scheme_conformance("phase-priority", "intruder",
                                    replay=False)
    assert not report.ok, (
        "conformance suite failed to detect a dropped directory "
        "forward — the invariants have regressed")


def test_golden_catches_phase_priority_inversion(monkeypatch):
    """Seeded bug: arbitration inverted — the arbiter picks the *worst*
    key (youngest-first, committers last).  Every request is still
    serviced, the run completes, all audits pass — only the schedule
    changes, which is exactly what the pinned tournament digests exist
    to catch."""

    def inverted_select(self, waitq, now):
        if len(waitq) == 1:
            return waitq.popleft()
        self.selections += 1
        worst = max(range(len(waitq)),
                    key=lambda i: self.priority_key(
                        waitq[i][0], waitq[i][1], i))
        item = waitq[worst]
        del waitq[worst]
        return item

    monkeypatch.setattr(PhasePriorityArbiter, "select", inverted_select)
    pinned = load_digests("tournament", GOLDEN_PATH)
    current = dict(pinned)
    for wl in ("intruder", "vacation"):
        system = SECTIONS["tournament"].run(f"{wl}/phase-priority")
        current[f"{wl}/phase-priority"] = \
            system.stats.snapshot_digest()
    report = compare_digests(pinned, current)
    assert not report.ok, (
        "scheme golden failed to detect inverted arbitration — the "
        "phase-priority digests do not cover the drain order")
    assert "intruder/phase-priority" in report.mismatched
    # the mutation is surgical: every other scheme's cell still matches
    assert all("phase-priority" in cell for cell in report.mismatched)


def test_conformance_catches_adaptive_requeue_unseeded_rng(monkeypatch):
    """Seeded bug: the CM ignores its seeded stream and draws from an
    unseeded random.Random() — the exact failure the sim-rng lint rule
    and the replay invariant exist to stop.  Two runs from the same
    seed now schedule requeues differently, so the deterministic-replay
    check must fail."""
    real_init = AdaptiveRequeue.__init__

    def unseeded_init(self, config, stats, rng=None):
        real_init(self, config, stats, rng)
        self.rng = random.Random()  # no seed: OS entropy

    monkeypatch.setattr(AdaptiveRequeue, "__init__", unseeded_init)
    report = run_scheme_conformance("adaptive-requeue", "intruder",
                                    replay=True)
    assert not report.ok, (
        "conformance suite failed to detect an unseeded scheme RNG — "
        "the deterministic-replay invariant has regressed")
    assert any("replay" in f or "nondeterministic" in f
               for f in report.failures), report.failures


def test_golden_catches_adaptive_requeue_unseeded_rng(monkeypatch):
    real_init = AdaptiveRequeue.__init__

    def unseeded_init(self, config, stats, rng=None):
        real_init(self, config, stats, rng)
        self.rng = random.Random()

    monkeypatch.setattr(AdaptiveRequeue, "__init__", unseeded_init)
    pinned = load_digests("tournament", GOLDEN_PATH)
    current = dict(pinned)
    system = SECTIONS["tournament"].run("intruder/adaptive-requeue")
    current["intruder/adaptive-requeue"] = \
        system.stats.snapshot_digest()
    report = compare_digests(pinned, current)
    assert not report.ok
    assert set(report.mismatched) == {"intruder/adaptive-requeue"}
