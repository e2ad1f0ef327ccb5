"""Golden-run regression suite (``repro golden``).

Pins the canonical end-of-run snapshot digest
(:meth:`repro.sim.stats.Stats.snapshot_digest`) of sanitized runs in
``tests/golden/golden.json``.  The file holds one digest mapping per
*section*, and each section is one row of :data:`SECTIONS`: the list
of its cell keys and a function that runs one cell.

* ``tour`` — four representative STAMP workloads x {baseline, puno} at
  scale 0.1.  Sub-second, so it runs in every test invocation; it is
  the default section.
* ``scale`` — the sanitized smoke cells of the paper-256/paper-1024
  scenarios (computed routing, pooled directories, wide bitsets).
* ``tournament`` — intruder and vacation at scale 0.1 under every
  registered scheme, so a newly registered scheme shows up as EXTRA
  until pinned.
* ``paper`` — the paper's Table IV matrix: all eight STAMP workloads x
  {baseline, backoff, rmw, puno} at scale 1.0 (~12 s).  It is the only
  section that runs bayes, labyrinth and yada; its long, contended runs
  are where a change to the declared same-cycle order
  (:mod:`repro.sim.engine`) shows (see ``tests/test_golden.py``).

The three STAMP sections share one envelope — 16 nodes, workload seed
``GOLDEN_SEED``, config seed ``GOLDEN_SEED + 1``, PUNO units enabled
when the scheme needs them — and differ only in workloads, schemes and
scale.  Any behavioural change to the simulator, however subtle (one
skipped MP-bit relay, one reordered message, one miscounted cycle),
changes at least one digest; an *intentional* change is blessed with
``repro golden <section> --update``.  Golden runs always bypass the
result cache (a cache hit would re-hash the pinned result and verify
nothing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.sweep import paper_schemes
from repro.scenarios.registry import get_scenario
from repro.schemes import get_scheme, scheme_names
from repro.schemes.tournament import TOURNAMENT_SCALE, TOURNAMENT_WORKLOADS
from repro.sim.config import SystemConfig
from repro.system import System
from repro.workloads.stamp import STAMP_WORKLOADS, make_stamp_workload

#: Repo-relative location of the pinned digests.
DEFAULT_GOLDEN_PATH = Path("tests") / "golden" / "golden.json"

#: The tour: intruder is the high-contention member (exercises false
#: aborting + MP feedback), kmeans the RMW-heavy one, vacation the
#: mid-contention mixed one, genome the near-contention-free control.
GOLDEN_WORKLOADS: Tuple[str, ...] = ("intruder", "kmeans", "vacation",
                                     "genome")
GOLDEN_SCHEMES: Tuple[str, ...] = ("baseline", "puno")
GOLDEN_NODES = 16
GOLDEN_SCALE = 0.1
GOLDEN_SEED = 0
GOLDEN_MAX_CYCLES = 200_000_000

#: The paper section runs the paper's four designs at full scale.
PAPER_SCALE = 1.0

#: The scenarios whose smoke cells make up the scale section.
SCALE_SCENARIOS: Tuple[str, ...] = ("paper-256", "paper-1024")

#: Bumped when the file layout or a section's definition changes (not
#: when behaviour changes — that is what ``--update`` records).
GOLDEN_FORMAT = 2


class Unpinned(LookupError):
    """Nothing to compare against: a missing golden file, another file
    format, a missing section, or an ``only`` filter matching no cell."""


def _stamp_keys(workloads, schemes) -> List[str]:
    return [f"{wl}/{scheme}" for wl in workloads for scheme in schemes]


def _run_stamp(scale: float, key: str) -> System:
    """One sanitized ``workload/scheme`` STAMP cell at ``scale``."""
    workload, scheme = key.split("/")
    cfg = SystemConfig(seed=GOLDEN_SEED + 1)
    if get_scheme(scheme).needs_puno:
        cfg = cfg.with_puno()
    wl = make_stamp_workload(workload, num_nodes=GOLDEN_NODES,
                             scale=scale, seed=GOLDEN_SEED)
    system = System(cfg, wl, scheme, sanitize=True)
    system.run(max_cycles=GOLDEN_MAX_CYCLES)
    return system


def _scale_keys() -> List[str]:
    keys: List[str] = []
    for name in SCALE_SCENARIOS:
        spec = get_scenario(name).smoke()
        keys += [f"{name}/{wl.label}/{scheme}/s{seed}"
                 for wl in spec.workloads for scheme in spec.schemes
                 for seed in spec.seeds]
    return keys


def _run_scale(key: str) -> System:
    """One sanitized ``scenario/workload/scheme/s<seed>`` smoke cell."""
    scenario, label, scheme, seed_tag = key.split("/")
    seed = int(seed_tag[1:])
    spec = get_scenario(scenario).smoke()
    wl = next(w for w in spec.workloads if w.label == label)
    ws = wl.to_spec(spec.nodes, spec.scale, seed)
    system = System(spec.config(scheme, seed), ws.build(), scheme,
                    sanitize=True)
    system.run(max_cycles=spec.max_cycles)
    return system


@dataclass(frozen=True)
class Section:
    """One pinned section: its cell keys and how to run one cell."""

    keys: Callable[[], List[str]]
    run: Callable[[str], System]


SECTIONS: Dict[str, Section] = {
    "tour": Section(partial(_stamp_keys, GOLDEN_WORKLOADS, GOLDEN_SCHEMES),
                    partial(_run_stamp, GOLDEN_SCALE)),
    "scale": Section(_scale_keys, _run_scale),
    "tournament": Section(
        lambda: _stamp_keys(TOURNAMENT_WORKLOADS, scheme_names()),
        partial(_run_stamp, TOURNAMENT_SCALE)),
    "paper": Section(partial(_stamp_keys, STAMP_WORKLOADS, paper_schemes()),
                     partial(_run_stamp, PAPER_SCALE)),
}


def cells(section: str, only: str = "") -> List[str]:
    """The section's cell keys that start with ``only``."""
    keys = [k for k in SECTIONS[section].keys() if k.startswith(only)]
    if not keys:
        raise Unpinned(f"no {section} cell key starts with {only!r}")
    return keys


def compute_digests(section: str, only: str = "",
                    verbose: bool = False) -> Dict[str, str]:
    """Run the section's cells (those starting with ``only``)."""
    out: Dict[str, str] = {}
    for key in cells(section, only):
        system = SECTIONS[section].run(key)
        out[key] = system.stats.snapshot_digest()
        if verbose:
            print(f"  {key}: {out[key][:16]}… "
                  f"({system.stats.sanitizer_checks} sanitizer checks)")
    return out


# ---------------------------------------------------------------------
# pinned-file I/O
# ---------------------------------------------------------------------

def repin_command(section: str,
                  path: Union[str, Path] = DEFAULT_GOLDEN_PATH) -> str:
    cmd = f"repro golden {section} --update"
    if Path(path) != DEFAULT_GOLDEN_PATH:
        cmd += f" --file {path}"
    return cmd


def _read_doc(path: Path) -> Dict:
    """The file's JSON object; {} when missing or not an object."""
    try:
        doc = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def load_digests(section: str,
                 path: Union[str, Path] = DEFAULT_GOLDEN_PATH
                 ) -> Dict[str, str]:
    """The pinned digests of ``section``; raises :class:`Unpinned`."""
    path = Path(path)
    doc = _read_doc(path)
    if not path.exists():
        problem = "no such file"
    elif doc.get("format") != GOLDEN_FORMAT:
        problem = (f"golden format {doc.get('format')!r}, expected "
                   f"{GOLDEN_FORMAT}")
    elif section not in doc:
        problem = f"no {section} section"
    else:
        return dict(doc[section])
    raise Unpinned(f"{path}: {problem}; pin it with "
                   f"'{repin_command(section, path)}'")


def save_digests(section: str, digests: Dict[str, str],
                 path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
                 only: str = "") -> Path:
    """Pin ``digests`` as ``section``, keeping every other section.

    With ``only``, just the section's keys starting with that prefix
    are replaced and the rest of the section is kept.  A file of
    another format is rewritten from scratch.
    """
    path = Path(path)
    doc = _read_doc(path)
    if doc.get("format") != GOLDEN_FORMAT:
        doc = {"format": GOLDEN_FORMAT}
    kept = {k: d for k, d in doc.get(section, {}).items()
            if only and not k.startswith(only)}
    doc[section] = {**kept, **digests}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------

@dataclass
class GoldenReport:
    """Outcome of one golden comparison."""

    matched: List[str] = field(default_factory=list)
    mismatched: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)  # pinned, not run
    extra: List[str] = field(default_factory=list)  # run, not pinned
    section: str = "tour"

    @property
    def ok(self) -> bool:
        return not (self.mismatched or self.missing or self.extra)

    def describe(self) -> str:
        repin = f"'{repin_command(self.section)}'"
        lines = [f"golden {self.section}: {len(self.matched)} cell(s) "
                 f"match"]
        for cell, (pinned, got) in sorted(self.mismatched.items()):
            lines.append(f"  MISMATCH {cell}: pinned {pinned[:16]}… "
                         f"got {got[:16]}…")
        for cell in self.missing:
            lines.append(f"  MISSING  {cell}: pinned but not produced "
                         f"by the current section")
        for cell in self.extra:
            lines.append(f"  EXTRA    {cell}: produced but not pinned "
                         f"(re-pin with {repin})")
        if not self.ok:
            lines.append("golden suite FAILED — a behavioural change "
                         "reached the protocol; if intentional, bless "
                         f"it with {repin}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "matched": sorted(self.matched),
            "mismatched": {k: {"pinned": p, "got": g}
                           for k, (p, g) in self.mismatched.items()},
            "missing": sorted(self.missing),
            "extra": sorted(self.extra),
        }


def compare_digests(pinned: Dict[str, str], current: Dict[str, str],
                    section: str = "tour") -> GoldenReport:
    report = GoldenReport(section=section)
    for cell, digest in pinned.items():
        if cell not in current:
            report.missing.append(cell)
        elif current[cell] != digest:
            report.mismatched[cell] = (digest, current[cell])
        else:
            report.matched.append(cell)
    report.extra = [c for c in current if c not in pinned]
    return report


def check(section: str, path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
          only: str = "", verbose: bool = False,
          current: Optional[Dict[str, str]] = None) -> GoldenReport:
    """Run the section's cells starting with ``only`` and compare them
    against the pinned digests; pinned cells outside the filter are
    ignored rather than reported missing.

    ``current`` lets tests inject precomputed (or deliberately
    mutated) digests instead of re-running the cells.
    """
    pinned = {k: d for k, d in load_digests(section, path).items()
              if k.startswith(only)}
    if current is None:
        current = compute_digests(section, only, verbose)
    return compare_digests(pinned, current, section)
