"""Engine-level stall detection: deadlock / livelock / no-progress.

A :class:`Watchdog` rides the event heap as a periodic self-scheduled
event (every ``check_interval`` cycles) and classifies wedged runs
instead of letting them silently burn events until ``max_events`` or
``max_cycles``:

* **deadlock** — the system quiesced (zero live events besides the
  watchdog's own tick) with nodes still unfinished.  With a lossless
  network this is unreachable; under injected message drops it is the
  expected failure mode (a blocked directory entry or an MSHR waiting
  on a response that will never arrive).
* **livelock** — no commit and no node completion for a full
  ``progress_window`` while NACK traffic keeps flowing (at least
  ``livelock_nack_floor`` NACKs inside the window): requests are being
  retried and refused in a cycle the backoff machinery is not breaking.
* **no-progress** — the same window expires without the NACK traffic:
  events are being processed but nothing commits (e.g. every
  outstanding request waits on a dropped reply while timers keep the
  heap alive).

Detection raises :class:`StallError` carrying a structured
:class:`StallReport` (kind, cycle, per-node completion, outstanding
MSHRs, fault-injection counts) out of ``System.run``.  The watchdog
never touches :class:`~repro.sim.stats.Stats` and its tick callback
mutates no protocol state, so an attached-but-silent watchdog leaves
run statistics bit-identical to an unwatched run — the property the
fault-free equivalence test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.engine import INSTRUMENT, WATCHDOG


@dataclass(frozen=True)
class WatchdogConfig:  # lint: disable=dataclass-slots -- frozen config built once per run; frozen+slots breaks 3.10 pickle
    """Detection thresholds, all in simulated cycles."""

    check_interval: int = 50_000
    progress_window: int = 1_000_000
    livelock_nack_floor: int = 64


@dataclass(slots=True)
class StallReport:
    """Structured description of a detected stall."""

    kind: str  # "deadlock" | "livelock" | "no-progress" | "max-cycles"
    cycle: int
    detail: str
    nodes_done: int
    num_nodes: int
    commits: int
    aborts: int
    window_nacks: int
    live_events: int
    # (node, addr, req_id) of every in-flight MSHR at detection time
    outstanding: Tuple[Tuple[int, int, int], ...] = ()
    # fault-injection counters when an injector is attached
    faults: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"stall detected: {self.kind} at cycle {self.cycle} "
            f"({self.nodes_done}/{self.num_nodes} nodes done, "
            f"{self.commits} commits, {self.aborts} aborts)",
            f"  {self.detail}",
        ]
        if self.outstanding:
            pretty = ", ".join(f"node {n} addr {a} req {r}"
                               for n, a, r in self.outstanding)
            lines.append(f"  outstanding requests: {pretty}")
        if self.faults:
            pretty = ", ".join(f"{k}={v}" for k, v in self.faults.items())
            lines.append(f"  injected faults: {pretty}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "detail": self.detail,
            "nodes_done": self.nodes_done,
            "num_nodes": self.num_nodes,
            "commits": self.commits,
            "aborts": self.aborts,
            "window_nacks": self.window_nacks,
            "live_events": self.live_events,
            "outstanding": [list(t) for t in self.outstanding],
            "faults": dict(self.faults),
        }


class StallError(RuntimeError):
    """Raised out of ``System.run`` when the watchdog detects a stall.

    Carries the full :class:`StallReport`; constructed from the report
    alone so the default ``args``-based exception pickling round-trips
    it across process boundaries.
    """

    def __init__(self, report: StallReport):
        super().__init__(report)
        self.report = report

    def __str__(self) -> str:
        return self.report.describe()


class Watchdog:
    """Periodic progress monitor over one :class:`~repro.system.System`."""

    def __init__(self, config: Optional[WatchdogConfig] = None):
        self.config = config or WatchdogConfig()
        self.system = None
        self.sim = None
        self.ticks = 0
        self._ev = None
        self._progress_cycle = 0
        self._last_commits = 0
        self._last_done = 0
        self._nacks_at_progress = 0

    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        if self.system is not None:
            raise RuntimeError("Watchdog is already attached")
        self.system = system
        self.sim = system.sim
        self._key = self.sim.owner_key(INSTRUMENT, WATCHDOG)
        self._progress_cycle = self.sim.now
        self._ev = self.sim.schedule(self.config.check_interval, self._tick,
                                     owner=self._key)

    def stop(self) -> None:
        """Cancel the pending tick (called when the workload finishes)."""
        if self._ev is not None:
            self._ev.cancel()
            self._ev = None

    # ------------------------------------------------------------------
    def _nacks_total(self) -> int:
        # C-level sum over the per-node SoA array — no view-object walk
        # on the periodic tick.
        return sum(self.system.stats._ns_nacks_received)

    def _tick(self) -> None:
        self.ticks += 1
        self._ev = None
        system = self.system
        sim = self.sim
        done = system._done_count
        if done == system.config.num_nodes:
            return  # finished between the last tick and this one
        commits = system.stats.tx_committed
        if commits != self._last_commits or done != self._last_done:
            self._progress_cycle = sim.now
            self._last_commits = commits
            self._last_done = done
            self._nacks_at_progress = self._nacks_total()
        if sim.live_events == 0:
            # our own tick already executed: nothing else is scheduled,
            # ever — true quiescence with unfinished nodes
            raise StallError(self.make_report(
                "deadlock",
                "event heap quiesced with nodes unfinished (a message "
                "or completion the protocol is waiting on will never "
                "arrive)"))
        stalled_for = sim.now - self._progress_cycle
        if stalled_for >= self.config.progress_window:
            window_nacks = self._nacks_total() - self._nacks_at_progress
            if window_nacks >= self.config.livelock_nack_floor:
                raise StallError(self.make_report(
                    "livelock",
                    f"no commit or node completion for {stalled_for} "
                    f"cycles while {window_nacks} NACKs circulated "
                    f"(retry/backoff cycle not converging)"))
            raise StallError(self.make_report(
                "no-progress",
                f"no commit or node completion for {stalled_for} cycles "
                f"({window_nacks} NACKs in the window)"))
        self._ev = sim.schedule(self.config.check_interval, self._tick,
                                owner=self._key)

    # ------------------------------------------------------------------
    def make_report(self, kind: str, detail: str) -> StallReport:
        system = self.system
        stats = system.stats
        outstanding = tuple(
            (node.node, node.mshr.addr, node.mshr.req_id)
            for node in system.nodes if node.mshr is not None)
        faults: Dict[str, int] = {}
        injector = getattr(system, "fault_injector", None)
        if injector is not None:
            faults = injector.summary()
        return StallReport(
            kind=kind,
            cycle=self.sim.now,
            detail=detail,
            nodes_done=system._done_count,
            num_nodes=system.config.num_nodes,
            commits=stats.tx_committed,
            aborts=stats.tx_aborted,
            window_nacks=self._nacks_total() - self._nacks_at_progress,
            live_events=self.sim.live_events,
            outstanding=outstanding,
            faults=faults,
        )
