"""Periodic sampling of run statistics.

A :class:`TimeSeriesSampler` snapshots the aggregate counters every
``interval`` cycles while a simulation runs, giving the time dynamics
behind the end-of-run numbers — e.g. how the abort rate evolves as a
workload's hot phase passes, or how PUNO's unicast coverage warms up
with the P-Buffer.

Attach via ``System(..., sampler=TimeSeriesSampler(interval=1000))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import INSTRUMENT, SAMPLER, Simulator
from repro.sim.stats import Stats


@dataclass(frozen=True)
class Sample:
    cycle: int
    commits: int
    aborts: int
    attempts: int
    traffic: int
    unicasts: int
    stall_cycles: int

    def abort_rate(self) -> float:
        return self.aborts / self.attempts if self.attempts else 0.0


class TimeSeriesSampler:
    """Samples Stats every ``interval`` cycles until stopped."""

    def __init__(self, interval: int = 1000):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.samples: List[Sample] = []
        self._active = False
        self._sim: Optional[Simulator] = None
        self._stats: Optional[Stats] = None
        self._key = 0

    # ------------------------------------------------------------------
    def attach(self, sim: Simulator, stats: Stats) -> None:
        self._sim = sim
        self._stats = stats
        self._active = True
        self._key = sim.owner_key(INSTRUMENT, SAMPLER)
        sim.call_later(self.interval, self._tick, owner=self._key)

    def stop(self) -> None:
        """Take one final sample and stop rescheduling."""
        if self._active:
            self._snapshot()
        self._active = False

    def _tick(self) -> None:
        if not self._active:
            return
        self._snapshot()
        assert self._sim is not None
        self._sim.call_later(self.interval, self._tick, owner=self._key)

    def _snapshot(self) -> None:
        s = self._stats
        assert s is not None and self._sim is not None
        self.samples.append(Sample(
            cycle=self._sim.now,
            commits=s.tx_committed,
            aborts=s.tx_aborted,
            attempts=s.tx_attempts,
            traffic=s.flit_router_traversals,
            unicasts=s.puno_unicasts,
            stall_cycles=sum(n.stall_cycles for n in s.nodes),
        ))

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def deltas(self) -> List[Dict[str, float]]:
        """Per-interval rates (differences between samples)."""
        out: List[Dict[str, float]] = []
        prev: Optional[Sample] = None
        for s in self.samples:
            if prev is not None:
                dt = s.cycle - prev.cycle
                if dt > 0:
                    out.append({
                        "cycle": s.cycle,
                        "commits_per_kcycle":
                            1000 * (s.commits - prev.commits) / dt,
                        "aborts_per_kcycle":
                            1000 * (s.aborts - prev.aborts) / dt,
                        "traffic_per_cycle":
                            (s.traffic - prev.traffic) / dt,
                    })
            prev = s
        return out

    def column(self, name: str) -> List[float]:
        return [getattr(s, name) for s in self.samples]
