"""Honest peak resident memory from ``/proc``.

``ru_maxrss`` survives ``execve`` on Linux, so a child started from a
large parent reports the parent's high-water mark.  ``VmHWM`` belongs
to the address space and is reset by ``execve``, so each measured
process reads its own.  Pool workers cannot report themselves, so the
launcher polls ``VmHWM`` of every descendant of the measured process
while it runs (:class:`PeakWatcher`) and takes the maximum.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List, Optional


def vmhwm_kb(pid: object = "self") -> Optional[int]:
    """Peak resident set of ``pid`` in KiB, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def _parent_map() -> Dict[int, int]:
    """pid -> ppid for every process visible in /proc."""
    out: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        # the command name may hold spaces or parentheses: split after
        # the last ')'; the field after the state letter is the ppid
        fields = stat[stat.rfind(")") + 2:].split()
        out[int(entry)] = int(fields[1])
    return out


def descendants(root: int) -> List[int]:
    parents = _parent_map()
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        kids = [c for c, p in parents.items() if p == pid]
        found.extend(kids)
        frontier.extend(kids)
    return found


class PeakWatcher:
    """Polls the ``VmHWM`` of every descendant of ``root``."""

    def __init__(self, root: int, interval: float = 0.25):
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self.pids_seen: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "PeakWatcher":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in descendants(self.root):
                kb = vmhwm_kb(pid)
                if kb is not None:
                    self.pids_seen.add(pid)
                    self.peak_kb = max(self.peak_kb, kb)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def stop_all(pids, timeout: float = 10.0) -> None:
    """Kill every process in ``pids`` still running, then wait until
    each has ended (a zombie has ended; its parent reaps it)."""
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
