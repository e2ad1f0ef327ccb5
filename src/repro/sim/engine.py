"""Discrete-event simulation engine.

A single global clock measured in CPU cycles.  Events are callbacks
scheduled at absolute times.  The engine is deliberately minimal — the
whole simulator is built out of components that schedule follow-up work
on each other, which keeps the hot path (one heap push/pop per event)
cheap enough for multi-million-event runs in pure Python.

Same-cycle order
----------------

The paper's timing model fixes only the cycle of each action; the order
among events of one cycle is the engine's to declare.  It is a function
of each event's identity, never of when it was scheduled relative to
other components' events:

1. its *class*: :data:`NET` (message deliveries), then :data:`DIR`
   (directory services), then :data:`CORE` (node program steps), then
   :data:`INSTRUMENT` (watchdog, sampler, injected stalls, and every
   event scheduled without an owner);
2. its *owner* within the class, ascending: the link ``src * N + dst``
   for deliveries, the node id for directory and core events;
3. FIFO among one owner's events.

A component obtains its owner key once, at wiring time, from
:meth:`Simulator.owner_key` — which rejects an owner id the encoding
cannot hold — and passes it as ``owner=`` on every schedule.  The key is
``((cls << OWNER_BITS) + owner) << SEQ_BITS`` plus the global schedule
counter in the low bits: within one owner the counter orders events
exactly as a per-owner counter would, and across owners the high bits
decide before the counter can, at the cost of one int add per schedule.

Hot-path notes
--------------

* Heap entries are ``(time, key, event_or_None, fn, args)`` tuples:
  heap sifts compare tuples element-wise in C and — because ``key`` is
  unique — never fall through to the later elements, and the run loop
  unpacks the callback straight out of the tuple without touching any
  Python attribute.
* :meth:`Simulator.call_later` schedules a callback with *no* Event
  object at all (the third tuple slot is ``None``).  Callers that never
  cancel — message delivery, directory wakeups — skip one object
  allocation per event, which is the bulk of all events in a run.
* The run loop processes same-cycle deliveries as a batch: the clock is
  committed once per *timestamp*, not once per event, and in limited
  runs the ``until`` horizon is checked once per timestamp too.  Events
  stay in the heap until the instant they execute, so cancellation,
  live-event accounting (the watchdog's quiescence check), and
  exception unwinding all keep their obvious semantics — a batch is a
  property of the dispatch order, not a side buffer.
* The engine tracks the number of *live* (non-cancelled) queued events,
  so :meth:`Simulator.idle` is O(1) instead of an O(n) heap scan.
* Cancelled events normally stay in the heap until they surface at the
  top, but once they exceed half the heap (and a small absolute floor)
  the heap is compacted in place — long runs with heavy
  cancel-and-reschedule traffic (node timeouts) no longer
  drag a tail of dead entries through every sift.
* ``schedule`` validation (negative-delay check, int coercion) can be
  skipped by running ``python -O`` or setting ``REPRO_ENGINE_FAST=1``;
  every internal caller passes non-negative ints, so release runs take
  the fast path.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, List, Optional, Tuple

# Validation is on by default (and under pytest); `python -O` or
# REPRO_ENGINE_FAST=1 drops it from the per-schedule hot path.
_VALIDATE = __debug__ and os.environ.get("REPRO_ENGINE_FAST", "0") != "1"

# Compact the heap when cancelled entries outnumber live ones and
# there are at least this many of them (avoids churn on tiny heaps).
_PURGE_FLOOR = 64

# Budget sentinel for run(max_events=None): large enough that no run
# can exhaust it, so the loop needs no per-event None check.
_NO_BUDGET = 1 << 62

#: Same-cycle event classes, in the order they run (module docstring).
NET, DIR, CORE, INSTRUMENT = 0, 1, 2, 3
#: Owner ids per class: 2**24 covers every link of a 4096-node mesh.
OWNER_BITS = 24
#: Low bits of the key: the global schedule counter (2**40 events).
SEQ_BITS = 40
#: Key of events scheduled without an owner: FIFO among themselves,
#: after every owned event of their cycle.
UNOWNED = (INSTRUMENT << OWNER_BITS) << SEQ_BITS
#: Owner ids within :data:`INSTRUMENT` (0 is the unowned key above).
WATCHDOG, SAMPLER, FAULT_STALL = 1, 2, 3


class Event:
    """A cancellation handle for a scheduled callback.

    Events are comparable by ``(time, key)``: the declared same-cycle
    order of the module docstring.  The heap itself stores ``(time,
    key, event, fn, args)`` tuples so sift comparisons resolve on the leading ints without calling back into
    Python, and the run loop dispatches from the tuple — the Event
    object only carries the ``cancelled`` flag and the live-count
    backref.
    """

    __slots__ = ("time", "key", "fn", "args", "cancelled", "sim")

    def __init__(self, time: int, key: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...], sim: "Optional[Simulator]" = None):
        self.time = time
        self.key = key
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim  # backref for live-event accounting; None once run

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it surfaces.

        Idempotent; cancelling an event that already executed is a
        no-op (the engine drops its backref on execution).
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._on_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.key) < (other.time, other.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} key={self.key:#x} {name}{flag}>"


class Simulator:
    """Binary-heap event loop with an integer cycle clock."""

    __slots__ = ("now", "_heap", "_seq", "_running", "events_processed",
                 "_live", "_cancelled_in_heap")

    def __init__(self) -> None:
        self.now: int = 0
        # entries are (time, key, Event-or-None, fn, args); key
        # uniqueness means tuple comparison never reaches element 2
        self._heap: List[Tuple[int, int, Optional[Event],
                               Callable[..., Any], Tuple[Any, ...]]] = []
        self._seq: int = 0
        self._running = False
        self.events_processed: int = 0
        # live = queued and not cancelled; cancelled entries still in
        # the heap are tracked separately to drive lazy compaction.
        self._live: int = 0
        self._cancelled_in_heap: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def owner_key(self, cls: int, owner: int) -> int:
        """Key base for ``owner``'s events of class ``cls``.

        Components call this once at wiring time and pass the result as
        ``owner=`` to :meth:`schedule`/:meth:`call_later`; an id the
        encoding cannot hold raises here, not mid-run.  Owner ids are
        ascending in the base: ``owner_key(c, o + 1) - owner_key(c, o)``
        is the same for every ``o``, so a component with dense owner ids
        (the network's links) can derive each key from two of them.
        """
        if cls not in (NET, DIR, CORE, INSTRUMENT):
            raise ValueError(f"unknown event class {cls}")
        if not 0 <= owner < 1 << OWNER_BITS:
            raise ValueError(f"owner id {owner} outside the same-cycle "
                             f"key's range [0, {1 << OWNER_BITS})")
        return ((cls << OWNER_BITS) + owner) << SEQ_BITS

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any,
                 owner: int = UNOWNED, _validate: bool = _VALIDATE) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the
        current cycle, after the owner's already-queued same-cycle
        events.  ``owner`` is a key from :meth:`owner_key`.
        """
        if _validate:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            delay = int(delay)
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        key = owner + seq
        ev = Event(time, key, fn, args, self)
        self._live += 1
        heapq.heappush(self._heap, (time, key, ev, fn, args))
        return ev

    def call_later(self, delay: int, fn: Callable[..., Any], *args: Any,
                   owner: int = UNOWNED,
                   _validate: bool = _VALIDATE) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        Identical ordering semantics to :meth:`schedule`, but the heap
        entry carries no Event object — one allocation less per event.
        Use for callbacks that are never cancelled (message delivery,
        directory wakeups); anything that might need ``cancel()`` must
        go through :meth:`schedule`.
        """
        if _validate:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            delay = int(delay)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap,
                       (self.now + delay, owner + seq, None, fn, args))

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.schedule(time - self.now, fn, *args)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for a still-queued event."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= _PURGE_FLOOR
                and self._cancelled_in_heap * 2 >= len(self._heap)):
            self._purge()

    def _purge(self) -> None:
        """Compact the heap in place, dropping cancelled entries.

        Mutates the existing list (slice assignment) so aliases held by
        a running :meth:`run` loop stay valid.
        """
        self._heap[:] = [item for item in self._heap
                         if item[2] is None or not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` cycles pass, or
        ``max_events`` events execute.  Returns the final clock value.

        Clock semantics with both limits: the clock only advances to
        ``until`` when everything scheduled up to ``until`` actually
        executed (cancelled events never count against ``max_events``
        and never hold the clock back); if the event budget expires with
        a live event still pending at or before ``until``, the clock
        stays at the last executed event.
        """
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        try:
            heap = self._heap  # identity-stable: _purge compacts in place
            pop = heapq.heappop
            if until is None and max_events is None:
                # Unbounded drain (the common full-run case): pop
                # directly — no peek, no limit checks per event.  The
                # clock is committed once per timestamp; same-cycle
                # followers only pay a local compare.
                now = self.now
                while heap:
                    item = pop(heap)
                    ev = item[2]
                    if ev is not None:
                        if ev.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        ev.sim = None  # executed: cancel() is a no-op
                    t = item[0]
                    if t != now:
                        self.now = now = t
                    self._live -= 1
                    self.events_processed += 1
                    item[3](*item[4])
                return self.now
            budget = _NO_BUDGET if max_events is None else max_events
            while heap:
                head = heap[0]
                ev = head[2]
                if ev is not None and ev.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                t = head[0]
                if until is not None and t > until:
                    self.now = until
                    break
                if budget <= 0:
                    # live work pending at/before the limit: the clock
                    # must not jump past it
                    break
                # Batch boundary: commit the clock and re-check the
                # horizon once per timestamp, then run every live event
                # at time t (up to the budget) straight off the heap —
                # zero-delay followers scheduled mid-batch join it.
                self.now = t
                while heap and heap[0][0] == t and budget > 0:
                    item = pop(heap)
                    ev = item[2]
                    if ev is not None:
                        if ev.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        ev.sim = None
                    budget -= 1
                    self._live -= 1
                    self.events_processed += 1
                    item[3](*item[4])
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle.

        Delegates to :meth:`run` with a one-event budget so it shares
        the re-entrancy guard and the skip-cancelled logic — a callback
        calling ``step()`` from inside the loop fails loudly instead of
        silently corrupting the clock.
        """
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued non-cancelled events (O(1))."""
        return self._live

    def idle(self) -> bool:
        return self._live == 0
