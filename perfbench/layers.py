"""Layer-boundary tracing for the traced benchmark pass.

Nothing here runs unless :func:`install` is called, and only the traced
pass calls it: untraced passes execute the simulator exactly as shipped.

:class:`LayerClock` folds spans on the fly into per-layer count, total
time and self time (a span's duration minus the part of it covered by
child spans), so memory stays bounded however many events a run has.
:func:`install` wraps the public boundaries of each layer at class
level, before any :class:`~repro.system.System` is built, so bound
methods that components cache at construction pick up the wrappers:

* the engine scheduling API (``Simulator.schedule``/``call_later``);
  every callback it queues is dispatched through a wrapper that
  attributes the event and its self time to the callback's owner class;
* ``Network.send`` (its table and computed variants); message
  deliveries, which ``Network`` pushes onto the heap inline, are
  attributed by wrapping the endpoint handler tables ``System`` wires
  (see :func:`wrap_endpoints`);
* ``DirectoryPUNO``'s public methods, the sanitizer hooks and
  ``Tracer.emit``.

Cell-level spans (generation, wiring, run, audits, digest) are timed by
the pass itself through :meth:`LayerClock.cell_span` and kept in memory
with the cell id as their trace id.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

#: Heap-callback owner module prefix -> (self-time layer, event bucket).
#: The buckets are the ``sim.events.*`` metrics; the instrumentation
#: owners (watchdog, sampler) share the ``instrument`` bucket, and
#: message deliveries fill the ``network`` bucket (wrap_endpoints).
#: An owner outside this table fails the cell instead of being guessed.
OWNER_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.htm.", "htm", "htm"),
    ("repro.coherence.", "coherence", "coherence"),
    ("repro.core.", "core", "core"),
    ("repro.sim.watchdog", "watchdog", "instrument"),
    ("repro.analysis.timeseries", "trace", "instrument"),
)

EVENT_BUCKETS = ("network", "htm", "coherence", "core", "instrument")

#: Marker set on every wrapper so tests and the untraced pass can prove
#: that no wrapper is installed.
MARK = "__perfbench_wrapped__"


def owner_layer(fn: Callable) -> Tuple[str, str]:
    """(self-time layer, event bucket) of a heap callback's owner."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else fn.__module__
    for prefix, layer, bucket in OWNER_LAYERS:
        if module.startswith(prefix):
            return layer, bucket
    raise KeyError(f"no layer for heap callback {fn!r} ({module})")


class LayerClock:
    """Per-layer span folding: count, total seconds, self seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # layer -> [count, total, self]; frames hold [child seconds]
        self.acc: Dict[str, List[float]] = {}
        self.stack: List[List[float]] = []
        self.events: Dict[str, int] = dict.fromkeys(EVENT_BUCKETS, 0)
        self.cell_spans: List[Dict[str, object]] = []
        self._slots: Dict[type, Tuple[List[float], str]] = {}

    def layer(self, name: str) -> List[float]:
        acc = self.acc.get(name)
        if acc is None:
            acc = self.acc[name] = [0, 0.0, 0.0]
        return acc

    def _close(self, acc: List[float], frame: List[float],
               t0: float) -> None:
        dur = self.clock() - t0
        self.stack.pop()
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of layer ``name`` per call."""
        acc = self.layer(name)
        stack, clock, close = self.stack, self.clock, self._close

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(acc, frame, t0)

        setattr(wrapped, MARK, fn)
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    def slot(self, fn: Callable, bucket: Optional[str] = None
             ) -> Tuple[List[float], str]:
        """Accumulator and event bucket for one heap callback."""
        owner = getattr(fn, "__self__", None)
        key = type(owner) if owner is not None else fn
        hit = self._slots.get(key) if bucket is None else None
        if hit is None:
            layer, own_bucket = owner_layer(fn)
            hit = (self.layer(layer), bucket or own_bucket)
            if bucket is None:
                self._slots[key] = hit
        return hit

    def dispatch(self, slot: Tuple[List[float], str], fn: Callable,
                 args: tuple) -> None:
        """Run one heap event, counting it under its bucket."""
        acc, bucket = slot
        self.events[bucket] += 1
        frame = [0.0]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            fn(*args)
        finally:
            self._close(acc, frame, t0)

    def cell_span(self, trace_id: str, name: str, layer: str,
                  fn: Callable, *args, **kwargs):
        """Run ``fn`` as a recorded cell-level span of ``layer``."""
        start = self.clock()
        try:
            return self.wrap(layer, fn)(*args, **kwargs)
        finally:
            self.cell_spans.append({"trace_id": trace_id, "name": name,
                                    "layer": layer, "start": start,
                                    "end": self.clock()})

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {name: {"count": int(a[0]), "total_s": a[1], "self_s": a[2]}
                for name, a in sorted(self.acc.items())}


def _patch(cls, attr: str, wrapper: Callable,
           undo: List[Tuple[type, str, Callable]]) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, wrapper)


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap every layer boundary at class level; returns the undo."""
    from repro.core.puno import DirectoryPUNO
    from repro.network.network import Network
    from repro.sanitize.sanitizer import ProtocolSanitizer
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

    undo: List[Tuple[type, str, Callable]] = []
    dispatch = clock.dispatch
    slot = clock.slot
    schedule, call_later = Simulator.schedule, Simulator.call_later

    def traced_schedule(self, delay, fn, *args, **kwargs):
        return schedule(self, delay, dispatch, slot(fn), fn, args, **kwargs)

    def traced_call_later(self, delay, fn, *args, **kwargs):
        return call_later(self, delay, dispatch, slot(fn), fn, args,
                          **kwargs)

    _patch(Simulator, "schedule", clock.wrap("sim", traced_schedule), undo)
    _patch(Simulator, "call_later", clock.wrap("sim", traced_call_later),
           undo)
    for attr in ("_send_fast", "_send_computed"):
        _patch(Network, attr, clock.wrap("network", Network.__dict__[attr]),
               undo)
    for attr in ("observe_request", "predict_unicast",
                 "feedback_mispredict", "after_service"):
        _patch(DirectoryPUNO, attr,
               clock.wrap("core", DirectoryPUNO.__dict__[attr]), undo)
    for attr, fn in list(vars(ProtocolSanitizer).items()):
        if attr.startswith("check_") or attr in ("queue_line_check",
                                                 "_post_event"):
            _patch(ProtocolSanitizer, attr, clock.wrap("sanitize", fn), undo)
    _patch(Tracer, "emit", clock.wrap("trace", Tracer.__dict__["emit"]),
           undo)

    def uninstall() -> None:
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)

    return uninstall


def wrap_endpoints(clock: LayerClock, network) -> None:
    """Route each message delivery through the dispatch wrapper.

    ``Network`` pushes deliveries onto the heap itself, so they never
    pass through the scheduling API: every delivery is counted in the
    ``network`` event bucket, and its self time goes to the layer of
    the controller that handles it.
    """
    handlers = network._handlers
    dispatch = clock.dispatch
    for i, handler in enumerate(handlers):
        if handler is None:
            continue
        handlers[i] = _delivery(dispatch, clock.slot(handler, "network"),
                                handler)


def _delivery(dispatch, slot, handler):
    def deliver(msg):
        dispatch(slot, handler, (msg,))
    setattr(deliver, MARK, handler)
    return deliver


def installed() -> List[str]:
    """Names of the layer boundaries that currently carry a wrapper."""
    import repro.analysis.parallel as parallel
    import repro.analysis.sweep as sweep
    from repro.core.puno import DirectoryPUNO
    from repro.network.network import Network
    from repro.sanitize.sanitizer import ProtocolSanitizer
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer
    owners = (Simulator, Network, DirectoryPUNO, ProtocolSanitizer, Tracer,
              sweep, parallel)
    return [f"{owner.__name__}.{attr}"
            for owner in owners
            for attr, value in vars(owner).items()
            if callable(value) and hasattr(value, MARK)]
