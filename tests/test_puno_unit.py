"""Unit tests for the directory-side PUNO unit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import DirEntry
from repro.core.bitset import mask_of
from repro.core.puno import DirectoryPUNO
from repro.network.message import Message, MessageType, TxTag
from repro.sim.config import PUNOConfig
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


@pytest.fixture
def unit():
    sim = Simulator()
    stats = Stats(4)
    cfg = PUNOConfig(enabled=True, min_nacker_length=0)
    puno = DirectoryPUNO(sim, 4, cfg, stats)
    return sim, puno, stats


def _getx(src, ts, length_hint=0):
    return Message(MessageType.GETX, 0, src, 0, requester=src, req_id=1,
                   tx=TxTag(src, ts, 0, length_hint))


def _entry(sharers, readers=None, ud=None):
    e = DirEntry()
    e.sharers = mask_of(sharers)
    e.tx_readers = dict(readers or {})
    e.ud = ud
    return e


def test_observe_updates_pbuffer(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    assert puno.pbuffer.priority(1) == 10
    assert stats.puno_pbuffer_updates == 1


def test_observe_ignores_non_transactional(unit):
    sim, puno, stats = unit
    puno.observe_request(Message(MessageType.GETX, 0, 1, 0))
    assert stats.puno_pbuffer_updates == 0


def test_predict_unicast_to_older_sharer(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=5))
    entry = _entry({2, 3}, readers={2: 5}, ud=2)
    target = puno.predict_unicast(entry, _getx(1, ts=50), (2, 3))
    assert target == 2


def test_no_unicast_when_requester_older(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=50))
    entry = _entry({2}, readers={2: 50}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=5), (2,)) is None
    assert stats.puno_declines["requester_older"] == 1


def test_fallback_recompute_when_ud_is_requester(unit):
    """The stored pointer may name the (upgrading) requester; the unit
    re-derives the best candidate among the actual targets."""
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=5))
    puno.observe_request(_getx(2, ts=10))
    entry = _entry({1, 2}, readers={1: 5, 2: 10}, ud=1)
    target = puno.predict_unicast(entry, _getx(1, ts=5), (2,))
    assert target is None  # node 2 is younger than the requester
    entry2 = _entry({1, 2}, readers={1: 5, 2: 10}, ud=2)
    target2 = puno.predict_unicast(entry2, _getx(2, ts=10), (1,))
    assert target2 == 1


def test_epoch_mismatch_blocks_unicast(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=99))  # node 2 now on a new tx
    entry = _entry({2}, readers={2: 5}, ud=2)  # read was under ts=5
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None


def test_short_nacker_gate():
    sim = Simulator()
    stats = Stats(4)
    cfg = PUNOConfig(enabled=True, min_nacker_length=200)
    puno = DirectoryPUNO(sim, 4, cfg, stats)
    puno.observe_request(_getx(2, ts=5, length_hint=50))
    entry = _entry({2}, readers={2: 5}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None
    assert stats.puno_declines["short_nacker"] == 1


def test_unicast_disabled(unit):
    sim = Simulator()
    stats = Stats(4)
    puno = DirectoryPUNO(sim, 4, PUNOConfig(enabled=True,
                                            unicast_enabled=False), stats)
    entry = _entry({2}, readers={2: 5}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None
    assert stats.puno_declines["disabled"] == 1


def test_feedback_invalidates(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=5))
    puno.feedback_mispredict(2)
    assert not puno.pbuffer.usable(2)
    assert stats.puno_pbuffer_invalidations == 1


def test_after_service_maintains_ud(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=20))
    puno.observe_request(_getx(2, ts=10))
    entry = _entry({1, 2}, readers={1: 20, 2: 10})
    puno.after_service(entry)
    assert entry.ud == 2


def test_rollover_timeout_decays(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    assert puno.pbuffer.validity(1) == 2
    sim.run(until=10 * puno._timeout_period())
    # the rollover counter ages the P-Buffer when the unit is touched
    puno.after_service(_entry({1}))
    assert puno.pbuffer.validity(1) == 0
    assert stats.puno_timeouts >= 2


def test_rollover_ticks_schedule_no_events(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    assert sim.idle()
    sim.run(until=10 * puno._timeout_period())
    assert sim.events_processed == 0


def test_adaptive_timeout_tracks_length_hints(unit):
    sim, puno, stats = unit
    p0 = puno._timeout_period()
    for _ in range(10):
        puno.observe_request(_getx(1, ts=10, length_hint=100_000))
    assert puno._timeout_period() > p0


def test_fixed_timeout_when_adaptivity_off():
    sim = Simulator()
    puno = DirectoryPUNO(sim, 4, PUNOConfig(enabled=True,
                                            adaptive_timeout=False),
                         Stats(4))
    for _ in range(5):
        puno.observe_request(_getx(1, ts=10, length_hint=10**6))
    assert puno._timeout_period() == puno.config.fixed_timeout


def test_stop_ends_timeout_rescheduling(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    puno.stop()
    sim.run()
    assert sim.idle()
    # a stopped unit ages no more, even when touched much later
    sim.run(until=100 * puno._timeout_period())
    puno.after_service(_entry({1}))
    assert puno.pbuffer.validity(1) == 2
    assert stats.puno_timeouts == 0


@pytest.mark.parametrize("finish_offset, ticks", [(-1, 1), (0, 2), (1, 2)])
def test_stop_applies_a_tick_due_at_the_finish_cycle(finish_offset, ticks):
    """The tie rule at the finish cycle: a tick due exactly when the run
    finishes is applied by the final catch-up in ``stop()``."""
    sim = Simulator()
    stats = Stats(4)
    period = 100
    puno = DirectoryPUNO(sim, 4, PUNOConfig(enabled=True,
                                            adaptive_timeout=False,
                                            fixed_timeout=period), stats)
    puno.observe_request(_getx(1, ts=0))
    puno.observe_request(_getx(1, ts=0))  # validity 3
    sim.run(until=2 * period + finish_offset)
    puno.stop()
    assert stats.puno_timeouts == ticks
    assert puno.pbuffer.validity(1) == 3 - ticks


# ---------------------------------------------------------------------
# lazy aging against the event-driven rollover counter
# ---------------------------------------------------------------------

class _EventAgedPUNO(DirectoryPUNO):
    """Reference model: the rollover counter as one self-rescheduling
    heap event per unit, each tick decaying the P-Buffer once.  The
    lazy catch-up is switched off by parking the next tick at
    infinity."""

    def __init__(self, *args):
        super().__init__(*args)
        self._next_tick = float("inf")
        self._active = True
        self._schedule_timeout()

    def _schedule_timeout(self):
        self.sim.call_later(self._timeout_period(), self._on_timeout)

    def _on_timeout(self):
        if not self._active:
            return
        self.pbuffer.decay()
        self.stats.puno_timeouts += 1
        self._schedule_timeout()

    def stop(self):
        self._active = False


_NODES = 4

_touch = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, _NODES - 1),
              st.integers(0, 60), st.sampled_from([0, 0, 1, 3, 8, 20, 40])),
    st.tuples(st.just("predict"), st.integers(0, _NODES - 1),
              st.integers(0, 60), st.just(0)),
    st.tuples(st.just("feedback"), st.integers(0, _NODES - 1),
              st.just(0), st.just(0)),
    st.tuples(st.just("service"), st.just(0), st.just(0), st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 2, 3, 4, 5, 8, 13, 40]),
                          _touch), max_size=60),
       st.booleans(), st.integers(0, 20), st.integers(0, 20))
def test_lazy_aging_matches_event_driven_ticks(schedule, adaptive,
                                               finish_gap, after_stop):
    """Random touch schedules — same-cycle ties, touches landing exactly
    on tick cycles, adaptive-period changes — leave the lazily aged
    unit identical to the event-driven reference after every touch, at
    ``stop()`` and after it."""
    cfg = PUNOConfig(enabled=True, min_nacker_length=0, min_timeout=2,
                     max_timeout=64, timeout_scale=1.0,
                     adaptive_timeout=adaptive, fixed_timeout=3)
    lazy_sim, ref_sim = Simulator(), Simulator()
    lazy = DirectoryPUNO(lazy_sim, _NODES, cfg, Stats(_NODES))
    ref = _EventAgedPUNO(ref_sim, _NODES, cfg, Stats(_NODES))
    entries = {id(u): _entry(range(_NODES)) for u in (lazy, ref)}
    now = 0

    def same_state():
        assert lazy.pbuffer._validity == ref.pbuffer._validity
        assert lazy.pbuffer._priority == ref.pbuffer._priority
        assert lazy.stats.puno_timeouts == ref.stats.puno_timeouts
        assert lazy.pbuffer.decays == ref.pbuffer.decays
        assert lazy._timeout_period() == ref._timeout_period()

    def advance(to):
        # ticks due at ``to`` run before the touch that follows
        lazy_sim.run(until=to)
        ref_sim.run(until=to)

    for gap, (op, node, ts, hint) in schedule:
        now += gap
        advance(now)
        out = []
        for unit in (lazy, ref):
            entry = entries[id(unit)]
            if op == "observe":
                out.append(unit.observe_request(_getx(node, ts, hint)))
            elif op == "predict":
                targets = tuple(n for n in range(_NODES) if n != node)
                out.append(unit.predict_unicast(entry, _getx(node, ts),
                                                targets))
            elif op == "feedback":
                out.append(unit.feedback_mispredict(node))
            else:
                unit.after_service(entry)
                out.append(entry.ud)
        assert out[0] == out[1]
        same_state()
    now += finish_gap
    advance(now)
    lazy.stop()
    ref.stop()
    same_state()
    advance(now + after_stop)
    for unit in (lazy, ref):
        unit.after_service(entries[id(unit)])
    same_state()
