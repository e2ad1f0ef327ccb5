"""Compact trace rows: the positional ``msg``/``dir`` recorders and the
``Tracer.events`` view must reproduce, byte for byte, what per-record
``emit`` calls stored."""

import gc
import hashlib
from collections import Counter

import pytest

from repro.coherence.dirstore import DirEntry
from repro.coherence.states import DirState
from repro.network.message import Message, MessageType
from repro.scenarios.golden import GOLDEN_MAX_CYCLES, GOLDEN_NODES, \
    GOLDEN_SCALE, GOLDEN_SEED
from repro.sim import trace as trace_mod
from repro.sim.config import SystemConfig
from repro.sim.trace import TraceEvent, Tracer
from repro.system import System
from repro.workloads.stamp import make_stamp_workload


def _golden_intruder_puno(tracer):
    """The intruder/puno golden-tour cell, sanitized and traced."""
    cfg = SystemConfig(seed=GOLDEN_SEED + 1).with_puno()
    wl = make_stamp_workload("intruder", num_nodes=GOLDEN_NODES,
                             scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    system = System(cfg, wl, "puno", sanitize=True, trace=tracer)
    system.run(max_cycles=GOLDEN_MAX_CYCLES)
    return system


def _jsonl(tracer, tmp_path, name="trace.jsonl"):
    path = tmp_path / name
    n = tracer.write_jsonl(path)
    return path, n, path.read_bytes()


# (categories, limit) -> (stored, dropped, counts, sha256 of write_jsonl),
# first recorded with per-record emit() calls before the compact rows
# existed, re-pinned once when same-cycle order became a declared key
# (repro.sim.engine); the recorders are checked against emit() below.
PINNED = {
    (None, None): (
        6720, 0, {"tx": 474, "msg": 4712, "dir": 1403, "puno": 131},
        "3d5d3f504aea41a31126f35a185e64797746abed0d3af8778ac71d54bb72bed2"),
    (("msg", "dir", "puno"), 3000): (
        3000, 3246, {"msg": 4712, "dir": 1403, "puno": 131},
        "9474bdf4ea2c528a06d81437c6684829ccff981d5e17db4ac524cb0f1de5fa6d"),
    (("dir",), 500): (
        500, 903, {"dir": 1403},
        "b5ebe172ea8d56ac38665bb5fcbcca2b54b42017e98a27c8f71ab9efd537fa1a"),
}


@pytest.mark.parametrize("categories,limit", list(PINNED))
def test_golden_cell_trace_pinned(categories, limit, tmp_path):
    stored, dropped, counts, sha = PINNED[categories, limit]
    tracer = Tracer(categories=categories, limit=limit)
    system = _golden_intruder_puno(tracer)
    assert system.stats.sanitizer_checks == 9556
    assert len(tracer.events) == stored
    assert tracer.dropped == dropped
    assert isinstance(tracer.counts, Counter)
    # same values and the same insertion order as per-record emit()
    assert list(tracer.counts.items()) == list(counts.items())
    path, n, data = _jsonl(tracer, tmp_path)
    assert n == stored
    assert hashlib.sha256(data).hexdigest() == sha

    clone = Tracer.from_jsonl(path)
    assert len(clone.events) == stored
    assert clone.dropped == 0
    assert clone.counts == Counter(ev.category for ev in tracer.events)
    _, _, again = _jsonl(clone, tmp_path, "again.jsonl")
    assert again == data
    assert ([ev.as_dict() for ev in clone.events]
            == [ev.as_dict() for ev in tracer.events])


# ---------------------------------------------------------------------
# the recorders against emit()
# ---------------------------------------------------------------------

def test_record_msg_matches_emit():
    msg = Message(MessageType.NACK, 12, 3, 5, requester=5, req_id=1,
                  u_bit=True, mp_bit=True)
    rows, emitted = Tracer(), Tracer()
    rows.record_msg(40, msg)
    emitted.emit("msg", 40, type="NACK", addr=12, src=3, dst=5, req=5,
                 u=True, mp=True)
    assert repr(rows.events[0]) == repr(emitted.events[0])
    assert rows.events[0].as_dict() == emitted.events[0].as_dict()
    assert list(rows.events[0].fields) == list(emitted.events[0].fields)


def test_record_dir_matches_emit():
    msg = Message(MessageType.GETX, 64, 2, 0, requester=2, req_id=7)
    entry = DirEntry()
    entry.state = DirState.S
    entry.sharers = 0b1011
    rows, emitted = Tracer(), Tracer()
    rows.record_dir(9, 0, msg, entry)
    emitted.emit("dir", 9, event="service", home=0, type="GETX", addr=64,
                 req=2, state="S", sharers=3)
    assert rows.events[0].as_dict() == emitted.events[0].as_dict()
    assert list(rows.events[0].fields) == list(emitted.events[0].fields)


def test_rows_hold_no_live_objects():
    """A row is a snapshot: mutating or recycling the message and the
    entry afterwards leaves the record as it was."""
    msg = Message(MessageType.GETS, 8, 1, 0, requester=1, req_id=2)
    entry = DirEntry()
    tracer = Tracer()
    tracer.record_msg(1, msg)
    tracer.record_dir(2, 0, msg, entry)
    before = [ev.as_dict() for ev in tracer.events]
    msg.mtype, msg.addr, msg.u_bit = MessageType.GETX, 99, True
    entry.state, entry.sharers = DirState.M, 0b111
    assert [ev.as_dict() for ev in tracer.events] == before
    for row in tracer._rows:
        assert all(type(v) in (int, bool, str) for v in row)
    gc.collect()
    assert not any(gc.is_tracked(row) for row in tracer._rows)


def test_recorders_filter_bound_and_count():
    msg = Message(MessageType.GETS, 8, 1, 0, requester=1, req_id=2)
    entry = DirEntry()
    tracer = Tracer(categories=("dir", "tx"), limit=3)
    tracer.record_msg(1, msg)  # filtered: not counted, not stored
    for t in range(2, 6):
        tracer.record_dir(t, 0, msg, entry)
    tracer.emit("tx", 6, event="begin")
    assert len(tracer.events) == 3
    assert tracer.dropped == 2
    assert tracer.counts == {"dir": 4, "tx": 1}
    assert [ev.time for ev in tracer.events] == [2, 3, 4]


# ---------------------------------------------------------------------
# the events view
# ---------------------------------------------------------------------

def _mixed_tracer():
    msg = Message(MessageType.GETX, 4, 1, 2, requester=1, req_id=0)
    entry = DirEntry()
    tracer = Tracer()
    tracer.emit("tx", 1, event="begin", node=1)
    tracer.record_msg(2, msg)
    tracer.record_dir(3, 2, msg, entry)
    tracer.emit("tx", 4, event="abort", node=1, cause="getx_conflict")
    return tracer


def test_events_len_never_materializes(monkeypatch):
    tracer = _mixed_tracer()

    def boom(row):
        raise AssertionError("len() materialized a row")

    monkeypatch.setattr(trace_mod, "_materialize", boom)
    assert len(tracer.events) == 4


def test_events_view_indexing_slicing_iteration():
    tracer = _mixed_tracer()
    events = tracer.events
    assert [ev.category for ev in events] == ["tx", "msg", "dir", "tx"]
    assert events[1].fields["type"] == "GETX"
    assert events[-1].fields["cause"] == "getx_conflict"
    assert [ev.time for ev in events[1:3]] == [2, 3]
    assert all(isinstance(ev, TraceEvent) for ev in events[:])
    assert len(list(reversed(events))) == 4
    with pytest.raises(IndexError):
        events[4]
    assert not hasattr(events, "append")
    with pytest.raises(AttributeError):
        tracer.events = []


def test_queries_over_mixed_rows():
    tracer = _mixed_tracer()
    assert [ev.time for ev in tracer.filter("dir", home=2)] == [3]
    assert [ev.time for ev in tracer.filter(addr=4)] == [2, 3]
    assert "type=GETX" in tracer.text(category="msg")
    assert tracer.conflict_chains() == [
        (4, {"event": "abort", "node": 1, "cause": "getx_conflict"})]
