"""The sanitizer's line checks run at the end of the directory's
UNBLOCK handler: a corruption present there is caught at that cycle,
and an entry the handler re-blocked is checked at its own UNBLOCK."""

import pytest

from repro.coherence.states import L1State
from repro.sanitize.violations import SanitizerViolation
from repro.sim.config import SystemConfig
from repro.system import System
from repro.workloads.stamp import make_stamp_workload


def _contended_system():
    cfg = SystemConfig(seed=1).with_puno()
    wl = make_stamp_workload("intruder", num_nodes=16, scale=0.1, seed=0)
    return System(cfg, wl, "puno", sanitize=True)


def test_second_owner_left_in_an_unblock_handler_is_caught_there():
    system = _contended_system()
    planted = {}
    for directory in system.directories:
        def corrupting_finish(msg, entry, rec,
                              _finish=directory._finish_unblock):
            # once, on a successful GETX whose entry stays open: plant
            # a second exclusive copy while the handler runs
            if (not planted and rec.kind == "getx" and msg.success
                    and not entry.waitq):
                other = next(n for n in system.nodes
                             if n.node != msg.requester
                             and n.l1.lookup(msg.addr, touch=False) is None)
                other.l1.install(msg.addr, L1State.M, 0)
                planted.update(cycle=system.sim.now, addr=msg.addr)
            _finish(msg, entry, rec)
        directory._finish_unblock = corrupting_finish

    with pytest.raises(SanitizerViolation) as exc:
        system.run(max_cycles=200_000_000)
    assert planted
    assert exc.value.rule == "mesi-single-owner"
    assert exc.value.cycle == planted["cycle"]
    assert exc.value.addr == planted["addr"]


def test_reblocked_entry_is_skipped_and_checked_at_its_own_unblock():
    system = _contended_system()
    san = system.sanitizer
    checked = set()  # (cycle, addr) of every check_line call
    check_line = san.check_line

    def recording_check_line(directory, addr, entry=None):
        checked.add((system.sim.now, addr))
        check_line(directory, addr, entry)

    san.check_line = recording_check_line
    finishes = []  # (cycle, addr, service finished, service now blocking)
    for directory in system.directories:
        def recording_finish(msg, entry, rec, _finish=directory._finish_unblock):
            _finish(msg, entry, rec)
            finishes.append((system.sim.now, msg.addr, rec, entry.service))
        directory._finish_unblock = recording_finish

    system.run(max_cycles=200_000_000)
    finished = {id(rec): (cycle, addr) for cycle, addr, rec, _ in finishes}
    reblocked = [(cycle, addr, nxt) for cycle, addr, _, nxt in finishes
                 if nxt is not None]
    assert reblocked, "no UNBLOCK restarted a queued service"
    own_unblocks = 0
    for cycle, addr, nxt in reblocked:
        # skipped at the UNBLOCK that restarted the queued service ...
        assert (cycle, addr) not in checked
        # ... and checked when that service's own UNBLOCK settles it
        if id(nxt) in finished:
            later_cycle, later_addr = finished[id(nxt)]
            assert later_addr == addr and later_cycle > cycle
            if not any(n is not None for c, a, _, n in finishes
                       if (c, a) == (later_cycle, later_addr)):
                assert (later_cycle, addr) in checked
                own_unblocks += 1
    assert own_unblocks > 0
