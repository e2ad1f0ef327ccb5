"""The sanitizer's per-message and per-service checks return early on
the common case; every field they skip past must still be caught, with
the same rule, node and text as the full scan."""

import pytest

from repro.coherence.states import L1State
from repro.network.message import Message, MessageType, field_violations
from repro.sanitize.violations import SanitizerViolation
from repro.sim.config import small_config
from repro.system import System
from repro.workloads.synthetic import make_synthetic_workload


@pytest.fixture(scope="module")
def system():
    cfg = small_config(4).with_puno()
    wl = make_synthetic_workload(num_nodes=4, instances=6, shared_lines=8)
    system = System(cfg, wl, "puno", sanitize=True)
    system.run(max_cycles=5_000_000)
    return system


# one illegal carrier per protocol-extension field, plus a bad count
ILLEGAL = [
    dict(mtype=MessageType.GETS, u_bit=True),
    dict(mtype=MessageType.ACK, t_est=5),
    dict(mtype=MessageType.DATA, mp_bit=True),
    dict(mtype=MessageType.NACK, mp_node=3, mp_bit=True),
    dict(mtype=MessageType.GETX, mp_node=2),
    dict(mtype=MessageType.UNBLOCK, mp_bit=True),
    dict(mtype=MessageType.DATA, sticky=True),
    dict(mtype=MessageType.PUT, committing=True),
    dict(mtype=MessageType.ACK, survivors=(1,)),
    dict(mtype=MessageType.NACK, aborted=True),
    dict(mtype=MessageType.GETS, acks_expected=-1),
]


@pytest.mark.parametrize("fields", ILLEGAL,
                         ids=[next(k for k in f if k != "mtype")
                              for f in ILLEGAL])
def test_each_illegal_field_is_caught(system, fields):
    fields = dict(fields)
    mtype = fields.pop("mtype")
    msg = Message(mtype, 7, 0, 1, **fields)
    problems = field_violations(msg)
    assert problems
    before = system.stats.sanitizer_checks
    with pytest.raises(SanitizerViolation) as exc:
        system.sanitizer.check_message(msg)
    assert exc.value.rule == "message-fields"
    assert exc.value.message == (f"{mtype.name} 0->1: "
                                + "; ".join(problems))
    assert system.stats.sanitizer_checks == before + 1


def test_legal_extension_fields_pass(system):
    legal = [
        Message(MessageType.FWD_GETX, 7, 0, 1, u_bit=True,
                acks_expected=1),
        Message(MessageType.NACK, 7, 1, 0, u_bit=True, t_est=40,
                mp_bit=True),
        Message(MessageType.UNBLOCK, 7, 0, 2, mp_bit=True, mp_node=1,
                survivors=(3,)),
        Message(MessageType.PUT, 7, 0, 2, sticky=True),
        Message(MessageType.ACK, 7, 1, 0, aborted=True),
        Message(MessageType.GETS, 7, 0, 2),
    ]
    before = system.stats.sanitizer_checks
    for msg in legal:
        system.sanitizer.check_message(msg)
    assert system.stats.sanitizer_checks == before + len(legal)


def _pbuffer(system):
    pb = next(p for p in system.punos if p is not None).pbuffer
    saved = (list(pb._priority), list(pb._validity))
    return pb, saved


@pytest.mark.parametrize("node,priority,validity,text", [
    (2, 5, -1, "validity counter -1 outside [0, {vmax}]"),
    (3, 5, 99, "validity counter 99 outside [0, {vmax}]"),
    (1, None, 1, "validity 1 with no recorded priority"),
])
def test_pbuffer_violation_names_the_node(system, node, priority,
                                          validity, text):
    pb, (prio, val) = _pbuffer(system)
    try:
        for n in range(pb.num_nodes):
            pb._priority[n], pb._validity[n] = n + 10, 1
        pb._priority[node], pb._validity[node] = priority, validity
        with pytest.raises(SanitizerViolation) as exc:
            system.sanitizer.check_pbuffer(pb)
        assert exc.value.rule == "pbuffer-validity"
        assert exc.value.node == node
        assert exc.value.message == text.format(
            vmax=pb.config.validity_max)
    finally:
        pb._priority[:], pb._validity[:] = prio, val


def test_clean_pbuffer_with_empty_entries_passes(system):
    pb, (prio, val) = _pbuffer(system)
    try:
        pb._priority[:] = [None] * pb.num_nodes
        pb._validity[:] = [0] * pb.num_nodes
        pb._priority[0], pb._validity[0] = 4, pb.config.validity_max
        system.sanitizer.check_pbuffer(pb)
    finally:
        pb._priority[:], pb._validity[:] = prio, val


def test_check_line_leaves_l1_lru_untouched(system):
    def lru_state():
        return [(n.l1._tick, {a: line.lru for cset in n.l1._sets
                              for a, line in cset.items()})
                for n in system.nodes]

    before = lru_state()
    checks = system.stats.sanitizer_checks
    lines = 0
    for directory in system.directories:
        for addr, entry in directory.entries.items():
            system.sanitizer.check_line(directory, addr, entry)
            lines += 1
    assert lines
    assert system.stats.sanitizer_checks == checks + lines
    assert lru_state() == before


@pytest.mark.parametrize("state", [L1State.E, L1State.M])
def test_check_line_counts_e_and_m_copies_as_owners(state):
    cfg = small_config(4).with_puno()
    wl = make_synthetic_workload(num_nodes=4, instances=6, shared_lines=8)
    fresh = System(cfg, wl, "puno", sanitize=True)
    fresh.run(max_cycles=5_000_000)
    directory = fresh.directories[0]
    addr, entry = next((a, e) for a, e in directory.entries.items()
                       if not e.blocked)
    fresh.nodes[1].l1.install(addr, state, 0)
    fresh.nodes[2].l1.install(addr, state, 0)
    with pytest.raises(SanitizerViolation) as exc:
        fresh.sanitizer.check_line(directory, addr, entry)
    assert exc.value.rule == "mesi-single-owner"
    assert exc.value.message.startswith("multiple E/M copies at nodes")
