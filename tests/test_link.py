"""Link model tests: serialization, VC priority, utilization."""

import pytest

from repro.config import LinkClass
from repro.network import Link, MessageClass, Packet
from repro.sim import Simulator


def make_link(sim, bw=3.1, wire=4.0):
    return Link(sim, 0, 1, bw, wire, LinkClass.MODULE)


def test_zero_load_latency_is_wire_plus_serialization():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    pkt = Packet(0, 1, MessageClass.RESPONSE)  # 72 bytes
    link.submit(pkt, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[0] == pytest.approx(4.0 + 72 / 3.1)


def test_cut_through_skips_serialization_after_first_link():
    sim = Simulator()
    link = make_link(sim)
    pkt = Packet(0, 1, MessageClass.RESPONSE)
    pkt.serialized = True  # already paid at injection
    arrivals = []
    link.submit(pkt, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[0] == pytest.approx(4.0)


def test_bandwidth_conservation_under_back_to_back_load():
    sim = Simulator()
    link = make_link(sim, bw=1.0, wire=0.0)  # 1 byte/ns
    done = []
    for _ in range(10):
        link.submit(Packet(0, 1, MessageClass.RESPONSE),
                    lambda p: done.append(sim.now))
    sim.run()
    # 10 x 72 bytes at 1 B/ns: the wire is busy 720 ns.
    assert link.busy_ns_total == pytest.approx(720.0)
    assert sim.now >= 720.0


def test_response_never_blocks_behind_request():
    """The per-class VC invariant from Section 2."""
    sim = Simulator()
    link = make_link(sim, bw=1.0, wire=0.0)
    order = []
    # Fill the link with requests, then submit one response: the
    # response must jump every queued request (but not the in-flight one).
    for i in range(5):
        link.submit(Packet(0, 1, MessageClass.REQUEST, payload=f"req{i}"),
                    lambda p: order.append(p.payload))
    link.submit(Packet(0, 1, MessageClass.RESPONSE, payload="resp"),
                lambda p: order.append(p.payload))
    sim.run()
    assert order[0] == "req0"  # already on the wire
    assert order[1] == "resp"  # drained ahead of req1..req4


def test_drain_priority_full_order():
    sim = Simulator()
    link = make_link(sim, bw=1.0, wire=0.0)
    order = []
    # Block the wire first so everything below queues.
    link.submit(Packet(0, 1, MessageClass.IO, payload="blocker"),
                lambda p: order.append(p.payload))
    for cls, tag in [
        (MessageClass.IO, "io"),
        (MessageClass.REQUEST, "req"),
        (MessageClass.FORWARD, "fwd"),
        (MessageClass.RESPONSE, "resp"),
    ]:
        link.submit(Packet(0, 1, cls, payload=tag),
                    lambda p: order.append(p.payload))
    sim.run()
    assert order == ["blocker", "resp", "fwd", "req", "io"]


def test_backlog_reflects_queued_bytes():
    sim = Simulator()
    link = make_link(sim, bw=1.0, wire=0.0)
    assert link.backlog_ns() == 0.0
    for _ in range(4):
        link.submit(Packet(0, 1, MessageClass.RESPONSE), lambda p: None)
    # One in flight (72 left) + three queued (216 bytes).
    assert link.backlog_ns() == pytest.approx(4 * 72.0)
    assert link.queued_packets() == 3


def test_utilization_window_accounting():
    sim = Simulator()
    link = make_link(sim, bw=1.0, wire=0.0)
    mark = link.busy_ns_total
    link.submit(Packet(0, 1, MessageClass.RESPONSE), lambda p: None)
    sim.run()
    assert link.utilization_since(mark, 144.0) == pytest.approx(0.5)


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        Link(Simulator(), 0, 1, 0.0, 1.0, LinkClass.MODULE)


def test_idle_busy_idle_submission_pattern():
    """Idle wire, then two packets queued behind it, then idle again
    after the drain: every packet pays wire + its own serialization
    (store-and-forward at its first link) after the wire frees."""
    sim = Simulator()
    link = Link(sim, 0, 1, 2.0, 3.0, LinkClass.BACKPLANE)
    arrived = []

    def submit(size, msg_class=MessageClass.RESPONSE):
        link.submit(Packet(0, 1, msg_class, size_bytes=size),
                    lambda p: arrived.append((sim.now, p.size_bytes)))

    submit(64)                          # idle wire
    submit(80)                          # queued behind the 64
    submit(16, MessageClass.REQUEST)    # lower class, queued last
    sim.schedule(200.0, submit, 32)     # idle again after the drain
    sim.run()
    assert arrived == [(35.0, 64), (75.0, 80), (83.0, 16), (219.0, 32)]
    assert link.busy_ns_total == 96.0
    assert link.bytes_total == 192
    assert link.packets_total == 4
    assert link.busy_until == 216.0
    assert sim.events_processed == 9


def test_fifo_ablation_drains_in_arrival_order():
    """class_priority=False collapses the virtual channels into one
    FIFO: the drain order is submission order, whatever the class."""
    sim = Simulator()
    link = Link(sim, 0, 1, 1.0, 0.0, LinkClass.MODULE, class_priority=False)
    order = []
    for cls, tag in [
        (MessageClass.IO, "blocker"),
        (MessageClass.IO, "io"),
        (MessageClass.REQUEST, "req"),
        (MessageClass.FORWARD, "fwd"),
        (MessageClass.RESPONSE, "resp"),
    ]:
        link.submit(Packet(0, 1, cls, payload=tag),
                    lambda p: order.append(p.payload))
    sim.run()
    assert order == ["blocker", "io", "req", "fwd", "resp"]
