"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, order.append, "c")
    sim.schedule(10.0, order.append, "a")
    sim.schedule(20.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30.0


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "on-boundary")
    sim.schedule(10.000001, fired.append, "after")
    sim.run(until=10.0)
    assert fired == ["on-boundary"]
    assert sim.now == 10.0
    sim.run(until=50.0)
    assert fired == ["on-boundary", "after"]
    assert sim.now == 50.0  # clock advances to the window end


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(5.0, fired.append, "x")
    sim.schedule(1.0, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_max_events_limit():
    sim = Simulator()
    count = []

    def reschedule():
        count.append(1)
        sim.schedule(1.0, reschedule)

    sim.schedule(0.0, reschedule)
    sim.run(max_events=100)
    assert len(count) == 100


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_reset_clears_state():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_until_pushback_and_clock_parking():
    """A run stopped by ``until`` fires nothing past the limit, parks
    the clock exactly at ``until``, and a later run() drains the rest
    as if the run had never been split."""
    sim = Simulator()
    fired = []
    for i, delay in enumerate([1.0, 2.0, 7.5, 9.0]):
        sim.post(delay, fired.append, (i, delay))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == [(0, 1.0), (1, 2.0)]
    assert sim.stats() == {"now_ns": 5.0, "events_processed": 2,
                           "events_cancelled": 0, "events_scheduled": 4,
                           "pending": 2}
    sim.run()
    assert sim.now == 9.0
    assert fired == [(0, 1.0), (1, 2.0), (2, 7.5), (3, 9.0)]
    assert sim.stats() == {"now_ns": 9.0, "events_processed": 4,
                           "events_cancelled": 0, "events_scheduled": 4,
                           "pending": 0}


def test_max_events_truncation():
    sim = Simulator()
    fired = []
    for i in range(8):
        sim.post(1.0 + i, fired.append, i)
    sim.run(max_events=3)
    assert sim.now == 3.0
    assert fired == [0, 1, 2]
    assert sim.events_processed == 3
    assert sim.pending == 5


@pytest.mark.parametrize("delay, t_mid, t_end",
                         [(0.0, 0.0, 0.0), (1.0, 4.0, 7.0)],
                         ids=["zero-delay", "positive-delay"])
def test_counters_exact_inside_event_chains(delay, t_mid, t_end):
    """``pending`` and ``stats()`` read from inside a callback are exact,
    for a zero-delay chain (the immediate deque) and a positive-delay
    chain (the heap) alike; a cancelled far-future event keeps the heap
    non-empty throughout and never moves the clock."""
    sim = Simulator()
    samples = []

    def hop(remaining):
        if remaining == 3:
            samples.append((sim.now, sim.pending, sim.stats()))
        if remaining:
            sim.post(delay, hop, remaining - 1)

    sim.post(delay, hop, 6)
    sim.schedule(1e6, lambda: None).cancel()
    sim.run()
    samples.append((sim.now, sim.pending, sim.stats()))
    assert samples == [
        (t_mid, 0, {"now_ns": t_mid, "events_processed": 4,
                    "events_cancelled": 1, "events_scheduled": 5,
                    "pending": 0}),
        (t_end, 0, {"now_ns": t_end, "events_processed": 7,
                    "events_cancelled": 1, "events_scheduled": 8,
                    "pending": 0}),
    ]


def test_has_pending_work_after_mixed_delay_run():
    sim = Simulator()
    for d in (0.0, 0.0, 1.0):
        sim.post(d, lambda: None)
    mid = None

    def probe():
        nonlocal mid
        mid = (sim.has_pending_work(), sim.pending)

    sim.post(0.5, probe)
    sim.run()
    assert mid == (True, 1)
    assert sim.has_pending_work() is False
    assert sim.pending == 0
