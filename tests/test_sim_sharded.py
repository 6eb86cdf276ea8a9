"""Unit tests for the sharded scheduling backend.

The load-bearing property is byte-identity with the single heap: the
same model driven through :class:`ShardView` handles must execute the
same events at the same times in the same order on either backend.
The synthetic model below exercises every ordering hazard the torus
model can produce -- same-time roots on different shards, zero-delay
immediates, cross-shard handoffs landing simultaneously with local
work, and global (coordinator-level) events cutting into the middle of
a window -- and the tests compare full execution logs.
"""

import pytest

from repro.config import TorusShape
from repro.network.topology import (
    build_gs1280_topology,
    partition_lookahead_ns,
    partition_nodes,
)
from repro.sim import (
    SchedulerBackend,
    SchedulerView,
    ShardedSimulator,
    SimulationError,
    Simulator,
)

LOOKAHEAD = 10.0


def _two_shard() -> ShardedSimulator:
    return ShardedSimulator([[0], [1]], LOOKAHEAD)


def _build_traffic(sim, log, rounds=4):
    """The dual-backend synthetic model: every firing logs
    ``(now, node, tag)``, spawns a same-shard immediate, a same-shard
    short-delay child, and a cross-shard handoff one lookahead out."""
    views = [sim.view_for(0), sim.view_for(1)]

    def fire(node, tag, depth):
        log.append((views[node].now, node, tag))
        if depth <= 0:
            return
        views[node].schedule(0.0, note, node, tag + ".imm")
        views[node].schedule(1.5, note, node, tag + ".local")
        other = 1 - node
        views[other].schedule(LOOKAHEAD, fire, other, tag + ".x", depth - 1)

    def note(node, tag):
        log.append((views[node].now, node, tag))

    # Same-time roots on *different* shards, plus a root that collides
    # with the first cross-shard arrival (t = LOOKAHEAD).
    views[0].schedule(0.0, fire, 0, "a", rounds)
    views[1].schedule(0.0, fire, 1, "b", rounds)
    views[1].schedule(LOOKAHEAD, note, 1, "tie-with-handoff")


def _run_single(rounds=4):
    sim = Simulator()
    log = []
    _build_traffic(sim, log, rounds)
    sim.run()
    return log, sim


def _run_sharded(rounds=4):
    sim = ShardedSimulator([[0], [1]], LOOKAHEAD)
    log = []
    _build_traffic(sim, log, rounds)
    sim.run()
    return log, sim


def _per_node(log, node):
    return [entry for entry in log if entry[1] == node]


def test_sharded_matches_single_heap_per_shard_order():
    """``run()`` executes shards independently inside a window, so a
    *shared* log's interleaving of simultaneous cross-shard events is
    not part of the contract -- each shard's own event sequence, the
    event multiset with timestamps, and the clocks are."""
    single_log, single = _run_single()
    sharded_log, sharded = _run_sharded()
    assert _per_node(sharded_log, 0) == _per_node(single_log, 0)
    assert _per_node(sharded_log, 1) == _per_node(single_log, 1)
    assert sorted(sharded_log) == sorted(single_log)
    assert sharded.now == single.now
    assert sharded.events_processed == single.events_processed


def test_step_reproduces_exact_global_order():
    """``step()`` merges all queues in key order, so there the full
    global interleaving must be bit-for-bit the single heap's."""
    single = Simulator()
    single_log = []
    _build_traffic(single, single_log, rounds=4)
    single.run()
    sharded = _two_shard()
    sharded_log = []
    _build_traffic(sharded, sharded_log, rounds=4)
    while sharded.step():
        pass
    assert sharded_log == single_log
    assert sharded.now == single.now


def test_global_events_merge_at_sync_points():
    """A coordinator-level schedule (the fault-injector path) must
    interleave with same-time shard events exactly like the single
    heap's FIFO order."""

    def build(sim):
        views = [sim.view_for(0), sim.view_for(1)]
        log = []
        for t in (2.0, 5.0, 5.0, 8.0):
            views[0].schedule(t, log.append, ("s0", t))
            views[1].schedule(t, log.append, ("s1", t))
        # Global events: one colliding with shard work at t=5, one alone.
        sim.schedule(5.0, log.append, ("global", 5.0))
        sim.schedule(6.0, log.append, ("global", 6.0))
        return log

    single = Simulator()
    single_log = build(single)
    single.run()
    sharded = _two_shard()
    sharded_log = build(sharded)
    sharded.run()
    assert sharded_log == single_log
    assert sharded.barrier_merges >= 2  # both global timestamps merged


def test_run_until_inclusive_and_clock_advance():
    sim = _two_shard()
    fired = []
    sim.view_for(0).schedule(10.0, fired.append, "on-boundary")
    sim.view_for(1).schedule(10.000001, fired.append, "after")
    sim.run(until=10.0)
    assert fired == ["on-boundary"]
    assert sim.now == 10.0
    sim.run(until=50.0)
    assert fired == ["on-boundary", "after"]
    assert sim.now == 50.0


def test_epoch_keys_order_across_runs():
    """Roots scheduled between runs must sort *after* leftovers from
    the previous run that fire at the same timestamp (the single heap's
    monotone seq counter does this for free)."""

    def build_and_run(sim):
        views = [sim.view_for(0), sim.view_for(1)]
        log = []
        views[0].schedule(5.0, log.append, "first-run")
        views[1].schedule(20.0, log.append, "leftover")
        sim.run(until=10.0)
        # Second run: a root colliding exactly with the leftover.
        views[1].schedule_at(20.0, log.append, "second-run-root")
        sim.run()
        return log

    assert build_and_run(_two_shard()) == build_and_run(Simulator())


def test_lookahead_violation_raises():
    sim = _two_shard()
    view0, view1 = sim.view_for(0), sim.view_for(1)

    def too_close():
        view1.schedule(LOOKAHEAD / 2, lambda: None)

    view0.schedule(0.0, too_close)
    view0.schedule(100.0, lambda: None)  # keeps the window open
    with pytest.raises(SimulationError, match="lookahead"):
        sim.run()


def test_mailbox_overflow_raises():
    sim = ShardedSimulator([[0], [1]], LOOKAHEAD, mailbox_capacity=1)
    view0, view1 = sim.view_for(0), sim.view_for(1)

    def flood():
        view1.schedule(LOOKAHEAD, lambda: None)
        view1.schedule(LOOKAHEAD, lambda: None)

    view0.schedule(0.0, flood)
    view0.schedule(100.0, lambda: None)
    with pytest.raises(SimulationError, match="mailbox overflow"):
        sim.run()


def test_max_events_rejected():
    sim = _two_shard()
    sim.view_for(0).schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)


def test_step_follows_global_order():
    sim = _two_shard()
    single = Simulator()
    logs = ([], [])
    for log, (s, views) in zip(logs, (
        (sim, [sim.view_for(0), sim.view_for(1)]),
        (single, [single.view_for(0), single.view_for(1)]),
    )):
        views[1].schedule(1.0, log.append, "one")
        views[0].schedule(2.0, log.append, "two")
        s.schedule(3.0, log.append, "three")
        while s.step():
            pass
    assert logs[0] == logs[1] == ["one", "two", "three"]
    assert sim.now == 3.0


def test_pending_exact_mid_run():
    sim = _two_shard()
    observed = []

    def probe():
        # Inside an executing event: one sibling still pending, the
        # probe itself already counted as processed.
        observed.append(sim.pending)
        sim.view_for(1).schedule(LOOKAHEAD, lambda: None)
        observed.append(sim.pending)

    sim.view_for(0).schedule(1.0, probe)
    sim.view_for(1).schedule(2.0, lambda: None)
    sim.run()
    assert observed == [1, 2]
    assert sim.pending == 0


def test_cancel_counts_on_owning_shard():
    sim = _two_shard()
    event = sim.view_for(1).schedule(5.0, lambda: None)
    event.cancel()
    sim.view_for(0).schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_cancelled == 1
    assert sim.events_processed == 1
    assert sim.pending == 0


def test_view_now_tracks_global_event_time():
    """While a coordinator-level (fault) event executes, every node
    view must report the event's timestamp -- the owning shard is
    merely parked at its last local event."""
    sim = _two_shard()
    seen = {}

    def fault():
        seen["v0"] = sim.view_for(0).now
        seen["v1"] = sim.view_for(1).now
        seen["co"] = sim.now

    sim.view_for(0).schedule(2.0, lambda: None)
    sim.schedule(7.0, fault)
    sim.run()
    assert seen == {"v0": 7.0, "v1": 7.0, "co": 7.0}


def test_reset_clears_state_and_runs_hooks():
    sim = _two_shard()
    disarmed = []
    sim.add_reset_hook(lambda: disarmed.append(True))
    sim._check = object()
    sim.view_for(0).schedule(5.0, lambda: None)
    sim.run(until=1.0)
    sim.reset()
    assert disarmed == [True]
    assert sim._check is None
    assert sim.pending == 0
    assert sim.now == 0.0
    assert not sim.has_pending_work()
    # The epoch restarts, so a fresh schedule behaves like a new sim.
    log = []
    sim.view_for(1).schedule(3.0, log.append, "after-reset")
    sim.run()
    assert log == ["after-reset"] and sim.now == 3.0


def test_stats_reports_shard_shape():
    sim = _two_shard()
    sim.view_for(0).schedule(1.0, lambda: None)
    sim.run()
    stats = sim.stats()
    assert stats["shards"] == 2
    assert stats["lookahead_ns"] == LOOKAHEAD
    assert stats["events_processed"] == 1
    assert stats["windows_run"] >= 1


def test_backend_protocol_conformance():
    sharded = _two_shard()
    single = Simulator()
    assert isinstance(sharded, SchedulerBackend)
    assert isinstance(single, SchedulerBackend)
    for view in (sharded.view_for(0), single.view_for(0)):
        assert isinstance(view, SchedulerView)


def test_partition_validation():
    with pytest.raises(ValueError, match="two partitions"):
        ShardedSimulator([[0, 1]], LOOKAHEAD)
    with pytest.raises(ValueError, match="lookahead"):
        ShardedSimulator([[0], [1]], 0.0)
    with pytest.raises(ValueError, match="in two shards"):
        ShardedSimulator([[0], [0]], LOOKAHEAD)
    with pytest.raises(ValueError, match="cover nodes"):
        ShardedSimulator([[0], [2]], LOOKAHEAD)
    with pytest.raises(ValueError, match="empty"):
        ShardedSimulator([[0], []], LOOKAHEAD)


def test_partition_nodes_column_bands():
    shape = TorusShape(cols=8, rows=2)
    parts = partition_nodes(shape, 4)
    assert len(parts) == 4
    flat = sorted(n for p in parts for n in p)
    assert flat == list(range(16))
    assert all(len(p) == 4 for p in parts)  # balanced: 2 cols x 2 rows
    with pytest.raises(ValueError):
        partition_nodes(shape, 1)
    with pytest.raises(ValueError):
        partition_nodes(shape, 9)


def test_partition_lookahead_includes_failed_links():
    """A failed cross-shard link still bounds the lookahead: a mid-run
    repair can put it back, so the window must stay conservative."""
    from repro.config import GS1280Config

    shape = TorusShape(cols=4, rows=4)
    config = GS1280Config.build(16)
    parts = partition_nodes(shape, 2)
    topo = build_gs1280_topology(shape)
    healthy = partition_lookahead_ns(topo, parts, config.wire_ns)
    shard_of = {n: i for i, p in enumerate(parts) for n in p}
    # Fail every currently-live cross-shard link carrying the minimum.
    for a, b, cls, _sh in list(topo.edges()):
        if shard_of[a] != shard_of[b] and config.wire_ns[cls] == healthy:
            topo.fail_link(a, b)
    assert partition_lookahead_ns(topo, parts, config.wire_ns) == healthy


def test_gs1280_small_system_identity():
    """End-to-end on the real machine: an 8-CPU closed loop produces
    identical results and event counts on both backends."""
    from repro.sim import RngFactory
    from repro.systems import GS1280System
    from repro.workloads.closed_loop import run_closed_loop
    from repro.workloads.loadtest import make_random_remote_picker

    def one(shards):
        system = GS1280System(8, shards=shards)
        rng_factory = RngFactory(3)
        pickers = [
            make_random_remote_picker(rng_factory, cpu, 8)
            for cpu in range(8)
        ]
        result = run_closed_loop(system, pickers, outstanding=4,
                                 warmup_ns=1000.0, window_ns=2500.0)
        return (result.completed, result.latency_ns,
                system.sim.events_processed, system.counters())

    assert one(0) == one(2)
