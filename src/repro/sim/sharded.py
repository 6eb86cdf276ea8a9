"""Sharded scheduling backend: the torus partitioned into per-shard
event heaps synchronized by conservative lookahead.

Spatial decomposition of a discrete-event torus model: nodes are
partitioned into shards, each shard owns a private event heap, and
shards advance through windows no longer than the **lookahead** -- the
minimum wire latency of any link crossing a shard boundary.  Inside a
window a shard cannot be affected by any other shard (the earliest
cross-shard influence arrives one lookahead away), so shards execute
their windows independently; cross-shard packet arrivals ride bounded
per-shard **mailboxes** and are folded into the destination heap at the
next window barrier.

**Byte-identity with the single heap.**  The single-heap kernel fires
simultaneous events in global schedule (``seq``) order.  Shards cannot
share a cheap global counter, so every event instead carries a
*genealogical key* that reconstructs the schedule order:

* an event scheduled while the machine is **not running** (model
  construction, between ``run()`` calls) is a *root*:
  ``(epoch, barrier_time, (), root_index)`` with a coordinator-global
  root index;
* an event scheduled **during execution** of a parent with key ``K``
  firing at time ``t`` is a *child*: ``(epoch, t, K, child_index)``.

``epoch`` increments per coordinator ``run()`` call, so schedules from
an earlier run sort before barrier roots that collide with them at the
same fire time.  Within an epoch the empty tuple sorts before every
non-empty key, placing barrier roots before same-time children, and
child keys order by (parent fire time, parent key, call index) --
exactly the order a global seq counter would impose.  Heaps order by
``(time, key)``; the proof obligations and worked tie cases live in
``docs/sharding.md``.

Only packet arrivals cross shards (``Link`` schedules the head of a
packet on the *destination* router's view); their delay is at least the
wire latency, hence at least the lookahead, which the mailbox insert
verifies.  Anything scheduled on the coordinator itself (fault
injectors, telemetry samplers) is a **global event**: the window
schedule cuts at its exact timestamp and all queues at that instant are
merged serially in key order, so a mid-run ``fail_link`` interleaves
with same-time shard events precisely as the single heap would.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Sequence

from repro.sim.backend import SchedulerBackend
from repro.sim.engine import Event, SimulationError

__all__ = ["ShardSim", "ShardView", "ShardedSimulator"]

_INF = float("inf")


class ShardSim:
    """One shard's private event queue: a ``(time, key)`` heap plus the
    same zero-delay fast deque the single-heap kernel uses.  Entries
    mirror the single heap's two shapes -- ``(time, key, Event)`` for
    cancellable schedules, ``(time, key, fn, args)`` for fire-and-forget
    posts -- where ``key`` is the genealogical ordering key (tuples
    compare exactly like the ints the single heap uses, just
    hierarchically; keys are unique, so a comparison never reaches
    element 2 and the shapes mix freely)."""

    __slots__ = (
        "index", "now", "_heap", "_immediate", "_inbox",
        "_scheduled", "_processed", "_cancelled",
        "_exec_time", "_exec_key", "_exec_child",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.now = 0.0
        self._heap: list[tuple] = []
        self._immediate: deque[tuple] = deque()
        #: Cross-shard mailbox: entries appended by *other* shards
        #: mid-window, folded into the heap at the next barrier.
        self._inbox: list[tuple] = []
        self._scheduled = 0
        self._processed = 0
        self._cancelled = 0
        # Executing-event context (parent fire time / key / child call
        # counter); valid only while one of this shard's events runs.
        self._exec_time = 0.0
        self._exec_key: tuple = ()
        self._exec_child = 0

    # -- queue access ----------------------------------------------------
    def _peek(self) -> tuple[float, tuple, tuple, bool] | None:
        """Earliest live entry as (time, key, entry, from_immediate),
        where ``entry`` is the raw 3- or 4-tuple; cancelled heads are
        discarded as a side effect."""
        imm = self._immediate
        heap = self._heap
        while imm and len(imm[0]) == 3 and imm[0][2].cancelled:
            imm.popleft()
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            _heappop(heap)
        if imm:
            ie = imm[0]
            if heap:
                h = heap[0]
                if h[0] < ie[0] or (h[0] == ie[0] and h[1] < ie[1]):
                    return (h[0], h[1], h, False)
            return (ie[0], ie[1], ie, True)
        if heap:
            h = heap[0]
            return (h[0], h[1], h, False)
        return None

    def _pop(self, from_immediate: bool) -> tuple:
        if from_immediate:
            return self._immediate.popleft()
        return _heappop(self._heap)

    def _drain_inbox(self) -> None:
        inbox = self._inbox
        if inbox:
            heap = self._heap
            for entry in inbox:
                _heappush(heap, entry)
            inbox.clear()

    # -- window execution (the sharded hot loop) -------------------------
    def run_window(self, end: float, inclusive: bool, chk) -> None:
        """Execute every pending event with time < ``end`` (<= when
        ``inclusive``), one at a time.  Mirrors ``Simulator.run``'s
        merge loop; the conservative lookahead guarantees no other shard
        can schedule into this window, so no merge is needed until the
        barrier."""
        imm = self._immediate
        heap = self._heap
        pop = _heappop
        while True:
            while imm and len(imm[0]) == 3 and imm[0][2].cancelled:
                imm.popleft()
            while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
                pop(heap)
            if imm:
                entry = imm[0]
                etime = entry[0]
                from_immediate = True
                if heap:
                    head = heap[0]
                    head_time = head[0]
                    if head_time < etime or (
                        head_time == etime and head[1] < entry[1]
                    ):
                        entry = head
                        etime = head_time
                        from_immediate = False
            elif heap:
                entry = heap[0]
                etime = entry[0]
                from_immediate = False
            else:
                return
            if etime > end or (etime == end and not inclusive):
                return
            if from_immediate:
                imm.popleft()
            else:
                pop(heap)
            if chk is not None:
                chk.event_time(etime, self.now, entry[2]
                               if len(entry) == 3 else entry)
            self.now = etime
            self._processed += 1
            self._exec_time = etime
            self._exec_key = entry[1]
            self._exec_child = 0
            if len(entry) == 4:
                entry[2](*entry[3])
            else:
                event = entry[2]
                event.fn(*event.args)


class ShardView:
    """The per-node scheduling handle sharded components hold.

    A view pins the *placement* (which shard receives the event); the
    ordering key comes from whichever context is executing, so a link
    arrival scheduled from the source shard onto a destination view
    lands in the destination heap with a key derived from its true
    causal parent."""

    __slots__ = ("_co", "_shard")

    def __init__(self, co: "ShardedSimulator", shard: ShardSim) -> None:
        self._co = co
        self._shard = shard

    @property
    def now(self) -> float:
        # Normally the owning shard's clock.  When a *different* shard's
        # event is executing -- which in the model only happens at a
        # global sync point (a fault event freezing a router, failing a
        # Zbox channel) -- machine time is that event's timestamp: the
        # owning shard is merely parked at its last local event, and the
        # single heap would report the executing time.
        ex = self._co._exec_shard
        sh = self._shard
        if ex is None or ex is sh:
            return sh.now
        return ex.now

    def schedule(self, delay: float, fn: Callable[..., Any], *args) -> Event:
        return self._co._schedule_on(self._shard, delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args) -> Event:
        return self._co._schedule_at_on(self._shard, time, fn, args)

    def post(self, delay: float, fn: Callable[..., Any], *args) -> None:
        self._co._post_on(self._shard, delay, fn, args)


class ShardedSimulator(SchedulerBackend):
    """Coordinator of N shard queues plus one global queue.

    ``partitions`` lists the node ids of each shard (every node exactly
    once); ``lookahead_ns`` is the minimum wire latency of any link
    whose endpoints sit in different shards
    (:func:`repro.network.topology.partition_lookahead_ns` computes
    both for a torus).  ``mailbox_capacity`` bounds each shard's
    cross-shard inbox; overflow raises rather than growing silently.

    Shard windows run one after another on the calling thread.  Under
    CPython's GIL a thread fan-out of pure-Python windows cannot run in
    parallel, so the serial window loop is the only executor.
    """

    def __init__(
        self,
        partitions: Sequence[Sequence[int]],
        lookahead_ns: float,
        mailbox_capacity: int = 1 << 20,
    ) -> None:
        if len(partitions) < 2:
            raise ValueError("sharding needs at least two partitions")
        if lookahead_ns <= 0.0:
            raise ValueError("lookahead must be positive")
        seen: set[int] = set()
        for part in partitions:
            if not part:
                raise ValueError("empty shard partition")
            overlap = seen.intersection(part)
            if overlap:
                raise ValueError(f"nodes {sorted(overlap)} in two shards")
            seen.update(part)
        if seen != set(range(len(seen))):
            raise ValueError("partitions must cover nodes 0..N-1 exactly")
        self.lookahead_ns = lookahead_ns
        self.mailbox_capacity = mailbox_capacity
        self._shards = [ShardSim(i) for i in range(len(partitions))]
        #: Global queue (shard -1): coordinator-level schedules (fault
        #: injectors, samplers).  Executes only at full sync points.
        self._global = ShardSim(-1)
        self._all = self._shards + [self._global]
        self._node_shard: list[ShardSim] = [None] * len(seen)  # type: ignore
        self._views: list[ShardView] = [None] * len(seen)  # type: ignore
        for index, part in enumerate(partitions):
            shard = self._shards[index]
            for node in part:
                self._node_shard[node] = shard
                self._views[node] = ShardView(self, shard)
        self.partitions = [tuple(part) for part in partitions]
        self._now = 0.0
        self._epoch = 1
        self._root_seq = 0
        self._running = False
        self._exec_shard: ShardSim | None = None
        self._in_window = False
        self._window_end = 0.0
        self._check = None
        self._reset_hooks: list[Callable[[], None]] = []
        #: Windows executed and barrier merges performed (introspection
        #: for tests and the bench report).
        self.windows_run = 0
        self.barrier_merges = 0

    # -- properties ------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def now(self) -> float:
        """Coordinator time; while an event executes this is that
        event's timestamp, exactly like the single heap."""
        ex = self._exec_shard
        return ex.now if ex is not None else self._now

    @now.setter
    def now(self, value: float) -> None:
        self._now = value

    # -- scheduling ------------------------------------------------------
    def view_for(self, node: int) -> ShardView:
        return self._views[node]

    def shard_of(self, node: int) -> int:
        return self._node_shard[node].index

    def schedule(self, delay: float, fn: Callable[..., Any], *args) -> Event:
        """Coordinator-level schedule: the event lands on the global
        queue and executes at a full sync point (all shards parked at
        its timestamp), which is what machine-wide actions like fault
        injection require."""
        return self._schedule_on(self._global, delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args) -> Event:
        return self._schedule_at_on(self._global, time, fn, args)

    def post(self, delay: float, fn: Callable[..., Any], *args) -> None:
        self._post_on(self._global, delay, fn, args)

    def _schedule_at_on(self, shard: ShardSim, time: float,
                        fn: Callable[..., Any], args: tuple) -> Event:
        ex = self._exec_shard
        base = ex.now if ex is not None else self._now
        if time < base:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < now {base!r}"
            )
        return self._schedule_on(shard, time - base, fn, args)

    def _schedule_on(self, shard: ShardSim, delay: float,
                     fn: Callable[..., Any], args: tuple) -> Event:
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay!r}")
        ex = self._exec_shard
        if ex is None:
            # Root: scheduled at a barrier (construction or between
            # runs); the empty ancestry tuple sorts it before every
            # same-time child of this epoch, and the epoch prefix sorts
            # it after everything scheduled in earlier runs.
            now = self._now
            key = (self._epoch, now, (), self._root_seq)
            self._root_seq += 1
            event = Event(now + delay, key, fn, args, shard)  # type: ignore[arg-type]
            _heappush(shard._heap, (event.time, key, event))
            shard._scheduled += 1
            return event
        time = ex.now + delay
        key = (self._epoch, ex._exec_time, ex._exec_key, ex._exec_child)
        ex._exec_child += 1
        event = Event(time, key, fn, args, shard)  # type: ignore[arg-type]
        shard._scheduled += 1
        if shard is ex:
            # Same-shard: the single-heap fast paths apply unchanged.
            if delay == 0.0:
                shard._immediate.append((time, key, event))
            else:
                _heappush(shard._heap, (time, key, event))
        elif not self._in_window:
            # Serial sync point (global event executing, or step()):
            # every shard is parked at the executing timestamp, so a
            # direct insert is race-free and the event is in the future.
            _heappush(shard._heap, (time, key, event))
        else:
            # Cross-shard mid-window: must respect the lookahead, or
            # the destination may already have executed past the
            # delivery time.
            if time < self._window_end:
                raise SimulationError(
                    f"cross-shard schedule at t={time!r} violates the "
                    f"lookahead window ending at {self._window_end!r} "
                    f"(shard {ex.index} -> {shard.index}; delay "
                    f"{delay!r} < lookahead {self.lookahead_ns!r}?)"
                )
            inbox = shard._inbox
            if len(inbox) >= self.mailbox_capacity:
                raise SimulationError(
                    f"shard {shard.index} mailbox overflow "
                    f"(capacity {self.mailbox_capacity})"
                )
            inbox.append((time, key, event))
        return event

    def _post_on(self, shard: ShardSim, delay: float,
                 fn: Callable[..., Any], args: tuple) -> None:
        """Fire-and-forget twin of :meth:`_schedule_on`: same key
        bookkeeping, same placement branches, but the entry is a
        ``(time, key, fn, args)`` 4-tuple -- no Event allocation and no
        handle.  Key consumption must mirror ``_schedule_on`` exactly so
        mixed schedule/post call sequences produce the same key stream
        either way."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay!r}")
        ex = self._exec_shard
        if ex is None:
            now = self._now
            key = (self._epoch, now, (), self._root_seq)
            self._root_seq += 1
            _heappush(shard._heap, (now + delay, key, fn, args))
            shard._scheduled += 1
            return
        time = ex.now + delay
        key = (self._epoch, ex._exec_time, ex._exec_key, ex._exec_child)
        ex._exec_child += 1
        shard._scheduled += 1
        if shard is ex:
            if delay == 0.0:
                shard._immediate.append((time, key, fn, args))
            else:
                _heappush(shard._heap, (time, key, fn, args))
        elif not self._in_window:
            _heappush(shard._heap, (time, key, fn, args))
        else:
            if time < self._window_end:
                raise SimulationError(
                    f"cross-shard schedule at t={time!r} violates the "
                    f"lookahead window ending at {self._window_end!r} "
                    f"(shard {ex.index} -> {shard.index}; delay "
                    f"{delay!r} < lookahead {self.lookahead_ns!r}?)"
                )
            inbox = shard._inbox
            if len(inbox) >= self.mailbox_capacity:
                raise SimulationError(
                    f"shard {shard.index} mailbox overflow "
                    f"(capacity {self.mailbox_capacity})"
                )
            inbox.append((time, key, fn, args))

    # -- execution -------------------------------------------------------
    def _drain_mailboxes(self) -> None:
        for shard in self._shards:
            shard._drain_inbox()

    def _next_time(self) -> float | None:
        best: float | None = None
        for shard in self._all:
            head = shard._peek()
            if head is not None and (best is None or head[0] < best):
                best = head[0]
        return best

    def _run_timestamp(self, t: float, chk) -> None:
        """Serial key-order merge of every queue at exactly ``t`` --
        the sync-point path global events (mid-run faults) take, so
        they interleave with same-time shard events exactly as the
        single heap's seq order would."""
        self.barrier_merges += 1
        self._now = t
        while True:
            best = None
            best_shard = None
            for shard in self._all:
                head = shard._peek()
                if head is not None and head[0] == t and (
                    best is None or head[1] < best[1]
                ):
                    best = head
                    best_shard = shard
            if best_shard is None:
                return
            entry = best_shard._pop(best[3])
            if chk is not None:
                chk.event_time(t, best_shard.now,
                               entry[2] if len(entry) == 3 else entry)
            best_shard.now = t
            best_shard._processed += 1
            best_shard._exec_time = t
            best_shard._exec_key = best[1]
            best_shard._exec_child = 0
            self._exec_shard = best_shard
            try:
                if len(entry) == 4:
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    event.fn(*event.args)
            finally:
                self._exec_shard = None

    def _run_windows(self, end: float, inclusive: bool, chk) -> None:
        self.windows_run += 1
        self._window_end = end
        self._in_window = True
        try:
            for shard in self._shards:
                self._exec_shard = shard
                shard.run_window(end, inclusive, chk)
        finally:
            self._exec_shard = None
            self._in_window = False

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Advance the machine through conservative-lookahead windows.

        Semantics match ``Simulator.run(until)``: ``until`` is
        inclusive and ``now`` lands exactly on it.  ``max_events`` has
        no deterministic meaning across independent shard windows and is
        rejected; use the single-heap backend for truncated runs."""
        if max_events is not None:
            raise SimulationError(
                "max_events is not supported by the sharded backend "
                "(event counts inside a window are not a prefix of the "
                "global order); use the single-heap backend"
            )
        if self._running:
            raise SimulationError("ShardedSimulator.run() is not reentrant")
        self._running = True
        chk = self._check
        lookahead = self.lookahead_ns
        try:
            while True:
                self._drain_mailboxes()
                t = self._next_time()
                if t is None:
                    # Drained: land ``now`` on the last executed event's
                    # timestamp, exactly like the single heap.
                    last = max(s.now for s in self._all)
                    if last > self._now:
                        self._now = last
                    if chk is not None:
                        chk.at_drain(self)
                    break
                if until is not None and t > until:
                    break
                head = self._global._peek()
                g = head[0] if head is not None else _INF
                if g == t:
                    self._run_timestamp(t, chk)
                    continue
                w_end = t + lookahead
                if g < w_end:
                    w_end = g
                if until is not None and until < w_end:
                    # Final partial window, inclusive of ``until`` (the
                    # single heap's inclusive-until contract).
                    self._run_windows(until, True, chk)
                else:
                    self._run_windows(w_end, False, chk)
        finally:
            self._running = False
            self._epoch += 1
        if until is not None:
            if until > self._now:
                self._now = until
            for shard in self._all:
                if until > shard.now:
                    shard.now = until

    def step(self) -> bool:
        """Run the single globally-earliest pending event (serial
        key-order merge across every queue)."""
        self._drain_mailboxes()
        best = None
        best_shard = None
        for shard in self._all:
            head = shard._peek()
            if head is not None and (
                best is None or (head[0], head[1]) < (best[0], best[1])
            ):
                best = head
                best_shard = shard
        chk = self._check
        if best_shard is None:
            if chk is not None:
                chk.at_drain(self)
            return False
        entry = best_shard._pop(best[3])
        etime = best[0]
        if chk is not None:
            chk.event_time(etime, best_shard.now,
                           entry[2] if len(entry) == 3 else entry)
        best_shard.now = etime
        self._now = etime
        best_shard._processed += 1
        best_shard._exec_time = etime
        best_shard._exec_key = best[1]
        best_shard._exec_child = 0
        self._exec_shard = best_shard
        try:
            if len(entry) == 4:
                entry[2](*entry[3])
            else:
                event = entry[2]
                event.fn(*event.args)
        finally:
            self._exec_shard = None
        return True

    # -- introspection ---------------------------------------------------
    @property
    def pending(self) -> int:
        """Live events across every shard, the global queue, and the
        in-transit mailboxes; exact mid-run (per-event counters)."""
        return sum(
            s._scheduled - s._processed - s._cancelled for s in self._all
        )

    @property
    def events_processed(self) -> int:
        return sum(s._processed for s in self._all)

    @property
    def events_cancelled(self) -> int:
        return sum(s._cancelled for s in self._all)

    @property
    def events_scheduled(self) -> int:
        return sum(s._scheduled for s in self._all)

    def has_pending_work(self) -> bool:
        return any(s._inbox for s in self._shards) or any(
            s._peek() is not None for s in self._all
        )

    def stats(self) -> dict[str, float | int]:
        return {
            "now_ns": self.now,
            "events_processed": self.events_processed,
            "events_cancelled": self.events_cancelled,
            "events_scheduled": self.events_scheduled,
            "pending": self.pending,
            "shards": self.n_shards,
            "lookahead_ns": self.lookahead_ns,
            "windows_run": self.windows_run,
            "barrier_merges": self.barrier_merges,
        }

    # -- lifecycle -------------------------------------------------------
    def add_reset_hook(self, hook: Callable[[], None]) -> None:
        self._reset_hooks.append(hook)

    def reset(self) -> None:
        """Drop all pending events everywhere, rewind to t=0, run the
        registered disarm hooks, and detach the checker handle -- same
        contract as ``Simulator.reset``."""
        if self._running:
            raise SimulationError("cannot reset() while running")
        for hook in self._reset_hooks:
            hook()
        self._reset_hooks.clear()
        self._check = None
        for shard in self._all:
            shard._heap.clear()
            shard._immediate.clear()
            shard._inbox.clear()
            shard.now = 0.0
            shard._scheduled = 0
            shard._processed = 0
            shard._cancelled = 0
        self._now = 0.0
        self._epoch = 1
        self._root_seq = 0
        self.windows_run = 0
        self.barrier_merges = 0
