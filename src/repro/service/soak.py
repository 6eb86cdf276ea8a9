"""Self-load-test: drive a live service with open-arrival traffic.

The repo's own traffic layer (:mod:`repro.traffic.arrivals`) generates
the submission schedule -- the service is load-tested the same way the
simulated machine is.  Each tenant class gets a seed-stable arrival
process (Poisson for the steady class, MMPP for the bursty one, Pareto
for the heavy-tailed one); arrival timestamps are interpreted as
**seconds of wall clock** (the generators are unit-agnostic: rates in,
arrivals out).  Submissions draw from a small pool of distinct inline
campaign specs, so the steady state exercises every service path that
matters: cache hits, in-flight coalescing between concurrent
duplicates, priority ordering, and result fetches.

Job completion latency (submit to terminal state) feeds a per-class
:class:`~repro.traffic.histogram.LatencyHistogram` -- the same
bounded-memory percentile machinery the capacity planner uses -- and
``/stats`` snapshots append to a JSONL file for the nightly artifact.

The soak **fails** (non-zero) when any of these hold at the end:

* any HTTP 5xx was observed (client-side) or counted (server-side
  ``service.http.5xx``);
* any job is stuck ``claimed``/``running`` past the stuck threshold
  after the drain grace (a lease leak the maintenance loop failed to
  reclaim);
* any submitted job finished ``failed``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.service.client import ServiceClient, ServiceError
from repro.traffic.arrivals import (
    ArrivalSpec,
    MMPPArrivals,
    ParetoArrivals,
    PoissonArrivals,
)
from repro.traffic.histogram import LatencyHistogram

__all__ = ["SoakConfig", "SoakReport", "run_soak"]


@dataclass(frozen=True)
class SoakClass:
    """One tenant class of the soak mix."""

    name: str
    arrivals: ArrivalSpec
    priority: int = 0


def _default_classes(rate_per_s: float) -> tuple[SoakClass, ...]:
    """The default three-tenant soak mix at a total submission rate.

    Mirrors the shape of :func:`repro.traffic.mix.default_mix`: a
    steady OLTP-ish class, a bursty streaming class, a heavy-tailed
    analytics class -- weights 0.5 / 0.3 / 0.2.
    """
    return (
        SoakClass("oltp", PoissonArrivals(rate_per_ns=0.5 * rate_per_s),
                  priority=1),
        SoakClass("stream", MMPPArrivals(
            rates_per_ns=(0.15 * rate_per_s, 0.9 * rate_per_s),
            dwell_ns=(8.0, 2.0),
        )),
        SoakClass("analytics", ParetoArrivals(
            rate_per_ns=0.2 * rate_per_s, alpha=1.5,
        )),
    )


def _template_pool(n: int) -> list[dict[str, Any]]:
    """``n`` distinct tiny inline campaign specs (analytic points, so
    the simulator cost is microseconds and the *service* is the thing
    under load).  A small pool means constant resubmission of
    identical work -- exactly what exercises coalescing + cache."""
    cpus_options = [1, 2, 4, 8, 16, 32][: max(1, n)]
    return [
        {
            "name": f"soak-{cpus}",
            "sweeps": [{
                "name": "stream",
                "kind": "stream",
                "base": {"kernel": "triad", "system": "GS1280"},
                "grid": {"cpus": [1, cpus]},
            }],
        }
        for cpus in cpus_options
    ]


@dataclass
class SoakConfig:
    url: str
    duration_s: float = 60.0
    rate_per_s: float = 5.0  # total submissions/s across classes
    seed: int = 0
    templates: int = 4
    stats_interval_s: float = 10.0
    drain_grace_s: float = 60.0
    stuck_claimed_s: float = 120.0
    poll_s: float = 0.25
    request_timeout_s: float = 30.0


@dataclass
class SoakReport:
    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    unfinished: int = 0
    http_5xx: int = 0
    transport_errors: int = 0
    stuck: int = 0
    per_class: dict[str, LatencyHistogram] = field(default_factory=dict)
    final_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.http_5xx == 0 and self.failed == 0
                and self.stuck == 0)


class _Tracker:
    """Thread-safe registry of outstanding submissions."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pending: dict[str, tuple[str, float]] = {}  # id -> (cls, t0)

    def add(self, job_id: str, cls: str, t0: float) -> None:
        with self.lock:
            self.pending[job_id] = (cls, t0)

    def take_snapshot(self) -> list[tuple[str, str, float]]:
        with self.lock:
            return [(jid, cls, t0)
                    for jid, (cls, t0) in self.pending.items()]

    def remove(self, job_id: str) -> None:
        with self.lock:
            self.pending.pop(job_id, None)

    def __len__(self) -> int:
        with self.lock:
            return len(self.pending)


def run_soak(config: SoakConfig, log=print,
             stats_sink: TextIO | None = None) -> SoakReport:
    """Run the self-load-test against a live server; see module doc."""
    import numpy as np

    client = ServiceClient(config.url, timeout_s=config.request_timeout_s)
    client.wait_healthy()
    classes = _default_classes(config.rate_per_s)
    templates = _template_pool(config.templates)
    report = SoakReport(
        per_class={cls.name: LatencyHistogram() for cls in classes}
    )
    tracker = _Tracker()
    counters_lock = threading.Lock()
    stop = threading.Event()
    t_start = time.monotonic()

    def _note_error(exc: ServiceError) -> None:
        with counters_lock:
            if exc.status is not None and exc.status >= 500:
                report.http_5xx += 1
            elif exc.status is None:
                report.transport_errors += 1

    def _submitter(index: int, cls: SoakClass) -> None:
        rng = np.random.default_rng(config.seed * 1000 + index)
        gen = cls.arrivals.generator(rng, 0.0)
        template_rng = np.random.default_rng(config.seed * 1000 + 500
                                             + index)
        while not stop.is_set():
            at = gen.next_ns()  # "ns" domain == wall seconds here
            if at >= config.duration_s:
                return
            delay = t_start + at - time.monotonic()
            if delay > 0 and stop.wait(delay):
                return
            template = templates[
                int(template_rng.integers(len(templates)))
            ]
            try:
                job = client.submit(
                    template, tenant=cls.name, priority=cls.priority,
                    seed=config.seed,
                )
            except ServiceError as exc:
                _note_error(exc)
                continue
            tracker.add(job["id"], cls.name, time.monotonic())
            with counters_lock:
                report.submitted += 1

    def _poller() -> None:
        while not stop.wait(config.poll_s):
            _poll_once()

    def _poll_once() -> None:
        for job_id, cls, t0 in tracker.take_snapshot():
            try:
                job = client.job(job_id)
            except ServiceError as exc:
                _note_error(exc)
                continue
            state = job["state"]
            if state in ("done", "failed", "cancelled"):
                tracker.remove(job_id)
                latency_ns = (time.monotonic() - t0) * 1e9
                with counters_lock:
                    report.per_class[cls].record(latency_ns)
                    if state == "done":
                        report.done += 1
                    elif state == "failed":
                        report.failed += 1
                    else:
                        report.cancelled += 1

    def _sampler() -> None:
        while not stop.wait(config.stats_interval_s):
            _sample_once()

    def _sample_once() -> None:
        try:
            stats = client.stats()
        except ServiceError as exc:
            _note_error(exc)
            return
        if stats_sink is not None:
            line = json.dumps(
                {"t_s": time.monotonic() - t_start, **stats},
                sort_keys=True,
            )
            stats_sink.write(line + "\n")
            stats_sink.flush()

    threads = [
        threading.Thread(target=_submitter, args=(i, cls),
                         name=f"soak-submit-{cls.name}", daemon=True)
        for i, cls in enumerate(classes)
    ]
    threads.append(threading.Thread(target=_poller, name="soak-poll",
                                    daemon=True))
    threads.append(threading.Thread(target=_sampler, name="soak-stats",
                                    daemon=True))
    for thread in threads:
        thread.start()

    # Submission window, then drain grace for stragglers.
    time.sleep(config.duration_s)
    log(f"soak: submission window over "
        f"({report.submitted} submitted); draining "
        f"{len(tracker)} outstanding")
    drain_deadline = time.monotonic() + config.drain_grace_s
    while len(tracker) and time.monotonic() < drain_deadline:
        time.sleep(config.poll_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    _poll_once()  # final sweep
    _sample_once()

    report.unfinished = len(tracker)
    try:
        report.final_stats = client.stats()
    except ServiceError as exc:
        _note_error(exc)
    client.close()
    counters = report.final_stats.get("counters", {})
    report.http_5xx += int(counters.get("service.http.5xx", 0))
    oldest = float(report.final_stats.get("oldest_claimed_s", 0.0))
    jobs = report.final_stats.get("jobs", {})
    if (jobs.get("claimed", 0) or jobs.get("running", 0)) and (
        oldest > config.stuck_claimed_s
    ):
        report.stuck = jobs.get("claimed", 0) + jobs.get("running", 0)

    for cls in classes:
        histogram = report.per_class[cls.name]
        if len(histogram):
            p = histogram.percentiles((50, 95, 99))
            log(f"soak[{cls.name}]: n={len(histogram)} "
                f"p50={p[50] / 1e9:.2f}s p95={p[95] / 1e9:.2f}s "
                f"p99={p[99] / 1e9:.2f}s")
        else:
            log(f"soak[{cls.name}]: n=0")
    log(f"soak: submitted={report.submitted} done={report.done} "
        f"failed={report.failed} cancelled={report.cancelled} "
        f"unfinished={report.unfinished} 5xx={report.http_5xx} "
        f"transport_errors={report.transport_errors} "
        f"stuck={report.stuck} -> {'OK' if report.ok else 'FAIL'}")
    return report
