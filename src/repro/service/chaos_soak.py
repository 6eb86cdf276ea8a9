"""Chaos soak: a two-tenant campaign under aggressive fault injection.

This is the closed-loop proof for the resilience work (see
docs/resilience.md).  The driver boots its **own** deployment -- a
:func:`~repro.service.app.run_serve` thread with a seeded
:class:`~repro.service.chaos.ChaosPolicy` armed (worker SIGKILL/stalls,
injected HTTP 500s/latency/connection drops, SQLite busy holds) and
per-tenant admission control enabled -- then drives it with two tenants
built from the PR 7 arrival processes:

* ``steady``: a Poisson stream at a rate the token bucket comfortably
  admits, priority 1, retrying everything including 429;
* ``greedy``: a bursty MMPP stream far above its token rate, whose
  retry policy deliberately does **not** retry 429 so every throttle
  surfaces and is counted.

At the end the driver stops the service, opens the SQLite store
directly and asserts the invariants the chaos is trying to break:

* **zero lost jobs** -- every accepted submission reached a terminal
  state, and none of them ``failed``;
* **zero duplicated jobs** -- every retried ``POST /jobs`` resolved to
  exactly one store row (accepted ids are distinct and equal the row
  count);
* **isolation** -- the greedy tenant was throttled (>= 1 429) while the
  steady tenant's p99 submit latency stayed under the bound;
* **byte identity** -- a probe job submitted *during* the chaos window
  exports byte-identically to a direct ``run_campaign`` export;
* **no real 5xx** -- ``service.http.5xx`` stayed zero (injected errors
  are accounted under ``service.chaos.injected.*``, never there).
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy
from repro.service.soak import _template_pool
from repro.service.store import JobStore, TERMINAL_STATES
from repro.traffic.arrivals import MMPPArrivals, PoissonArrivals
from repro.traffic.histogram import LatencyHistogram

__all__ = ["ChaosSoakConfig", "ChaosSoakReport", "run_chaos_soak"]


@dataclass
class ChaosSoakConfig:
    """Everything the chaos soak needs; the driver owns ``workdir``."""

    workdir: str
    duration_s: float = 30.0
    seed: int = 0
    workers: int = 2
    lease_s: float = 2.0
    chaos: ChaosPolicy | None = None  # default: ChaosPolicy.aggressive
    templates: int = 4
    steady_rate_per_s: float = 1.5
    greedy_rate_per_s: float = 12.0
    tenant_rate_per_s: float = 3.0
    tenant_burst: float = 5.0
    queue_limit: int = 200
    shed_inflight: int = 64
    drain_grace_s: float = 90.0
    probe_timeout_s: float = 120.0
    steady_submit_p99_s: float = 5.0
    request_timeout_s: float = 10.0

    def policy(self) -> ChaosPolicy:
        if self.chaos is not None:
            return self.chaos
        return ChaosPolicy.aggressive(seed=self.seed, lease_s=self.lease_s)


@dataclass
class ChaosSoakReport:
    accepted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    lost: int = 0
    duplicates: int = 0
    store_rows: int = 0
    throttled_429: dict[str, int] = field(default_factory=dict)
    client_retries: int = 0
    steady_p99_s: float = 0.0
    steady_p99_bound_s: float = 0.0
    probe_identical: bool = False
    real_5xx: int = 0
    injected: dict[str, float] = field(default_factory=dict)
    final_counters: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.lost == 0
            and self.failed == 0
            and self.cancelled == 0
            and self.duplicates == 0
            and self.store_rows == self.accepted
            and self.throttled_429.get("greedy", 0) >= 1
            and self.steady_p99_s <= self.steady_p99_bound_s
            and self.probe_identical
            and self.real_5xx == 0
        )


def _serve_thread(config: ChaosSoakConfig, stop: threading.Event,
                  url_box: dict[str, str], log: Callable[[str], None]):
    """Build the ServeConfig and run it; parse the bound URL out of the
    serve log line (port 0 means the OS picks)."""
    from repro.service.app import ServeConfig, run_serve

    root = Path(config.workdir)
    serve_config = ServeConfig(
        db=str(root / "jobs.db"),
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
        port=0,
        workers=config.workers,
        lease_s=config.lease_s,
        maintenance_interval_s=0.25,
        chaos=config.policy(),
        tenant_rate_per_s=config.tenant_rate_per_s,
        tenant_burst=config.tenant_burst,
        queue_limit=config.queue_limit,
        shed_inflight=config.shed_inflight,
    )

    def _log(line: str) -> None:
        match = re.search(r"listening on (http://[^\s]+)", line)
        if match:
            url_box["url"] = match.group(1)
        log(f"  {line}")

    thread = threading.Thread(
        target=run_serve, args=(serve_config,),
        kwargs={"log": _log, "install_signals": False, "stop": stop},
        name="chaos-soak-serve", daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while "url" not in url_box:
        if time.monotonic() >= deadline:
            raise RuntimeError("serve did not come up within 30s")
        time.sleep(0.05)
    return thread, serve_config


def run_chaos_soak(config: ChaosSoakConfig,
                   log: Callable[[str], None] = print) -> ChaosSoakReport:
    """Run the chaos campaign; see the module docstring for the
    invariants the returned report's ``ok`` asserts."""
    import numpy as np

    from repro.campaign.builtin import builtin_campaign
    from repro.campaign.engine import export_json, run_campaign

    root = Path(config.workdir)
    root.mkdir(parents=True, exist_ok=True)
    policy = config.policy()
    log(f"chaos-soak: policy seed={policy.seed} "
        f"(kill={policy.worker_kill_rate} stall={policy.worker_stall_rate} "
        f"500={policy.http_error_rate} drop={policy.http_drop_rate})")

    stop_serve = threading.Event()
    url_box: dict[str, str] = {}
    serve_thread, serve_config = _serve_thread(
        config, stop_serve, url_box, log
    )
    url = url_box["url"]

    # Two tenants, two retry postures.  The steady client retries 429
    # (it is throttled rarely and politely); the greedy client does
    # not, so every throttle is observable in the report.
    steady = ServiceClient(
        url, timeout_s=config.request_timeout_s,
        retry=RetryPolicy(max_attempts=6, seed=config.seed),
    )
    greedy = ServiceClient(
        url, timeout_s=config.request_timeout_s,
        retry=RetryPolicy(max_attempts=4, seed=config.seed + 1,
                          statuses=(500, 502, 503, 504)),
    )
    steady.wait_healthy(timeout_s=20.0)

    templates = _template_pool(config.templates)
    tenants = (
        ("steady", steady, 1,
         PoissonArrivals(rate_per_ns=config.steady_rate_per_s)),
        ("greedy", greedy, 0,
         MMPPArrivals(
             rates_per_ns=(0.3 * config.greedy_rate_per_s,
                           2.0 * config.greedy_rate_per_s),
             dwell_ns=(2.0, 2.0),
         )),
    )

    report = ChaosSoakReport(
        steady_p99_bound_s=config.steady_submit_p99_s,
        throttled_429={"steady": 0, "greedy": 0},
    )
    submit_hist = {name: LatencyHistogram() for name, *_ in tenants}
    accepted_ids: set[str] = set()
    lock = threading.Lock()
    stop_flood = threading.Event()
    t_start = time.monotonic()

    def _submitter(index: int, name: str, client: ServiceClient,
                   priority: int, arrivals) -> None:
        rng = np.random.default_rng(config.seed * 1000 + index)
        gen = arrivals.generator(rng, 0.0)
        template_rng = np.random.default_rng(config.seed * 1000 + 500
                                             + index)
        while not stop_flood.is_set():
            at = gen.next_ns()  # "ns" domain == wall seconds here
            if at >= config.duration_s:
                return
            delay = t_start + at - time.monotonic()
            if delay > 0 and stop_flood.wait(delay):
                return
            template = templates[
                int(template_rng.integers(len(templates)))
            ]
            t0 = time.monotonic()
            try:
                job = client.submit(template, tenant=name,
                                    priority=priority, seed=config.seed)
            except ServiceError as exc:
                with lock:
                    if exc.status == 429:
                        report.throttled_429[name] += 1
                continue
            dt = time.monotonic() - t0
            with lock:
                submit_hist[name].record(dt * 1e9)
                if job["id"] in accepted_ids:
                    report.duplicates += 1
                accepted_ids.add(job["id"])
                report.accepted += 1

    threads = [
        threading.Thread(target=_submitter, args=(i, *spec),
                         name=f"chaos-soak-{spec[0]}", daemon=True)
        for i, spec in enumerate(tenants)
    ]
    for thread in threads:
        thread.start()

    # The probe rides *inside* the chaos window: a known campaign whose
    # export must still come out byte-identical to a direct run.
    probe_bytes = None
    probe = steady.submit("smoke", tenant="steady", priority=1,
                          seed=config.seed)
    with lock:
        accepted_ids.add(probe["id"])
        report.accepted += 1
    final = steady.wait(probe["id"], timeout_s=config.probe_timeout_s,
                        poll_s=0.1)
    if final["state"] == "done":
        probe_bytes = steady.result_bytes(probe["id"])
    log(f"chaos-soak: probe {probe['id']} -> {final['state']}")

    for thread in threads:
        thread.join(timeout=config.duration_s + 30.0)
    log(f"chaos-soak: window over ({report.accepted} accepted, "
        f"greedy 429s={report.throttled_429['greedy']}); draining")

    # Drain: every accepted job must reach a terminal state.
    outstanding = set(accepted_ids)
    states: dict[str, str] = {}
    drain_deadline = time.monotonic() + config.drain_grace_s
    while outstanding and time.monotonic() < drain_deadline:
        for job_id in list(outstanding):
            try:
                job = steady.job(job_id)
            except ServiceError:
                continue
            if job["state"] in TERMINAL_STATES:
                states[job_id] = job["state"]
                outstanding.discard(job_id)
        if outstanding:
            time.sleep(0.2)

    steady.close()
    greedy.close()
    stop_serve.set()
    serve_thread.join(timeout=serve_config.drain_timeout_s + 30.0)

    # Post-mortem directly against the store: the service is down, the
    # database is ground truth.
    store = JobStore(serve_config.db)
    try:
        by_state = store.counts_by_state()
        counters = store.stats_counters()
    finally:
        store.close()
    report.store_rows = sum(by_state.values())
    report.lost = len(outstanding)
    for state in states.values():
        if state == "done":
            report.done += 1
        elif state == "failed":
            report.failed += 1
        elif state == "cancelled":
            report.cancelled += 1
    report.client_retries = steady.retries + greedy.retries
    report.real_5xx = int(counters.get("service.http.5xx", 0))
    report.injected = {
        key: value for key, value in sorted(counters.items())
        if key.startswith("service.chaos.injected.")
        or key.startswith("service.admission.")
        or key in ("service.jobs.deduped", "service.worker.abandoned")
    }
    report.final_counters = dict(counters)
    if len(submit_hist["steady"]):
        report.steady_p99_s = (
            submit_hist["steady"].percentiles((99,))[99] / 1e9
        )

    # Byte identity: the probe's export vs a direct engine run.
    direct = run_campaign(
        builtin_campaign("smoke", fast=True, seed=config.seed),
        cache_dir=root / "direct-cache",
    )
    report.probe_identical = (probe_bytes == export_json(direct).encode())

    for name, histogram in submit_hist.items():
        if len(histogram):
            p = histogram.percentiles((50, 99))
            log(f"chaos-soak[{name}]: n={len(histogram)} "
                f"submit p50={p[50] / 1e9:.3f}s p99={p[99] / 1e9:.3f}s")
    log(f"chaos-soak: injected={report.injected}")
    log(f"chaos-soak: accepted={report.accepted} done={report.done} "
        f"failed={report.failed} lost={report.lost} "
        f"duplicates={report.duplicates} rows={report.store_rows} "
        f"greedy_429={report.throttled_429['greedy']} "
        f"steady_p99={report.steady_p99_s:.3f}s "
        f"retries={report.client_retries} "
        f"probe_identical={report.probe_identical} "
        f"real_5xx={report.real_5xx} "
        f"-> {'OK' if report.ok else 'FAIL'}")
    return report
