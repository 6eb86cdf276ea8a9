"""The service worker: claim a job, run its points, export, repeat.

One worker is one OS process (``gs1280-repro serve`` spawns a pool of
them via ``python -m repro.service.worker``); for in-process tests the
same loop runs happily on a thread with a ``threading.Event`` as the
stop signal.  The loop is deliberately boring:

1. :meth:`JobStore.claim` the best queued job (priority, then
   submission order) under a lease.  Idle, the worker sleeps on its
   doorbell -- stdin, a pipe the ``serve`` supervisor writes a byte to
   whenever a job is queued or re-queued -- so a new job is claimed
   at once; ``--poll`` stays the safety net.  At EOF (the server is
   gone) or with no pipe on stdin it simply polls.
2. Expand its campaign spec exactly the way ``gs1280-repro sweep``
   does, then execute the points *in expansion order* through
   :func:`~repro.service.coalesce.compute_point_shared` -- cache hits
   are free, in-flight duplicates coalesce, everything computed is
   persisted to the shared content-addressed cache before the job
   advances.  A heartbeat thread extends the lease while points run.
3. Assemble the same :class:`~repro.campaign.engine.CampaignResult`
   the sweep CLI would and write its export atomically into the
   tenant's result namespace; ``mark_done``.

Because every point lands in the cache the moment it completes, a
worker killed mid-job loses *no* completed work: the reclaimed job's
next attempt re-expands the same points, hits the cache for the done
ones, and produces a byte-identical export.

Cancellation is cooperative with point granularity: the worker checks
``cancel_requested`` between points and acknowledges with
``mark_cancelled``.

SIGTERM drains: the current job runs to completion, then the loop
exits instead of claiming again.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import select
import signal
import stat
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.cache import ResultCache
from repro.campaign.engine import (
    CampaignResult,
    PointOutcome,
    expand_points,
    export_csv,
    export_json,
)
from repro.campaign.spec import CampaignSpec, spec_from_dict
from repro.service.chaos import ChaosEngine, ChaosPolicy, policy_from_value
from repro.service.coalesce import InflightRegistry, compute_point_shared
from repro.service.store import Job, JobStore

__all__ = [
    "JobAbandoned",
    "execute_job",
    "main",
    "resolve_campaign",
    "run_worker",
    "safe_tenant",
]

_TENANT_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Export formats a job may request.
EXPORT_FORMATS = ("json", "csv")


def safe_tenant(tenant: str) -> str:
    """A tenant name usable as a single path component (namespaces are
    directories; never let a tenant escape its own)."""
    cleaned = _TENANT_RE.sub("_", tenant.strip()) or "default"
    return cleaned.lstrip(".") or "default"


class JobAbandoned(RuntimeError):
    """The job was reclaimed or cancelled under us; stop touching it."""


def resolve_campaign(spec: Mapping[str, Any]) -> CampaignSpec:
    """A job spec's campaign: a builtin name or an inline spec dict.

    Mirrors ``gs1280-repro sweep`` exactly (same builtin constructors,
    same ``fast``/``seed`` defaults), which is what makes a service
    export byte-comparable to a direct sweep of the same campaign.
    """
    campaign = spec.get("campaign")
    if isinstance(campaign, str):
        from repro.campaign import builtin_campaign, builtin_names

        try:
            return builtin_campaign(
                campaign,
                fast=bool(spec.get("fast", True)),
                seed=int(spec.get("seed", 0)),
            )
        except KeyError:
            raise ValueError(
                f"unknown builtin campaign {campaign!r}; "
                f"built-ins: {' '.join(builtin_names())}"
            ) from None
    if isinstance(campaign, Mapping):
        return spec_from_dict(campaign)
    raise ValueError(
        "job spec needs 'campaign': a builtin name or a spec object"
    )


class _Heartbeat:
    """Lease extension on a thread while the job's points execute."""

    def __init__(self, store: JobStore, job_id: str, worker: str,
                 lease_s: float) -> None:
        self._store = store
        self._job_id = job_id
        self._worker = worker
        self._lease_s = lease_s
        self._stop = threading.Event()
        self._paused_until = 0.0
        self.lost = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{job_id}", daemon=True
        )

    def pause_for(self, seconds: float) -> None:
        """Suppress lease extension for ``seconds`` -- the chaos
        stall: a genuinely frozen worker process stops heartbeating
        too, so a stall longer than the lease *must* let the job be
        reclaimed out from under us."""
        self._paused_until = time.monotonic() + seconds

    def _run(self) -> None:
        interval = max(self._lease_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            if time.monotonic() < self._paused_until:
                continue
            if not self._store.heartbeat(
                self._job_id, self._worker, self._lease_s
            ):
                self.lost.set()
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _apply_point_chaos(chaos: ChaosEngine, store: JobStore,
                       beat: _Heartbeat) -> None:
    """One point boundary's injected worker fault, if any.

    ``sigkill`` is the real thing -- ``SIGKILL`` to our own pid, no
    cleanup, exactly what the lease/reclaim/cache-resume machinery
    claims to survive (the counter is bumped *first* so the injection
    is visible in ``/stats`` even though this process never returns).
    ``stall`` freezes progress *and* heartbeating past the lease, so
    the job is reclaimed and this worker wakes up an orphan.
    """
    fault = chaos.worker_point_fault()
    if fault is None:
        return
    kind, arg = fault
    if kind == "sigkill":
        store.bump("service.chaos.injected.worker_kill")
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - unreachable after SIGKILL
    store.bump("service.chaos.injected.worker_stall")
    beat.pause_for(arg)
    time.sleep(arg)


def _write_result(path: Path, text: str) -> None:
    """Atomic write so a half-written export is never served."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _record_failure(store: JobStore, job: Job, worker: str,
                    exc: BaseException) -> None:
    """Failure accounting: the terminal event carries the traceback
    and a ``service.worker.failures.<ExceptionType>`` counter is
    bumped, so a chaos run can tell injected damage (``JobAbandoned``
    after a stall, reclaim races) from real bugs (anything else)."""
    store.bump(f"service.worker.failures.{type(exc).__name__}")
    store.mark_failed(
        job.id, worker,
        f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
    )


def execute_job(
    job: Job,
    store: JobStore,
    cache: ResultCache,
    inflight: InflightRegistry,
    results_dir: str | Path,
    worker: str,
    pid: int,
    lease_s: float = 15.0,
    chaos: ChaosEngine | None = None,
) -> str:
    """Run one claimed job to its terminal state; returns that state."""
    try:
        spec = resolve_campaign(job.spec)
        export_format = str(job.spec.get("export", "json"))
        if export_format not in EXPORT_FORMATS:
            raise ValueError(
                f"unknown export format {export_format!r}; "
                f"one of {EXPORT_FORMATS}"
            )
        points = expand_points(spec)
    except Exception as exc:
        _record_failure(store, job, worker, exc)
        return "failed"

    if not store.mark_running(job.id, worker, len(points)):
        return "abandoned"  # reclaimed between claim and start

    from repro.telemetry import global_registry

    registry = global_registry()
    entries: dict[str, tuple[dict[str, Any], float, str]] = {}
    try:
        with _Heartbeat(store, job.id, worker, lease_s) as beat:
            for index, pt in enumerate(points):
                if chaos is not None:
                    _apply_point_chaos(chaos, store, beat)
                if beat.lost.is_set():
                    raise JobAbandoned(job.id)
                if store.cancel_requested(job.id):
                    store.mark_cancelled(job.id, worker)
                    return "cancelled"
                if pt.key in entries:
                    if not store.record_point(job.id, worker, index,
                                              len(points), pt.key,
                                              "shared"):
                        raise JobAbandoned(job.id)
                    continue
                with registry.deltas() as delta:
                    result, elapsed, status = compute_point_shared(
                        inflight, cache, pt.key, pt.kind, pt.params,
                        owner=worker, pid=pid,
                    )
                entries[pt.key] = (result, elapsed, status)
                if status == "computed" and cache.byte_budget is not None:
                    evicted = cache.evict_to_budget(
                        protect=inflight.live_keys() | {pt.key}
                    )
                    if evicted:
                        store.bump("service.cache.evicted", len(evicted))
                if not store.record_point(job.id, worker, index,
                                          len(points), pt.key, status,
                                          telemetry=delta):
                    # The job was reclaimed while this point computed
                    # (stall past the lease): the result is safely in
                    # the shared cache for the winning attempt, but
                    # this orphan must stop writing job state.
                    raise JobAbandoned(job.id)
    except JobAbandoned:
        store.bump("service.worker.abandoned")
        return "abandoned"
    except Exception as exc:
        _record_failure(store, job, worker, exc)
        return "failed"

    outcomes = [
        PointOutcome(
            point=pt,
            result=entries[pt.key][0],
            status="computed" if entries[pt.key][2] == "computed" else "hit",
            elapsed_s=entries[pt.key][1],
        )
        for pt in points
    ]
    campaign_result = CampaignResult(
        name=spec.name, outcomes=outcomes, wall_s=0.0,
        cache_dir=str(cache.root),
    )
    text = (export_csv(campaign_result) if export_format == "csv"
            else export_json(campaign_result))
    result_path = (Path(results_dir) / safe_tenant(job.tenant)
                   / f"{job.id}.{export_format}")
    _write_result(result_path, text)
    if not store.mark_done(job.id, worker, str(result_path)):
        return "abandoned"
    return "done"


def _await_bell(wake_fd: int, timeout_s: float) -> int | None:
    """Sleep until the doorbell rings or ``timeout_s`` passes, draining
    every pending bell so a burst of them costs one claim.  Returns the
    fd to wait on next time: ``None`` once the pipe is at EOF, where a
    select would return at once forever."""
    readable, _, _ = select.select([wake_fd], [], [], timeout_s)
    if readable and not os.read(wake_fd, 1 << 16):
        return None
    return wake_fd


def run_worker(
    db: str | Path,
    cache_dir: str | Path,
    results_dir: str | Path,
    worker_id: str,
    stop: threading.Event,
    lease_s: float = 15.0,
    poll_s: float = 0.1,
    cache_budget: int | None = None,
    inflight_lease_s: float = 600.0,
    idle_exit_s: float | None = None,
    chaos: ChaosPolicy | None = None,
    wake_fd: int | None = None,
) -> int:
    """The claim/execute loop; returns the number of jobs handled.

    ``stop`` drains: set it and the worker exits after finishing the
    job in hand (or, if idle, within ``poll_s``).  ``wake_fd`` is the
    read end of a doorbell pipe: idle, the worker waits on it instead
    of sleeping the whole ``poll_s``.  ``idle_exit_s`` lets tests
    and one-shot tools run the loop to quiescence.  ``chaos`` arms
    deterministic self-inflicted faults (kill/stall/slow-claim, scoped
    to this ``worker_id``'s decision stream); never arm a policy with
    ``worker_kill_rate > 0`` on an in-process (thread) worker -- the
    SIGKILL targets the whole process.
    """
    engine = (ChaosEngine(chaos, scope=worker_id)
              if chaos is not None and chaos.enabled else None)
    store = JobStore(db, chaos=engine)
    cache = ResultCache(cache_dir, byte_budget=cache_budget)
    inflight = InflightRegistry(store, lease_s=inflight_lease_s)
    pid = os.getpid()
    handled = 0
    idle_since = time.monotonic()
    while not stop.is_set():
        if engine is not None:
            delay_s = engine.claim_delay()
            if delay_s:
                store.bump("service.chaos.injected.claim_delay")
                if stop.wait(delay_s):
                    break
        job = store.claim(worker_id, pid, lease_s)
        if job is None:
            if (idle_exit_s is not None
                    and time.monotonic() - idle_since >= idle_exit_s):
                break
            if wake_fd is None:
                stop.wait(poll_s)
            else:
                wake_fd = _await_bell(wake_fd, poll_s)
            continue
        execute_job(job, store, cache, inflight, results_dir,
                    worker_id, pid, lease_s=lease_s, chaos=engine)
        handled += 1
        idle_since = time.monotonic()
    store.close()
    return handled


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.worker`` -- one pool member."""
    parser = argparse.ArgumentParser(prog="repro-service-worker")
    parser.add_argument("--db", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--lease", type=float, default=15.0)
    parser.add_argument("--poll", type=float, default=0.1)
    parser.add_argument("--cache-budget", type=int, default=None,
                        help="result-cache byte budget (LRU eviction)")
    parser.add_argument("--idle-exit", type=float, default=None,
                        help="exit after this many idle seconds "
                        "(default: run until signalled)")
    parser.add_argument("--chaos", default=None, metavar="JSON",
                        help="ChaosPolicy JSON (inline or a file path); "
                        "arms deterministic worker fault injection")
    args = parser.parse_args(argv)

    worker_id = args.worker_id or f"worker-{os.getpid()}"
    chaos = (policy_from_value(args.chaos)
             if args.chaos is not None else None)
    stop = threading.Event()

    def _drain(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        doorbell = stat.S_ISFIFO(os.fstat(0).st_mode)
    except OSError:  # stdin closed
        doorbell = False
    # Nothing above loads the simulator (the control plane never needs
    # it); load it before the first claim so no job pays for the import.
    for module in ("numpy", "repro.systems"):
        importlib.import_module(module)
    run_worker(
        args.db, args.cache_dir, args.results_dir, worker_id, stop,
        lease_s=args.lease, poll_s=args.poll,
        cache_budget=args.cache_budget, idle_exit_s=args.idle_exit,
        chaos=chaos, wake_fd=0 if doorbell else None,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
