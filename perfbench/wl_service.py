"""Workload ``service-jobs``: the job service behind ``gs1280-repro serve``.

One ``serve --workers 1`` subprocess is driven by one single-threaded
client, the program's own ``ServiceClient``, so at most one connection is
open at a time.  Open loop: submissions are
due at Poisson times, 4 jobs/s, drawn from the seeded generator, and are
sent when due whatever the backlog.  Each job is an inline campaign spec
of 4-8 small ``load_test`` points.  About one job in four carries points
never seen before, so the worker computes them; the rest repeat an
earlier job's spec, so every point is a cache hit.  A job is timed from
its due time to its export bytes in hand.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from harness import (
    ROOT,
    HostSpeed,
    Spans,
    child_env,
    median,
    peak_rss_pid_mb,
    percentile,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy

RATE_PER_S = 4.0
COLD_SHARE = 0.25
POLL_S = 0.02
DRAIN_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")


def job_stream(seed: int, seconds: float) -> list[dict[str, Any]]:
    """The seeded open-loop schedule of ``RATE_PER_S * seconds`` jobs:
    ``due_s``, campaign spec and whether the job's points are new
    (``cold``)."""
    rng = random.Random(seed)
    jobs: list[dict[str, Any]] = []
    cold_specs: list[dict[str, Any]] = []
    due = 0.0
    for _ in range(max(1, round(RATE_PER_S * seconds))):
        due += rng.expovariate(RATE_PER_S)
        cold = not cold_specs or rng.random() < COLD_SHARE
        if cold:
            first = len(cold_specs) * 4
            seeds = [seed * 1_000_000 + first + k
                     for k in range(rng.randint(2, 4))]
            spec = cold_job_spec(f"job-{len(cold_specs)}", seeds)
            cold_specs.append(spec)
        else:
            spec = rng.choice(cold_specs)
        jobs.append({"due_s": due, "spec": spec, "cold": cold})
    return jobs


def cold_job_spec(name: str, seeds: list[int]) -> dict[str, Any]:
    """A job's campaign: one short 4P load-test point per system and
    seed, so distinct seeds make points no earlier job had."""
    return {
        "name": name,
        "sweeps": [{
            "name": "load-4p",
            "kind": "load_test",
            "base": {"cpus": 4, "outstanding": 4, "warmup_ns": 300.0,
                     "window_ns": 1000.0},
            "grid": {"system": ["GS1280", "GS320"], "seed": seeds},
        }],
    }


def reference_export(spec: dict[str, Any]) -> bytes:
    """The direct (no service, no cache) export of one job's campaign."""
    from repro.campaign import export_json, run_campaign, spec_from_dict

    return export_json(run_campaign(spec_from_dict(spec))).encode()


class Server:
    """One ``gs1280-repro serve --workers 1`` subprocess with its own
    job store, cache and result directories under ``work_dir``."""

    def __init__(self, work_dir: Path) -> None:
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; returns seconds from spawn to the first
        ``/healthz`` 200 with the worker alive."""
        log_path = self.dir / "serve.log"
        start = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.experiments.runner",
                 "serve", "--workers", "1", "--port", "0",
                 "--db", str(self.dir / "jobs.db"),
                 "--cache-dir", str(self.dir / "cache"),
                 "--results-dir", str(self.dir / "results")],
                cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = start + 60.0
        api = None
        while True:
            if api is None:
                match = re.search(r"listening on (http://[\d.]+:\d+)",
                                  log_path.read_text())
                if match:
                    self.url = match.group(1)
                    api = ServiceClient(self.url, timeout_s=5.0)
            else:
                try:
                    if api.healthz()["workers_alive"]:
                        return time.perf_counter() - start
                except ServiceError:
                    pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("serve did not become healthy:\n"
                                   + log_path.read_text())
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM drain; the whole session is killed if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=30)


class Client:
    """The single-threaded client: the program's own ``ServiceClient``
    (one request, so one connection, at a time; retries with backoff on
    transport errors, 429 and 5xx), with per-route latency samples and,
    when tracing, one span per call."""

    def __init__(self, url: str, seed: int, spans: Spans | None) -> None:
        self.api = ServiceClient(url, timeout_s=30.0,
                                 retry=RetryPolicy(seed=seed))
        self.spans = spans
        self.latency: dict[str, list[float]] = {
            "submit": [], "job": [], "result": []}

    def call(self, route: str, uid: str, traced: bool,
             fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, timed; a ``ServiceError`` left after
        the retries propagates."""
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.latency[route].append((end - start) / 1e9)
            if traced and self.spans is not None:
                self.spans.add(f"service.http.{route}",
                               self.spans.rel(start), self.spans.rel(end),
                               uid)


def run_jobs(client: Client, jobs: list[dict[str, Any]],
             references: dict[str, bytes], trace_from_s: float | None,
             id_prefix: str) -> list[dict[str, Any]]:
    """Drive the open loop to completion; one record per job."""
    api = client.api
    records: list[dict[str, Any]] = [{} for _ in jobs]
    pending: dict[str, int] = {}
    start = time.perf_counter() + 0.05
    deadline = start + jobs[-1]["due_s"] + DRAIN_TIMEOUT_S
    nxt = 0
    while nxt < len(jobs) or pending:
        now = time.perf_counter()
        if nxt < len(jobs) and now >= start + jobs[nxt]["due_s"]:
            job = jobs[nxt]
            uid = f"{id_prefix}-{nxt}"
            record = records[nxt]
            record.update(index=nxt, uid=uid, cold=job["cold"], errors=[],
                          traced=(trace_from_s is not None
                                  and job["due_s"] >= trace_from_s),
                          late_s=now - (start + job["due_s"]))
            try:
                submitted = client.call(
                    "submit", uid, record["traced"], api.submit,
                    job["spec"], tenant="perfbench", submit_key=uid)
                pending[submitted["id"]] = nxt
            except ServiceError as exc:
                record["errors"].append(str(exc))
            nxt += 1
            continue
        for job_id, index in list(pending.items()):
            record = records[index]
            try:
                state = client.call("job", record["uid"], record["traced"],
                                    api.job, job_id)
                if state["state"] not in TERMINAL:
                    break  # one worker runs jobs in order; later ones wait
                del pending[job_id]
                if state["state"] != "done":
                    record["errors"].append(f"job ended {state['state']}")
                    continue
                export = client.call("result", record["uid"],
                                     record["traced"], api.result_bytes,
                                     job_id)
            except ServiceError as exc:
                pending.pop(job_id, None)
                record["errors"].append(str(exc))
                continue
            due = start + jobs[index]["due_s"]
            record.update(
                latency_s=time.perf_counter() - due,
                queue_wait_s=state["started_at"] - state["submitted_at"],
                run_s=state["finished_at"] - state["started_at"],
                server_times=(state["submitted_at"], state["started_at"],
                              state["finished_at"]),
            )
            name = jobs[index]["spec"]["name"]
            if export != references[name]:
                record["errors"].append(f"export of {name} differs from "
                                        "the direct run_campaign export")
        if time.perf_counter() > deadline:
            for index in pending.values():
                records[index]["errors"].append("timed out")
            break
        wake = time.perf_counter() + POLL_S
        if nxt < len(jobs):
            wake = min(wake, start + jobs[nxt]["due_s"])
        time.sleep(max(0.0, wake - time.perf_counter()))
    return records


def measure(seed: int, seconds: float, trace: bool, spans: Spans | None,
            work_dir: Path, setups: int, speed: HostSpeed) -> dict:
    """Set the service up ``setups`` times (the last one serves the
    run), then drive the job stream for ``seconds``.

    Set-up times are scaled to reference-host seconds by ``speed``; job
    latencies are not, because timers (the worker's claim polling, the
    client's polling) rather than host speed dominate them."""
    jobs = job_stream(seed, seconds)
    references = {job["spec"]["name"]: reference_export(job["spec"])
                  for job in jobs if job["cold"]}
    setup_times: list[float] = []
    servers: list[Server] = []
    try:
        for k in range(setups):
            if servers:
                servers[-1].stop()
            servers.append(Server(work_dir / f"serve-{k}"))
            speed.measure()
            setup_times.append(speed.scale(servers[-1].start()))
        server = servers[-1]
        client = Client(server.url, seed, spans)
        # One untimed job first, so the worker's lazy imports are done.
        warmup = cold_job_spec("warm-up", [seed * 1_000_000 + 999_999])
        (warm_record,) = run_jobs(
            client, [{"due_s": 0.0, "spec": warmup, "cold": True}],
            {"warm-up": reference_export(warmup)}, None, "warmup")
        if warm_record["errors"]:
            raise RuntimeError(f"warm-up job failed: {warm_record}")
        client.latency = {route: [] for route in client.latency}
        before = client.api.stats()
        wall_offset = time.time() - time.perf_counter()
        records = run_jobs(client, jobs, references,
                           seconds / 2 if trace else None, f"s{seed}")
        after = client.api.stats()
        rss = {"server": peak_rss_pid_mb(server.proc.pid)}
        for pid in after["workers"]["pids"]:
            rss[f"worker-{pid}"] = peak_rss_pid_mb(pid)
    finally:
        for server in servers:
            server.stop()
    return summarize(jobs, records, client, before, after, setup_times,
                     rss, trace, spans, wall_offset)


def summarize(jobs: list[dict[str, Any]], records: list[dict[str, Any]],
              client: Client, before: dict[str, Any], after: dict[str, Any],
              setup_times: list[float], rss: dict[str, float], trace: bool,
              spans: Spans | None, wall_offset: float) -> dict:
    def delta(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    errors = [f"job {r['index']}: {e}" for r in records
              for e in r.get("errors", [])]
    failed = sum(1 for r in records if r.get("errors") or not r)
    latencies = [r["latency_s"] for r in records if "latency_s" in r]
    computed = delta("service.points.computed")
    hits = delta("service.points.cache_hits")
    expected_computed = sum(_points(j) for j in jobs if j["cold"])
    expected_hits = sum(_points(j) for j in jobs if not j["cold"])
    if (computed, hits) != (expected_computed, expected_hits):
        errors.append(f"points computed/hit {computed}/{hits} != "
                      f"expected {expected_computed}/{expected_hits}")
    if delta("service.http.5xx"):
        errors.append(f"{delta('service.http.5xx')} HTTP 5xx")
    result = {
        "op_times": latencies,
        "setup_times": setup_times,
        "peak_rss_mb": max(rss.values()),
        "peak_rss_by_process_mb": rss,
        "attempted": len(jobs),
        "failed": failed,
        "errors": errors,
        "jobs": len(jobs),
        "cold_jobs": sum(1 for j in jobs if j["cold"]),
        "repeated_share": hits / (computed + hits) if computed + hits else 0,
    }
    if trace:
        def ok(r: dict[str, Any], cold: bool) -> bool:
            return "run_s" in r and r["cold"] == cold

        warm_traced = [r["latency_s"] for r in records
                       if ok(r, False) and r["traced"]]
        warm_untraced = [r["latency_s"] for r in records
                         if ok(r, False) and not r["traced"]]
        waits = [r["queue_wait_s"] for r in records if "queue_wait_s" in r]
        result["layers"] = {
            "service.http.submit_s": median(client.latency["submit"]),
            "service.http.job_s": median(client.latency["job"]),
            "service.http.result_s": median(client.latency["result"]),
            "service.queue_wait_p50_s": percentile(waits, 50),
            "service.queue_wait_p90_s": percentile(waits, 90),
            "service.run_cold_s": median(
                [r["run_s"] for r in records if ok(r, True)]),
            "service.run_warm_s": median(
                [r["run_s"] for r in records if ok(r, False)]),
            "service.http.requests_per_job": (
                delta("service.http.requests") / len(jobs)),
            "service.points.computed": computed,
            "service.points.cache_hits": hits,
            "service.http.5xx": delta("service.http.5xx"),
            "service.jobs.failed": (after["jobs"].get("failed", 0)
                                    - before["jobs"].get("failed", 0)),
            "gen.late_p90_s": percentile(
                [r["late_s"] for r in records if "late_s" in r], 90),
            "trace.overhead_frac": (
                median(warm_traced) / median(warm_untraced) - 1.0
                if warm_traced and warm_untraced else 0.0),
        }
        for r in records:
            if r.get("traced") and "server_times" in r:
                submitted, started, finished = (
                    spans.rel(int((t - wall_offset) * 1e9))
                    for t in r["server_times"])
                spans.add("service.queue_wait", submitted, started,
                          r["uid"], pid=2)
                spans.add("service.run", started, finished, r["uid"], pid=2)
    return result


def _points(job: dict[str, Any]) -> int:
    grid = job["spec"]["sweeps"][0]["grid"]
    return len(grid["system"]) * len(grid["seed"])
