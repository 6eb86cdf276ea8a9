"""Crash-safety of the real deployment shape: ``serve`` as a child
process with its own worker pool, killed and restarted mid-campaign.

These are the process-level twins of the CI ``service-crash-resume``
lane: SIGKILL of workers *and* server mid-run must converge -- after a
restart on the same database -- to an export byte-identical to a
direct engine run, and SIGTERM must drain cleanly with exit code 0.
"""

import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from repro.campaign.engine import export_json, run_campaign
from repro.campaign.spec import spec_from_dict
from repro.service.client import ServiceClient

pytestmark = [
    pytest.mark.slow,
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("no_inherited_leaks"),
]

REPO = Path(__file__).resolve().parent.parent

# Simulation-heavy points (a few hundred ms each) so "mid-campaign"
# is a wide-open window for the SIGKILL: ~2 s of work over 4 points.
SLOW_SPEC = {
    "name": "crash-probe",
    "sweeps": [{
        "name": "lt", "kind": "load_test",
        "base": {"system": "GS1280", "cpus": 16, "seed": 0,
                 "warmup_ns": 4000.0, "window_ns": 15000.0},
        "grid": {"outstanding": [2, 4, 6, 8]},
    }],
}


@contextmanager
def _serve(tmp_path: Path,
           *extra: str) -> Iterator[tuple[subprocess.Popen, str]]:
    """A ``serve`` child and the URL it announced.  Its output goes to a
    log file, so there is no pipe to drain or close; on exit a child
    still running is killed, and the child is always reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    log_path = tmp_path / f"serve-{len(list(tmp_path.glob('serve-*')))}.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.experiments.runner",
                "serve",
                "--db", str(tmp_path / "jobs.db"),
                "--cache-dir", str(tmp_path / "cache"),
                "--results-dir", str(tmp_path / "results"),
                "--port", "0",
                *extra,
            ],
            env=env, cwd=str(tmp_path),
            stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        yield proc, _wait_for_url(proc, log_path)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


def _wait_for_url(proc: subprocess.Popen, log_path: Path,
                  timeout_s: float = 30.0) -> str:
    """Read serve's log until it announces the bound address."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        match = re.search(r"listening on (\S+)\s", log_path.read_text())
        if match:
            return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    raise AssertionError(
        "serve never announced its address:\n" + log_path.read_text()
    )


def _direct_bytes(tmp_path: Path) -> bytes:
    direct = run_campaign(
        spec_from_dict(SLOW_SPEC),
        cache_dir=tmp_path / "direct-cache",
    )
    return export_json(direct).encode()


class TestSigtermDrain:
    def test_sigterm_after_work_exits_zero(self, tmp_path):
        with _serve(tmp_path, "--workers", "1") as (proc, url), \
                ServiceClient(url, timeout_s=10.0) as client:
            client.wait_healthy()
            job = client.submit("smoke", tenant="drain")
            final = client.wait(job["id"], timeout_s=120)
            assert final["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0

    def test_sigterm_idle_exits_zero(self, tmp_path):
        with _serve(tmp_path, "--workers", "2") as (proc, url), \
                ServiceClient(url, timeout_s=10.0) as client:
            client.wait_healthy()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


class TestSigkillResume:
    def test_kill9_mid_campaign_resumes_byte_identical(self, tmp_path):
        """Kill workers and server with SIGKILL once the campaign is
        partway through, restart on the same database, and require the
        final export to match a direct run byte for byte."""
        # Slow the run down so "mid-campaign" is a wide-open window:
        # full-fidelity points take long enough to straddle the kill.
        with _serve(tmp_path, "--workers", "1", "--no-respawn",
                    "--lease", "2") as (proc, url), \
                ServiceClient(url, timeout_s=10.0) as client:
            client.wait_healthy()
            job_id = client.submit(SLOW_SPEC, tenant="crash")["id"]

            # Wait until some -- but not all -- points are recorded.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                page = client.events(job_id)
                points = [e for e in page["events"]
                          if e["kind"] == "point"]
                if page["done"] or points:
                    break
                time.sleep(0.02)
            assert not page["done"], (
                "campaign finished before the kill; "
                "SLOW_SPEC is not slow enough"
            )

            worker_pids = client.stats()["workers"]["pids"]
            assert worker_pids, "no workers to kill"
            for pid in worker_pids:
                os.kill(pid, signal.SIGKILL)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            for pid in worker_pids:  # workers are orphans now; reap not ours
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    try:
                        os.kill(pid, 0)
                    except OSError:
                        break
                    time.sleep(0.05)

        # Restart on the same database: the dead worker's claim must be
        # reclaimed and the job must run to completion.
        with _serve(tmp_path, "--workers", "1",
                    "--lease", "2") as (proc2, url2), \
                ServiceClient(url2, timeout_s=10.0) as client2:
            client2.wait_healthy()
            final = client2.wait(job_id, timeout_s=180)
            assert final["state"] == "done"
            assert final["attempts"] >= 2  # the first claim died
            kinds = [e["kind"]
                     for e in client2.events(job_id)["events"]]
            assert "reclaimed" in kinds
            body = client2.result_bytes(job_id)
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0

        assert body == _direct_bytes(tmp_path)


class TestLeaseExpiryRace:
    def test_stalled_worker_loses_job_and_orphan_writes_bounce(
        self, tmp_path
    ):
        """The race the ownership guard exists for: worker A stalls
        past its lease (chaos stall with the heartbeat genuinely
        paused), the job is reclaimed and re-executed by worker B, and
        A's late writes are rejected -- the final export is B's and is
        byte-identical to a direct run."""
        import threading

        from repro.campaign.builtin import builtin_campaign
        from repro.service.chaos import ChaosPolicy
        from repro.service.store import JobStore
        from repro.service.worker import run_worker

        db = tmp_path / "jobs.db"
        cache_dir = tmp_path / "cache"
        results_dir = tmp_path / "results"
        store = JobStore(db)
        job_id = store.submit("race", {
            "campaign": "smoke", "fast": True, "seed": 0,
            "export": "json",
        })

        # Worker A stalls 2.5 s at every point boundary on a 0.5 s
        # lease; the stall pauses its heartbeat thread, so the lease
        # genuinely expires mid-stall.
        stall = ChaosPolicy(seed=0, worker_stall_rate=1.0,
                            worker_stall_s=2.5)
        stop_a, stop_b = threading.Event(), threading.Event()
        worker_a = threading.Thread(
            target=run_worker,
            args=(db, cache_dir, results_dir, "wA", stop_a),
            kwargs={"lease_s": 0.5, "poll_s": 0.02, "chaos": stall},
            daemon=True,
        )
        worker_a.start()
        try:
            # Wait for A to claim, then for the paused lease to lapse
            # and the maintenance reclaim to fire.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                job = store.get(job_id)
                if job.worker == "wA":
                    break
                time.sleep(0.02)
            assert store.get(job_id).worker == "wA"
            reclaimed = []
            while time.monotonic() < deadline and not reclaimed:
                reclaimed = store.reclaim(check_pid=False)
                time.sleep(0.05)
            assert reclaimed == [job_id]
            assert store.get(job_id).state == "queued"

            # Worker B (no chaos) picks the job up and finishes it.
            worker_b = threading.Thread(
                target=run_worker,
                args=(db, cache_dir, results_dir, "wB", stop_b),
                kwargs={"lease_s": 10.0, "poll_s": 0.02},
                daemon=True,
            )
            worker_b.start()
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                job = store.get(job_id)
                if job.state == "done":
                    break
                time.sleep(0.05)
            assert job.state == "done"
            assert job.worker == "wB"
            assert job.attempts == 2

            # Give orphan A time to wake from its stall and bounce off
            # the ownership guard, then stop both workers.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                counters = store.stats_counters()
                if counters.get("service.worker.orphan_writes", 0):
                    break
                time.sleep(0.05)
        finally:
            stop_a.set()
            stop_b.set()
            worker_a.join(timeout=30.0)

        counters = store.stats_counters()
        assert counters.get("service.worker.orphan_writes", 0) >= 1
        assert counters.get("service.worker.abandoned", 0) >= 1
        assert counters["service.chaos.injected.worker_stall"] >= 1
        events = store.events_since(job_id)
        kinds = [e["kind"] for e in events]
        assert "reclaimed" in kinds
        # No phantom progress events from the orphan: every point
        # event belongs to the winning attempt.
        point_workers = {e["data"].get("worker") for e in events
                         if e["kind"] == "point"
                         and "worker" in e["data"]}
        assert point_workers <= {"wB"}

        # The re-executed export is byte-identical to a direct run.
        job = store.get(job_id)
        body = Path(job.result_path).read_bytes()
        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            cache_dir=tmp_path / "direct-cache",
        )
        assert body == export_json(direct).encode()
