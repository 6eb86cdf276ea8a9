"""Claim latency: an idle worker wakes on its doorbell, not its poll.

``serve``'s supervisor gives every worker process a pipe on stdin and
writes one byte to it when a job is queued (``POST /jobs``) or
re-queued (the maintenance loop's reclaim).  The poll intervals here
are long, so a job claimed within a second can only have been claimed
because the bell rang.  The safety nets are checked too: a worker
whose pipe is at EOF falls back to plain polling without spinning,
and SIGTERM still drains a worker idle on the bell.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.parallel import WorkerSupervisor
from repro.service.app import ServeConfig, run_serve
from repro.service.server import ControlPlane
from repro.service.store import Job, JobStore
from repro.service.worker import run_worker

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_CAMPAIGN = {
    "name": "tiny",
    "sweeps": [{
        "name": "s", "kind": "stream",
        "base": {"kernel": "triad", "system": "GS1280"},
        "grid": {"cpus": [1]},
    }],
}
TINY_JOB = {"campaign": TINY_CAMPAIGN, "export": "json"}


@pytest.fixture
def child_path(monkeypatch):
    """Worker subprocesses import ``repro`` from this checkout."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def _worker_argv(tmp_path: Path, poll_s: float) -> list[str]:
    return [
        sys.executable, "-m", "repro.service.worker",
        "--db", str(tmp_path / "jobs.db"),
        "--cache-dir", str(tmp_path / "cache"),
        "--results-dir", str(tmp_path / "results"),
        "--poll", str(poll_s),
    ]


def _wait_done(store: JobStore, job_id: str, timeout_s: float) -> Job:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = store.get(job_id)
        if job is not None and job.state == "done":
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} not done after {timeout_s}s: "
                         f"{store.get(job_id)}")


class TestDoorbell:
    def test_submit_rings_an_idle_worker(self, tmp_path, child_path):
        """With a 5 s poll, a job submitted through the control plane
        starts well inside a second; with the bell disconnected it
        waits out the poll."""
        store = JobStore(tmp_path / "jobs.db")
        supervisor = WorkerSupervisor(
            lambda index: _worker_argv(tmp_path, poll_s=5.0))
        plane = ControlPlane(store, ResultCache(tmp_path / "cache"),
                             tmp_path / "results",
                             worker_pids=supervisor.pids,
                             wake=supervisor.ring)
        warm = store.submit("t", TINY_JOB)
        supervisor.spawn(1)
        try:
            _wait_done(store, warm, 60.0)
            time.sleep(0.3)
            status, record = plane.submit({"campaign": TINY_CAMPAIGN,
                                           "tenant": "t"})
            assert status == 201
            job = _wait_done(store, record["id"], 30.0)
            assert job.started_at - job.submitted_at < 1.0
            # Hanging up the bell wakes the idle worker to see SIGTERM.
            supervisor.terminate()
            assert supervisor.wait(2.0)
        finally:
            supervisor.kill()
            supervisor.wait(10.0)
            supervisor.reap()

    def test_reclaim_rings_an_idle_worker(self, tmp_path, child_path):
        """A job re-queued by the maintenance loop's reclaim is claimed
        at once, not at the worker's next 30 s poll."""

        class LongPoll(ServeConfig):
            def worker_argv(self, index: int) -> list[str]:
                return super().worker_argv(index) + ["--poll", "30"]

        config = LongPoll(str(tmp_path / "jobs.db"),
                          str(tmp_path / "cache"),
                          str(tmp_path / "results"), port=0, workers=1,
                          maintenance_interval_s=0.1)
        store = JobStore(config.db)
        warm = store.submit("t", TINY_JOB)
        stop = threading.Event()
        codes: list[int] = []
        serve = threading.Thread(
            target=lambda: codes.append(run_serve(
                config, log=lambda line: None, install_signals=False,
                stop=stop)),
            daemon=True)
        serve.start()
        try:
            _wait_done(store, warm, 60.0)
            time.sleep(0.3)
            # Queued straight into the store (no bell) and taken by a
            # ghost whose lease runs out: only the reclaim can free it.
            job_id = store.submit("t", TINY_JOB)
            ghost = store.claim("ghost", os.getpid(), lease_s=0.3)
            assert ghost is not None and ghost.id == job_id
            claimed_at = time.time()
            job = _wait_done(store, job_id, 15.0)
            assert job.worker != "ghost"
            assert job.started_at - claimed_at < 5.0
        finally:
            stop.set()
            serve.join(timeout=30.0)
        assert codes == [0]


class TestFallback:
    def test_eof_doorbell_polls_without_spinning(self, tmp_path,
                                                 monkeypatch):
        """A pipe at EOF (the server died) must not make the idle wait
        return at once forever: the worker claims about once per
        ``poll_s`` and still finds jobs queued behind the bell's back."""
        poll_s = 0.2
        claims: list[float] = []
        real_claim = JobStore.claim

        def counting_claim(self, *args, **kwargs):
            claims.append(time.monotonic())
            return real_claim(self, *args, **kwargs)

        monkeypatch.setattr(JobStore, "claim", counting_claim)
        read_end, write_end = os.pipe()
        os.close(write_end)
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(tmp_path / "jobs.db", tmp_path / "cache",
                  tmp_path / "results", "w0", stop),
            kwargs={"poll_s": poll_s, "wake_fd": read_end},
            daemon=True)
        worker.start()
        try:
            time.sleep(1.5)
            first_second = [t for t in claims if t - claims[0] < 1.0]
            assert len(first_second) <= 1 / poll_s + 2
            store = JobStore(tmp_path / "jobs.db")
            job = _wait_done(store, store.submit("t", TINY_JOB), 30.0)
            assert job.started_at - job.submitted_at < poll_s + 1.0
        finally:
            stop.set()
            worker.join(timeout=10.0)
            os.close(read_end)

    def test_sigterm_drains_a_worker_idle_on_the_bell(self, tmp_path,
                                                      child_path):
        """The bell stays open and silent; SIGTERM alone must end the
        wait within ``poll_s`` and exit 0."""
        poll_s = 1.0
        store = JobStore(tmp_path / "jobs.db")
        warm = store.submit("t", TINY_JOB)
        proc = subprocess.Popen(_worker_argv(tmp_path, poll_s),
                                stdin=subprocess.PIPE)
        try:
            _wait_done(store, warm, 60.0)
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=poll_s + 2.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
