"""The HTTP control plane, end to end in one process.

The server and the worker loops run on threads against one SQLite
store, driven through :class:`repro.service.client.ServiceClient` over
real sockets -- the same path the CLI and the CI lanes use.  The
headline assertions mirror the acceptance criteria: exports fetched
through the service are byte-identical to a direct engine run, and a
point shared between concurrent tenants executes once service-wide.
"""

import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaign.builtin import builtin_campaign
from repro.campaign.cache import ResultCache
from repro.campaign.engine import export_csv, export_json, run_campaign
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ControlPlane, serve_http
from repro.service.store import JobStore
from repro.service.worker import run_worker

SMOKE_POINTS = 8  # 6 stream + 2 load_test points in the builtin


@contextmanager
def live_service(tmp_path, workers=2, cache_budget=None):
    """A full in-process service: HTTP server + N worker threads."""
    db = tmp_path / "jobs.db"
    cache_dir = tmp_path / "cache"
    results_dir = tmp_path / "results"
    store = JobStore(db)
    cache = ResultCache(cache_dir, byte_budget=cache_budget)
    plane = ControlPlane(store, cache, results_dir)
    server, http_thread = serve_http(plane, port=0)
    stop = threading.Event()
    worker_threads = [
        threading.Thread(
            target=run_worker,
            args=(db, cache_dir, results_dir, f"w{i}", stop),
            kwargs={"lease_s": 10.0, "poll_s": 0.02,
                    "cache_budget": cache_budget},
            name=f"svc-worker-{i}",
            daemon=True,
        )
        for i in range(workers)
    ]
    for thread in worker_threads:
        thread.start()
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    client = ServiceClient(url, timeout_s=10.0)
    try:
        yield SimpleNamespace(
            url=url, client=client,
            plane=plane, store=store, cache=cache,
            results_dir=results_dir,
        )
    finally:
        client.close()
        stop.set()
        server.shutdown()
        server.server_close()
        for thread in worker_threads:
            thread.join(timeout=10.0)
        http_thread.join(timeout=10.0)


class TestAcceptance:
    def test_two_tenants_byte_identical_to_direct_run(self, tmp_path):
        """Two tenants submit the same builtin campaign concurrently;
        both exports equal a direct ``run_campaign`` export byte for
        byte, and every distinct point executed exactly once."""
        with live_service(tmp_path / "svc", workers=2) as svc:
            a = svc.client.submit("smoke", tenant="alice", seed=0)
            b = svc.client.submit("smoke", tenant="bob", seed=0)
            final_a = svc.client.wait(a["id"], timeout_s=120, poll_s=0.02)
            final_b = svc.client.wait(b["id"], timeout_s=120, poll_s=0.02)
            assert final_a["state"] == "done"
            assert final_b["state"] == "done"
            bytes_a = svc.client.result_bytes(a["id"])
            bytes_b = svc.client.result_bytes(b["id"])
            counters = svc.store.stats_counters()

        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            jobs=2, cache_dir=tmp_path / "direct-cache",
        )
        expected = export_json(direct).encode()
        assert bytes_a == expected
        assert bytes_b == expected
        # The shared points ran once *service-wide*: every extra
        # request either coalesced onto an in-flight computation or
        # hit the cache.
        assert counters["service.points.computed"] == SMOKE_POINTS
        extra = (counters.get("service.points.coalesced", 0)
                 + counters.get("service.points.cache_hits", 0))
        assert counters["service.points.computed"] + extra \
            == 2 * SMOKE_POINTS

    def test_csv_export_matches_direct(self, tmp_path):
        with live_service(tmp_path / "svc", workers=1) as svc:
            job = svc.client.submit("smoke", tenant="csv", export="csv")
            final = svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            assert final["state"] == "done"
            body = svc.client.result_bytes(job["id"])
        direct = run_campaign(
            builtin_campaign("smoke", fast=True, seed=0),
            cache_dir=tmp_path / "direct-cache",
        )
        assert body == export_csv(direct).encode()

    def test_inline_spec_and_tenant_namespacing(self, tmp_path):
        spec = {
            "name": "inline",
            "sweeps": [{
                "name": "s", "kind": "stream",
                "base": {"kernel": "triad", "system": "GS1280"},
                "grid": {"cpus": [1, 4]},
            }],
        }
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit(spec, tenant="team-a/../sneaky")
            final = svc.client.wait(job["id"], timeout_s=60, poll_s=0.02)
            assert final["state"] == "done"
            # The tenant is sanitized into a single path component:
            # the "/" is gone, so ".." cannot act as a traversal step
            # and the export stays inside the results tree.
            from pathlib import Path

            resolved = Path(final["result_path"]).resolve()
            assert resolved.is_relative_to(svc.results_dir.resolve())
            relative = [p.relative_to(svc.results_dir)
                        for p in svc.results_dir.rglob("*.json")]
            assert len(relative) == 1
            assert len(relative[0].parts) == 2  # tenant/<job>.json
            assert "/" not in relative[0].parts[0]


class TestEventsAndProgress:
    def test_event_stream_pages_incrementally(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit("smoke", tenant="t")
            seen: list[dict] = []
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02,
                            on_event=seen.append)
            kinds = [e["kind"] for e in seen]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "done"
            assert kinds.count("point") == SMOKE_POINTS
            # Pages are strictly ordered and non-overlapping.
            seqs = [e["seq"] for e in seen]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            # Point events carry progress counts the CLI prints.
            point = next(e for e in seen if e["kind"] == "point")
            assert set(point["data"]) >= {"index", "total", "key",
                                          "status"}

    def test_since_pagination_resumes(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            job = svc.client.submit("smoke", tenant="t")
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            page1 = svc.client.events(job["id"], since=0)
            assert page1["done"]
            middle = page1["events"][3]["seq"]
            page2 = svc.client.events(job["id"], since=middle)
            assert [e["seq"] for e in page2["events"]] == [
                e["seq"] for e in page1["events"] if e["seq"] > middle
            ]


class TestLifecycleOverHttp:
    def test_cancel_queued_job(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            job = svc.client.submit("smoke", tenant="t")
            out = svc.client.cancel(job["id"])
            assert out["state"] == "cancelled"
            assert svc.client.job(job["id"])["state"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                svc.client.result_bytes(job["id"])
            assert err.value.status == 409

    def test_result_before_done_is_409(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            job = svc.client.submit("smoke", tenant="t")
            with pytest.raises(ServiceError) as err:
                svc.client.result_bytes(job["id"])
            assert err.value.status == 409

    def test_draining_refuses_submissions(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            svc.plane.draining.set()
            with pytest.raises(ServiceError) as err:
                svc.client.submit("smoke", tenant="t")
            assert err.value.status == 503
            assert svc.client.healthz()["draining"]


class TestValidationAndErrors:
    def test_unknown_campaign_is_rejected_at_submit(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit("no-such-campaign", tenant="t")
            assert err.value.status == 400

    def test_malformed_spec_is_rejected_at_submit(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit({"sweeps": "nope"}, tenant="t")
            assert err.value.status == 400

    def test_bad_export_format(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client.submit("smoke", export="parquet")
            assert err.value.status == 400

    def test_unknown_job_is_404(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            for call in (svc.client.job, svc.client.cancel,
                         svc.client.result_bytes):
                with pytest.raises(ServiceError) as err:
                    call("nope")
                assert err.value.status == 404

    def test_unknown_route_is_404_not_5xx(self, tmp_path):
        with live_service(tmp_path, workers=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc.client._request("GET", "/no/such/route")
            assert err.value.status == 404
            counters = svc.store.stats_counters()
            assert counters.get("service.http.5xx", 0) == 0
            assert counters["service.http.requests"] >= 1


class TestHealthAndStats:
    def test_healthz_and_stats_shape(self, tmp_path):
        with live_service(tmp_path, workers=1) as svc:
            health = svc.client.wait_healthy()
            assert health["ok"] and not health["draining"]
            job = svc.client.submit("smoke", tenant="t")
            svc.client.wait(job["id"], timeout_s=120, poll_s=0.02)
            stats = svc.client.stats()
            assert stats["jobs"]["done"] == 1
            assert stats["counters"]["service.jobs.submitted"] == 1
            assert stats["cache"]["entries"] == SMOKE_POINTS
            assert stats["cache"]["bytes"] > 0
            assert stats["uptime_s"] >= 0.0
            assert stats["oldest_claimed_s"] == 0.0

    def test_keepalive_responses_skip_the_delayed_ack(self, tmp_path):
        """Headers and body leave as two writes; with Nagle on, every
        response on a kept-alive connection waits out the client's
        delayed ACK (~40 ms on Linux)."""
        import http.client
        import statistics
        import time
        from urllib.parse import urlsplit

        with live_service(tmp_path, workers=0) as svc:
            url = urlsplit(svc.url)
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=5.0)
            times = []
            try:
                for _ in range(10):
                    start = time.perf_counter()
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    times.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
            assert statistics.median(times) < 0.020
