"""Retry policy, token buckets, admission control -- unit and live.

Unit tests pin the backoff recurrence, the bucket arithmetic and the
shedding order with injectable clocks; the live tests prove the 429 +
``Retry-After`` contract and client idempotency over a real HTTP
round trip.
"""

import random
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaign.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import (
    ROUTE_CLASSES,
    AdmissionController,
    RetryPolicy,
    TokenBucket,
    backoff_delays,
)
from repro.service.server import ControlPlane, serve_http
from repro.service.store import JobStore

pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("no_inherited_leaks"),
]


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRetryPolicy:
    def test_defaults_cover_throttling_and_transients(self):
        policy = RetryPolicy()
        assert policy.retryable(429)
        assert policy.retryable(503)
        assert policy.retryable(None)  # transport failure
        assert not policy.retryable(404)
        assert not policy.retryable(400)

    def test_connect_retry_is_optional(self):
        assert not RetryPolicy(retry_connect=False).retryable(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.5, cap_s=0.1)

    def test_backoff_is_capped_decorrelated_jitter(self):
        policy = RetryPolicy(max_attempts=8, base_s=0.1, cap_s=1.0)
        delays = backoff_delays(policy, random.Random(42))
        assert len(delays) == 7
        prev = policy.base_s
        for delay in delays:
            assert policy.base_s <= delay <= min(policy.cap_s,
                                                 3.0 * prev)
            prev = delay

    def test_backoff_is_seed_deterministic(self):
        policy = RetryPolicy(max_attempts=6)
        assert backoff_delays(policy, random.Random(7)) \
            == backoff_delays(policy, random.Random(7))


class TestTokenBucket:
    def test_burst_then_refusal_with_refill_eta(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0, now=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        eta = bucket.try_take()
        assert eta == pytest.approx(0.5)  # 1 token / 2 per second

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2.0, now=clock)
        bucket.try_take(2.0)
        assert bucket.try_take() > 0.0
        clock.advance(0.5)  # one token back
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0

    def test_refill_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, now=clock)
        clock.advance(100.0)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0  # only burst-many accumulated

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestAdmissionController:
    def test_route_classes_cover_every_route(self):
        assert set(ROUTE_CLASSES.values()) == {
            "shed_first", "shed_last", "never"
        }
        assert ROUTE_CLASSES["healthz"] == "never"
        assert ROUTE_CLASSES["cancel"] == "never"
        assert ROUTE_CLASSES["stats"] == "shed_first"
        assert ROUTE_CLASSES["submit"] == "shed_last"

    def test_shedding_order_under_pressure(self):
        """Observability sheds first; submissions hold on to 2x the
        threshold; the control surface never sheds."""
        admission = AdmissionController(shed_inflight=2)
        trackers = [admission.track().__enter__() for _ in range(3)]
        try:
            ok_stats, _, reason = admission.admit_route("stats")
            ok_submit, *_ = admission.admit_route("submit")
            ok_health, *_ = admission.admit_route("healthz")
            assert not ok_stats and reason == "shed.stats"
            assert ok_submit  # 3 <= 2 * 2
            assert ok_health
            for _ in range(2):
                trackers.append(admission.track().__enter__())
            ok_submit_now, _, submit_reason = admission.admit_route(
                "submit"
            )
            ok_cancel, *_ = admission.admit_route("cancel")
            assert not ok_submit_now and submit_reason == "shed.submit"
            assert ok_cancel
        finally:
            for tracker in trackers:
                tracker.__exit__(None, None, None)
        assert admission.inflight == 0

    def test_no_shedding_when_disabled(self):
        admission = AdmissionController()  # no knobs set
        with admission.track():
            assert admission.admit_route("stats")[0]
            assert admission.admit_submit("t", queue_depth=10 ** 6)[0]

    def test_queue_limit_refuses_before_rate(self):
        admission = AdmissionController(tenant_rate_per_s=100.0,
                                        queue_limit=5)
        ok, retry_after, reason = admission.admit_submit("t",
                                                         queue_depth=5)
        assert not ok and reason == "queue_full" and retry_after > 0

    def test_tenant_buckets_are_isolated(self):
        clock = FakeClock()
        admission = AdmissionController(tenant_rate_per_s=1.0,
                                        tenant_burst=2.0, now=clock)
        assert admission.admit_submit("greedy", 0)[0]
        assert admission.admit_submit("greedy", 0)[0]
        ok, retry_after, reason = admission.admit_submit("greedy", 0)
        assert not ok and reason == "rate_limited" and retry_after > 0
        # The other tenant's bucket is untouched.
        assert admission.admit_submit("steady", 0)[0]


class _FlakyOnce:
    """Monkeypatch target: fail the first N calls, then delegate."""

    def __init__(self, real, failures: int, exc: Exception) -> None:
        self.real = real
        self.remaining = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return self.real(*args, **kwargs)


class TestClientRetry:
    def _client(self, attempts=5):
        return ServiceClient(
            "http://127.0.0.1:9", timeout_s=1.0,
            retry=RetryPolicy(max_attempts=attempts, base_s=0.001,
                              cap_s=0.005, seed=0),
        )

    def test_retries_transient_then_succeeds(self, monkeypatch):
        client = self._client()
        flaky = _FlakyOnce(lambda *a, **k: {"ok": True}, 2,
                           ServiceError("boom", status=503))
        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("GET", "/x") == {"ok": True}
        assert flaky.calls == 3
        assert client.retries == 2

    def test_gives_up_after_max_attempts(self, monkeypatch):
        client = self._client(attempts=3)
        flaky = _FlakyOnce(lambda *a, **k: {}, 99,
                           ServiceError("down", status=None))
        monkeypatch.setattr(client, "_request_once", flaky)
        with pytest.raises(ServiceError):
            client._request("GET", "/x")
        assert flaky.calls == 3

    def test_non_retryable_fails_fast(self, monkeypatch):
        client = self._client()
        flaky = _FlakyOnce(lambda *a, **k: {}, 99,
                           ServiceError("nope", status=404))
        monkeypatch.setattr(client, "_request_once", flaky)
        with pytest.raises(ServiceError):
            client._request("GET", "/x")
        assert flaky.calls == 1

    def test_retry_after_overrides_jitter(self, monkeypatch):
        client = self._client()
        sleeps: list = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        flaky = _FlakyOnce(lambda *a, **k: {}, 1,
                           ServiceError("throttled", status=429,
                                        retry_after=0.125))
        monkeypatch.setattr(client, "_request_once", flaky)
        client._request("GET", "/x")
        assert sleeps == [0.125]

    def test_no_policy_means_fail_fast(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        flaky = _FlakyOnce(lambda *a, **k: {}, 99,
                           ServiceError("boom", status=503))
        monkeypatch.setattr(client, "_request_once", flaky)
        with pytest.raises(ServiceError):
            client._request("GET", "/x")
        assert flaky.calls == 1

    def test_submit_generates_and_reuses_submit_key(self, monkeypatch):
        client = self._client()
        bodies: list = []

        def fake(method, path, body=None, raw=False):
            bodies.append(dict(body))
            if len(bodies) < 3:
                raise ServiceError("drop", status=None)
            return {"id": "j1", "state": "queued"}

        monkeypatch.setattr(client, "_request_once", fake)
        client.submit("smoke")
        keys = {b["submit_key"] for b in bodies}
        assert len(bodies) == 3
        assert len(keys) == 1  # every retry carried the same key
        assert all(isinstance(k, str) and k for k in keys)

    def test_wait_healthy_fails_fast_on_4xx(self, monkeypatch):
        client = self._client()
        flaky = _FlakyOnce(lambda *a, **k: {}, 99,
                           ServiceError("bad gateway path", status=404))
        monkeypatch.setattr(client, "_request", flaky)
        with pytest.raises(ServiceError):
            client.wait_healthy(timeout_s=5.0)
        assert flaky.calls == 1  # no pointless polling

    def test_poll_backoff_grows_and_caps(self):
        client = self._client()
        waits: list = []
        interval = 0.1
        for _ in range(10):
            interval = client._poll_sleep(interval, 0.5,
                                          wait=waits.append)
        assert interval == 0.5  # capped
        assert all(0.05 <= w <= interval for w in waits)
        assert waits[-1] > waits[0]  # it actually grew


@contextmanager
def admission_service(tmp_path, **knobs):
    store = JobStore(tmp_path / "jobs.db")
    cache = ResultCache(tmp_path / "cache")
    plane = ControlPlane(store, cache, tmp_path / "results",
                         admission=AdmissionController(**knobs))
    server, thread = serve_http(plane, port=0)
    host, port = server.server_address[:2]
    try:
        yield SimpleNamespace(
            url=f"http://{host}:{port}", store=store, plane=plane
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        store.close()


class TestLiveAdmission:
    def test_429_carries_retry_after_header(self, tmp_path):
        with admission_service(tmp_path, tenant_rate_per_s=0.5,
                               tenant_burst=1.0) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            assert client.submit("smoke", tenant="t")["state"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.submit("smoke", tenant="t")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0.0
            counters = svc.store.stats_counters()
        assert counters["service.admission.rate_limited"] == 1
        assert counters["service.http.429"] == 1
        assert counters.get("service.http.5xx", 0) == 0

    def test_retried_submit_resolves_to_one_job(self, tmp_path):
        """The idempotency contract over real HTTP: replaying the same
        submit_key returns the original job with 200, not a twin."""
        with admission_service(tmp_path, tenant_rate_per_s=100.0) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            first = client.submit("smoke", tenant="t", submit_key="k1")
            second = client.submit("smoke", tenant="t", submit_key="k1")
            assert first["id"] == second["id"]
            assert svc.store.counts_by_state()["queued"] == 1
            counters = svc.store.stats_counters()
        assert counters["service.jobs.deduped"] == 1

    def test_throttled_retry_of_accepted_submit_dedupes(self, tmp_path):
        """Idempotency beats admission: a retried submission that was
        already accepted resolves even while the tenant is throttled."""
        with admission_service(tmp_path, tenant_rate_per_s=0.5,
                               tenant_burst=1.0) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            first = client.submit("smoke", tenant="t", submit_key="k1")
            # Bucket is empty now; a *new* submission 429s ...
            with pytest.raises(ServiceError):
                client.submit("smoke", tenant="t", submit_key="k2")
            # ... but the replay of the accepted one still resolves.
            replay = client.submit("smoke", tenant="t", submit_key="k1")
            assert replay["id"] == first["id"]
            assert svc.store.counts_by_state()["queued"] == 1

    def test_greedy_tenant_cannot_starve_steady(self, tmp_path):
        with admission_service(tmp_path, tenant_rate_per_s=1.0,
                               tenant_burst=2.0) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as greedy, \
                ServiceClient(svc.url, timeout_s=5.0) as steady:
            throttled = 0
            for _ in range(6):
                try:
                    greedy.submit("smoke", tenant="greedy")
                except ServiceError as exc:
                    assert exc.status == 429
                    throttled += 1
            assert throttled >= 1
            # The steady tenant's bucket is its own.
            assert steady.submit("smoke",
                                 tenant="steady")["state"] == "queued"

    def test_queue_limit_over_http(self, tmp_path):
        with admission_service(tmp_path, queue_limit=2) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            client.submit("smoke", tenant="t")
            client.submit("smoke", tenant="t")
            with pytest.raises(ServiceError) as excinfo:
                client.submit("smoke", tenant="t")
            assert excinfo.value.status == 429
            counters = svc.store.stats_counters()
        assert counters["service.admission.queue_full"] == 1

    def test_stats_reports_admission_config(self, tmp_path):
        with admission_service(tmp_path, tenant_rate_per_s=3.0,
                               queue_limit=9) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            stats = client.stats()
        assert stats["admission"]["tenant_rate_per_s"] == 3.0
        assert stats["admission"]["queue_limit"] == 9
        assert stats["chaos"] is None

    def test_client_retry_honors_retry_after_and_converges(self, tmp_path):
        """End to end: a throttled retrying client eventually gets in
        once the bucket refills (Retry-After tells it when)."""
        retry = RetryPolicy(max_attempts=6, base_s=0.01, cap_s=0.5, seed=0)
        with admission_service(tmp_path, tenant_rate_per_s=5.0,
                               tenant_burst=1.0) as svc, \
                ServiceClient(svc.url, timeout_s=5.0, retry=retry) as client:
            first = client.submit("smoke", tenant="t")
            second = client.submit("smoke", tenant="t")  # retries the 429
            assert first["id"] != second["id"]
            assert svc.store.counts_by_state()["queued"] == 2
            assert client.retries >= 1


class TestInflightTracking:
    def test_track_is_exception_safe(self):
        admission = AdmissionController(shed_inflight=1)
        with pytest.raises(RuntimeError):
            with admission.track():
                assert admission.inflight == 1
                raise RuntimeError("handler blew up")
        assert admission.inflight == 0

    def test_concurrent_tracking_counts(self):
        admission = AdmissionController(shed_inflight=100)
        barrier = threading.Barrier(5)
        seen: list[int] = []
        lock = threading.Lock()

        def one():
            with admission.track():
                barrier.wait(timeout=5.0)
                with lock:
                    seen.append(admission.inflight)

        threads = [threading.Thread(target=one) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(seen) == 5
        assert admission.inflight == 0
