"""Deterministic service chaos: policy, engine, and live injection.

The policy must round-trip JSON like ``FaultSchedule`` does, the
engine's decisions must be a pure function of ``(seed, scope, site,
counter)``, and the injected faults must be visible -- and correctly
accounted -- through a real HTTP server and a real SQLite store.
"""

import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaign.cache import ResultCache
from repro.service.chaos import (
    CHAOS_HTTP_FAULTS,
    ChaosEngine,
    ChaosPolicy,
    policy_from_value,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy
from repro.service.server import ControlPlane, serve_http
from repro.service.store import JobStore

pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("no_inherited_leaks"),
]


class TestChaosPolicy:
    def test_json_round_trip(self):
        policy = ChaosPolicy.aggressive(seed=7, lease_s=3.0)
        assert ChaosPolicy.from_json(policy.to_json()) == policy

    def test_default_injects_nothing(self):
        assert not ChaosPolicy().enabled
        assert ChaosPolicy.aggressive().enabled

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="http_error_rate"):
            ChaosPolicy(http_error_rate=1.5)
        with pytest.raises(ValueError, match="worker_stall_s"):
            ChaosPolicy(worker_stall_s=-1.0)
        with pytest.raises(ValueError, match="5xx"):
            ChaosPolicy(http_error_status=404)
        with pytest.raises(ValueError, match="worker_stall_rate"):
            ChaosPolicy(worker_stall_rate=0.1)  # needs a duration

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="typo_rate"):
            ChaosPolicy.from_dict({"typo_rate": 0.5})

    def test_scaled_clamps_rates_keeps_durations(self):
        policy = ChaosPolicy(http_error_rate=0.6, http_latency_rate=0.1,
                             http_latency_s=0.25)
        doubled = policy.scaled(2.0)
        assert doubled.http_error_rate == 1.0  # clamped
        assert doubled.http_latency_rate == pytest.approx(0.2)
        assert doubled.http_latency_s == 0.25

    def test_policy_from_value_forms(self, tmp_path):
        policy = ChaosPolicy(seed=3, http_error_rate=0.5)
        assert policy_from_value(policy) is policy
        assert policy_from_value(policy.to_dict()) == policy
        assert policy_from_value(policy.to_json()) == policy
        path = tmp_path / "chaos.json"
        path.write_text(policy.to_json())
        assert policy_from_value(str(path)) == policy
        with pytest.raises(TypeError):
            policy_from_value(42)


def _http_decisions(engine: ChaosEngine, n: int = 50):
    return [engine.http_fault() for _ in range(n)]


class TestChaosEngine:
    def test_same_seed_same_scope_replays(self):
        policy = ChaosPolicy.aggressive(seed=11)
        a = ChaosEngine(policy, scope="server")
        b = ChaosEngine(policy, scope="server")
        assert _http_decisions(a) == _http_decisions(b)
        assert [a.worker_point_fault() for _ in range(50)] \
            == [b.worker_point_fault() for _ in range(50)]

    def test_scopes_draw_independent_streams(self):
        policy = ChaosPolicy.aggressive(seed=11)
        server = ChaosEngine(policy, scope="server")
        worker = ChaosEngine(policy, scope="worker-0")
        assert _http_decisions(server, 200) != _http_decisions(worker, 200)

    def test_seeds_change_the_sequence(self):
        a = ChaosEngine(ChaosPolicy.aggressive(seed=1), scope="s")
        b = ChaosEngine(ChaosPolicy.aggressive(seed=2), scope="s")
        assert _http_decisions(a, 200) != _http_decisions(b, 200)

    def test_disarmed_sites_consume_no_draws(self):
        """Enabling the worker faults must not perturb the HTTP fault
        sequence: each site owns its own counter."""
        base = ChaosPolicy(seed=5, http_error_rate=0.3)
        with_worker = ChaosPolicy(seed=5, http_error_rate=0.3,
                                  worker_kill_rate=0.9)
        a = ChaosEngine(base, scope="server")
        b = ChaosEngine(with_worker, scope="server")
        assert _http_decisions(a, 100) == _http_decisions(b, 100)

    def test_rate_one_always_fires(self):
        engine = ChaosEngine(ChaosPolicy(http_error_rate=1.0,
                                         http_error_status=503),
                             scope="s")
        assert engine.http_fault() == ("http_500", 503)

    def test_rate_zero_never_fires(self):
        engine = ChaosEngine(ChaosPolicy(), scope="s")
        assert all(f is None for f in _http_decisions(engine, 100))
        assert engine.claim_delay() is None
        assert engine.sqlite_busy_hold() is None
        assert not engine.supervisor_kill()
        assert engine.supervisor_stall() is None

    def test_fault_kinds_are_the_documented_set(self):
        engine = ChaosEngine(ChaosPolicy.aggressive(seed=13).scaled(10),
                             scope="s")
        kinds = {f[0] for f in _http_decisions(engine, 300)
                 if f is not None}
        assert kinds <= set(CHAOS_HTTP_FAULTS)
        assert kinds  # at 10x aggressive, something certainly fired

    def test_thread_safety_of_draws(self):
        """Concurrent draws must hand out each counter value exactly
        once (no duplicated or skipped decisions)."""
        engine = ChaosEngine(ChaosPolicy(http_error_rate=0.5), scope="s")
        results: list = []
        lock = threading.Lock()

        def drain():
            mine = [engine.http_fault() for _ in range(100)]
            with lock:
                results.extend(mine)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = _http_decisions(
            ChaosEngine(ChaosPolicy(http_error_rate=0.5), scope="s"), 400
        )
        assert sorted(map(str, results)) == sorted(map(str, reference))


@contextmanager
def chaos_service(tmp_path, policy: ChaosPolicy):
    """A serverless-worker control plane with chaos armed (submission
    validation happens server-side; no worker needed for these)."""
    store = JobStore(tmp_path / "jobs.db",
                     chaos=ChaosEngine(policy, scope="store"))
    cache = ResultCache(tmp_path / "cache")
    plane = ControlPlane(store, cache, tmp_path / "results",
                         chaos=ChaosEngine(policy, scope="server"))
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


class TestLiveInjection:
    def test_injected_500_is_not_a_real_5xx(self, tmp_path):
        policy = ChaosPolicy(seed=1, http_error_rate=1.0)
        with chaos_service(tmp_path, policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status == 500
            counters = svc.store.stats_counters()
        assert counters["service.chaos.injected.http_500"] == 1
        assert counters.get("service.http.5xx", 0) == 0

    def test_healthz_is_exempt(self, tmp_path):
        policy = ChaosPolicy(seed=1, http_error_rate=1.0,
                             http_drop_rate=1.0, http_latency_rate=1.0,
                             http_latency_s=0.01)
        with chaos_service(tmp_path, policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            assert client.healthz()["ok"] is True

    def test_dropped_connection_is_a_transport_error(self, tmp_path):
        policy = ChaosPolicy(seed=1, http_drop_rate=1.0)
        with chaos_service(tmp_path, policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status is None  # not an HTTP status
            counters = svc.store.stats_counters()
        assert counters["service.chaos.injected.http_drop"] == 1

    def test_latency_injection_still_serves(self, tmp_path):
        policy = ChaosPolicy(seed=1, http_latency_rate=1.0,
                             http_latency_s=0.01)
        with chaos_service(tmp_path, policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            assert client.healthz()["ok"] is True
            assert "jobs" in client.stats()
            counters = svc.store.stats_counters()
        assert counters["service.chaos.injected.http_latency"] >= 1

    def test_retrying_client_survives_partial_chaos(self, tmp_path):
        """At 50% injected failures a retrying client converges; the
        retried submission lands exactly one job row."""
        policy = ChaosPolicy(seed=3, http_error_rate=0.3,
                             http_drop_rate=0.2)
        retry = RetryPolicy(max_attempts=10, base_s=0.005, cap_s=0.05,
                            seed=0)
        with chaos_service(tmp_path, policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0, retry=retry) as client:
            ids = set()
            for _ in range(10):
                job = client.submit("smoke", tenant="t")
                ids.add(job["id"])
            counters = svc.store.stats_counters()
            assert len(ids) == 10
            assert svc.store.counts_by_state()["queued"] == 10
        injected = (counters.get("service.chaos.injected.http_500", 0)
                    + counters.get("service.chaos.injected.http_drop", 0))
        assert injected >= 1  # the run actually exercised chaos
        assert counters.get("service.http.5xx", 0) == 0

    def test_sqlite_busy_hold_is_injected_and_survived(self, tmp_path):
        policy = ChaosPolicy(seed=1, sqlite_busy_rate=1.0,
                             sqlite_busy_hold_s=0.01)
        store = JobStore(tmp_path / "jobs.db",
                         chaos=ChaosEngine(policy, scope="store"))
        job_id = store.submit("a", {"campaign": "smoke", "fast": True,
                                    "seed": 0, "export": "json"})
        assert store.get(job_id).state == "queued"
        counters = store.stats_counters()
        assert counters["service.chaos.injected.sqlite_busy"] >= 1
