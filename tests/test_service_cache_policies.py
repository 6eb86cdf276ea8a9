"""Cache policies the service layer adds: LRU byte-budget eviction on
the content-addressed ResultCache, and in-flight coalescing so an
identical point submitted concurrently executes exactly once.
"""

import os
import threading
import time

import pytest

from repro.campaign.cache import ResultCache, point_key
from repro.service.coalesce import InflightRegistry, compute_point_shared
from repro.service.store import JobStore


def _fill(cache: ResultCache, n: int, size_hint: int = 0) -> list[str]:
    """Store n distinct entries; returns their keys in store order,
    with strictly increasing mtimes so LRU order is unambiguous."""
    keys = []
    for i in range(n):
        params = {"i": i, "pad": "x" * size_hint}
        key = point_key("stream", params)
        cache.store(key, "stream", params, {"value": i}, 0.0)
        mtime = 1_000_000 + i  # deterministic, strictly increasing
        os.utime(cache.path_for(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestLruEviction:
    def test_no_budget_means_no_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 5)
        assert cache.evict_to_budget() == []
        assert len(cache) == 5

    def test_evicts_lru_first_down_to_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 6)
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.byte_budget = entry_size * 3  # keep about half
        evicted = cache.evict_to_budget()
        # Oldest evicted first, newest kept.
        assert evicted == keys[:3]
        assert cache.usage()[1] <= cache.byte_budget
        for key in keys[3:]:
            assert cache.path_for(key).exists()

    def test_usage_counts_entries_and_bytes_in_one_walk(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.usage() == (0, 0)
        keys = _fill(cache, 4, size_hint=100)
        sizes = [cache.path_for(key).stat().st_size for key in keys]
        assert cache.usage() == (len(cache), sum(sizes)) == (4, sum(sizes))

    def test_budget_respected_after_each_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 1)
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache = ResultCache(tmp_path, byte_budget=entry_size * 4)
        _fill(cache, 12)
        cache.evict_to_budget()
        assert cache.usage()[1] <= cache.byte_budget

    def test_load_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 4)
        entry_size = cache.path_for(keys[0]).stat().st_size
        # Read the oldest entry: it becomes the most recently used.
        params = {"i": 0, "pad": ""}
        assert cache.load(keys[0], "stream", params) is not None
        cache.byte_budget = entry_size * 2
        evicted = cache.evict_to_budget()
        assert keys[0] not in evicted
        assert keys[1] in evicted  # the now-oldest went instead

    def test_protected_inflight_keys_survive(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 4)
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.byte_budget = entry_size  # room for one entry only
        evicted = cache.evict_to_budget(protect={keys[0], keys[1]})
        assert keys[0] not in evicted
        assert keys[1] not in evicted
        assert cache.path_for(keys[0]).exists()
        assert cache.path_for(keys[1]).exists()

    def test_protection_beats_budget(self, tmp_path):
        """If the budget cannot be met without evicting protected
        entries, the budget loses -- correctness over accounting."""
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 3)
        cache.byte_budget = 0
        evicted = cache.evict_to_budget(protect=set(keys))
        assert evicted == []
        assert len(cache) == 3

    def test_eviction_is_deterministic_on_mtime_ties(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 4)
        for key in keys:  # force identical mtimes
            os.utime(cache.path_for(key), (1_000_000, 1_000_000))
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.byte_budget = entry_size * 2
        evicted = cache.evict_to_budget()
        assert evicted == sorted(keys)[:2]  # key order breaks the tie

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, byte_budget=-1)


class TestCoalescing:
    def _registry(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        return store, InflightRegistry(store, lease_s=30.0)

    def test_single_compute_goes_through(self, tmp_path):
        store, inflight = self._registry(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        params = {"system": "GS1280", "cpus": 2, "kernel": "triad"}
        key = point_key("stream", params)
        calls = []

        def run(kind, p):
            calls.append(kind)
            return {"gbps": 1.0}

        result, _, status = compute_point_shared(
            inflight, cache, key, "stream", params, "w0", os.getpid(),
            run=run,
        )
        assert status == "computed"
        assert result == {"gbps": 1.0}
        assert calls == ["stream"]
        # Entry persisted; a second call is a pure cache hit.
        _, _, status2 = compute_point_shared(
            inflight, cache, key, "stream", params, "w1", os.getpid(),
            run=run,
        )
        assert status2 == "hit"
        assert calls == ["stream"]

    def test_concurrent_identical_points_execute_once(self, tmp_path):
        """The acceptance property: N concurrent submissions of one
        point -> exactly 1 execution, N-1 coalesced waits, asserted
        via the telemetry counters the service exposes."""
        from repro.telemetry import global_registry

        store, inflight = self._registry(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        params = {"system": "GS1280", "cpus": 4, "kernel": "triad"}
        key = point_key("stream", params)
        executions = []
        started = threading.Barrier(4)

        def run(kind, p):
            executions.append(threading.current_thread().name)
            time.sleep(0.2)  # hold the in-flight window open
            return {"gbps": 2.0}

        statuses: dict[str, str] = {}

        def submit(name):
            started.wait()
            _, _, status = compute_point_shared(
                inflight, cache, key, "stream", params, name,
                os.getpid(), run=run, poll_s=0.01,
            )
            statuses[name] = status

        registry = global_registry()
        with registry.deltas() as moved:
            threads = [
                threading.Thread(target=submit, args=(f"w{i}",),
                                 name=f"w{i}")
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(executions) == 1  # the shared point ran exactly once
        assert sorted(statuses.values()) == [
            "coalesced", "coalesced", "coalesced", "computed"
        ]
        assert moved["service.points.computed"] == 1
        assert moved["service.points.coalesced"] == 3
        assert store.stats_counters()["service.points.computed"] == 1
        assert store.stats_counters()["service.points.coalesced"] == 3

    def test_dead_owner_lease_is_broken(self, tmp_path):
        store, inflight = self._registry(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        params = {"system": "GS320", "cpus": 2, "kernel": "copy"}
        key = point_key("stream", params)
        # A "worker" that died mid-computation: inflight row with a
        # dead pid, no cache entry.
        assert inflight.acquire(key, "ghost", 999999)
        calls = []

        def run(kind, p):
            calls.append(1)
            return {"gbps": 3.0}

        result, _, status = compute_point_shared(
            inflight, cache, key, "stream", params, "w0", os.getpid(),
            run=run, poll_s=0.01,
        )
        assert status == "computed"  # took over, did not wait the lease
        assert calls == [1]

    def test_inflight_live_keys_respects_liveness(self, tmp_path):
        store, inflight = self._registry(tmp_path)
        assert inflight.acquire("live-key", "w0", os.getpid())
        assert inflight.acquire("dead-key", "ghost", 999999)
        assert inflight.live_keys() == {"live-key"}

    def test_acquire_is_exclusive_between_live_owners(self, tmp_path):
        store, inflight = self._registry(tmp_path)
        assert inflight.acquire("k", "w0", os.getpid())
        assert not inflight.acquire("k", "w1", os.getpid())
        inflight.release("k", "w0")
        assert inflight.acquire("k", "w1", os.getpid())

    def test_release_requires_ownership(self, tmp_path):
        store, inflight = self._registry(tmp_path)
        assert inflight.acquire("k", "w0", os.getpid())
        inflight.release("k", "w1")  # not the owner: no-op
        assert not inflight.acquire("k", "w1", os.getpid())


class TestWorkerEviction:
    def test_worker_evicts_after_compute_but_protects_inflight(
        self, tmp_path
    ):
        """End-to-end: a job whose cache budget only fits a couple of
        entries still completes, the budget holds afterwards, and the
        counters record the evictions."""
        import threading as _threading

        from repro.service.worker import run_worker

        store = JobStore(tmp_path / "jobs.db")
        job_id = store.submit("t", {
            "campaign": {
                "name": "tiny",
                "sweeps": [{
                    "name": "s", "kind": "stream",
                    "base": {"kernel": "triad"},
                    "grid": {"system": ["GS1280", "GS320"],
                             "cpus": [1, 2, 4]},
                }],
            },
            "export": "json",
        })
        budget = 600  # a couple of small stream entries
        stop = _threading.Event()
        run_worker(
            tmp_path / "jobs.db", tmp_path / "cache",
            tmp_path / "results", "w0", stop,
            cache_budget=budget, idle_exit_s=0.0,
        )
        job = store.get(job_id)
        assert job.state == "done"
        cache = ResultCache(tmp_path / "cache")
        assert cache.usage()[1] <= budget
        assert store.stats_counters().get("service.cache.evicted", 0) > 0
