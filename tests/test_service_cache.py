"""The bounded LRU of analysis handles: semantics, fingerprint reuse, load."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis_api import NetworkAnalysis, compute_events
from repro.core.temporal_graph import TemporalGraph
from repro.graphs.generators import complete_graph, star_graph
from repro.service import ServiceApp
from repro.service import cache as cache_module
from repro.service.cache import AnalysisCache
from repro.telemetry import TelemetryRecorder, attach
from repro.utils.fingerprint import graph_fingerprint


def _network(n: int, *, lifetime: int = 8) -> TemporalGraph:
    graph = complete_graph(n, directed=True)
    return TemporalGraph(
        graph, {i: [1 + (i % lifetime)] for i in range(graph.m)}, lifetime=lifetime
    )


class TestLRUSemantics:
    def test_miss_then_hit(self):
        cache = AnalysisCache(capacity=4)
        network = _network(5)
        key, handle, hit = cache.get_or_create(network)
        assert not hit and key == graph_fingerprint(network)
        key2, handle2, hit2 = cache.get_or_create(network)
        assert hit2 and key2 == key and handle2 is handle
        assert cache.hits == 1 and cache.misses == 1

    def test_rebuilt_instance_hits_same_handle(self):
        """Two separately-built copies of the same network share one handle."""
        cache = AnalysisCache(capacity=4)
        _, handle_a, _ = cache.get_or_create(_network(6))
        _, handle_b, hit = cache.get_or_create(_network(6))
        assert hit and handle_b is handle_a

    def test_eviction_is_least_recently_used(self):
        cache = AnalysisCache(capacity=2)
        n_small, n_mid, n_big = _network(4), _network(5), _network(6)
        key_small, _, _ = cache.get_or_create(n_small)
        key_mid, _, _ = cache.get_or_create(n_mid)
        cache.get_or_create(n_small)  # refresh: mid is now LRU
        key_big, _, _ = cache.get_or_create(n_big)
        assert key_small in cache and key_big in cache
        assert key_mid not in cache
        assert cache.evictions == 1

    def test_evicted_entry_rebuilds_on_next_request(self):
        cache = AnalysisCache(capacity=1)
        cache.get_or_create(_network(4))
        cache.get_or_create(_network(5))  # evicts n=4
        _, handle, hit = cache.get_or_create(_network(4))
        assert not hit and handle.n == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalysisCache(capacity=0)

    def test_custom_factory(self):
        cache = AnalysisCache(capacity=2)
        seen = []

        def factory(network):
            seen.append(network.n)
            return NetworkAnalysis(network)

        cache.get_or_create(_network(4), factory=factory)
        cache.get_or_create(_network(4), factory=factory)
        assert seen == [4]

    def test_clear_drops_entries_but_keeps_stats(self):
        cache = AnalysisCache(capacity=4)
        cache.get_or_create(_network(4))
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1

    def test_telemetry_counters(self):
        cache = AnalysisCache(capacity=1)
        recorder = TelemetryRecorder()
        with attach(recorder):
            cache.get_or_create(_network(4))
            cache.get_or_create(_network(4))
            cache.get_or_create(_network(5))
        assert recorder.counters["service.cache.miss"] == 2
        assert recorder.counters["service.cache.hit"] == 1
        assert recorder.counters["service.cache.evict"] == 1


class TestAliasLayer:
    def test_alias_resolves_without_rebuild(self):
        cache = AnalysisCache(capacity=2)
        key, handle, _ = cache.get_or_create(_network(6))
        cache.alias("spec-abc", key)
        resolved = cache.get_by_alias("spec-abc")
        assert resolved is not None
        assert resolved == (key, handle)
        assert cache.hits == 1

    def test_unknown_alias_is_a_silent_none(self):
        cache = AnalysisCache(capacity=2)
        assert cache.get_by_alias("ghost") is None
        assert cache.misses == 0  # the rebuild path records the miss

    def test_alias_misses_after_handle_eviction(self):
        cache = AnalysisCache(capacity=1)
        key, _, _ = cache.get_or_create(_network(4))
        cache.alias("spec-abc", key)
        cache.get_or_create(_network(5))  # evicts the n=4 handle
        assert cache.get_by_alias("spec-abc") is None

    def test_alias_map_is_bounded(self):
        cache = AnalysisCache(capacity=1)
        key, _, _ = cache.get_or_create(_network(4))
        bound = cache.capacity * AnalysisCache.ALIASES_PER_SLOT
        for index in range(bound + 5):
            cache.alias(f"spec-{index}", key)
        assert len(cache._aliases) == bound

    def test_clear_drops_aliases(self):
        cache = AnalysisCache(capacity=2)
        key, _, _ = cache.get_or_create(_network(4))
        cache.alias("spec-abc", key)
        cache.clear()
        cache.get_or_create(_network(4))  # same fingerprint, fresh handle
        assert cache.get_by_alias("spec-abc") is None


class TestKnownInstanceKey:
    """A spec whose handle was evicted is filed again under its known key."""

    @pytest.fixture()
    def fingerprinted(self, monkeypatch):
        """The networks ``AnalysisCache`` hands to ``graph_fingerprint``."""
        calls = []

        def counted(network):
            calls.append(network)
            return graph_fingerprint(network)

        monkeypatch.setattr(cache_module, "graph_fingerprint", counted)
        return calls

    def test_known_alias_keys_the_rebuild_without_hashing(self, fingerprinted):
        cache = AnalysisCache(capacity=1)
        key, _, _ = cache.get_or_create(_network(4), alias="spec-4")
        cache.get_or_create(_network(5), alias="spec-5")  # evicts the n=4 handle
        assert cache.get_by_alias("spec-4") is None
        rebuilt = _network(4)
        fingerprinted.clear()
        rekey, handle, hit = cache.get_or_create(rebuilt, alias="spec-4")
        assert fingerprinted == []
        assert not hit and handle.network is rebuilt
        assert rekey == key == graph_fingerprint(rebuilt)
        assert cache.get_by_alias("spec-4") == (key, handle)
        assert cache.stats()["fingerprints"] == 2

    def test_unknown_alias_is_fingerprinted_once(self, fingerprinted):
        cache = AnalysisCache(capacity=2)
        network = _network(4)
        recorder = TelemetryRecorder()
        with attach(recorder):
            key, _, hit = cache.get_or_create(network, alias="spec-4")
        assert fingerprinted == [network]
        assert not hit and key == graph_fingerprint(network)
        assert cache.get_by_alias("spec-4")[0] == key
        assert cache.stats()["fingerprints"] == 1
        assert recorder.counters["service.cache.fingerprint"] == 1
        assert recorder.counters["service.cache.miss"] == 1

    def test_evicted_query_answers_with_the_fresh_fingerprint(self, tmp_path):
        """Queries A, B, A through one slot: all cold, A keyed as a fresh app keys it."""

        def query(seed):
            return {
                "op": "distances_from",
                "source": 0,
                "graph": {"family": "clique", "params": {"n": 6, "directed": True}},
                "labels": {"model": "uniform", "lifetime": 6},
                "seed": seed,
            }

        app = ServiceApp(data_dir=tmp_path / "one-slot", cache_capacity=1)
        fresh = ServiceApp(data_dir=tmp_path / "fresh")
        try:
            first, other, third = [app.query(query(seed)) for seed in (1, 2, 1)]
            expected = fresh.query(query(1))
            stats = app.stats()["cache"]
        finally:
            app.close()
            fresh.close()
        assert not (first["cache_hit"] or other["cache_hit"] or third["cache_hit"])
        assert third["graph_fingerprint"] == first["graph_fingerprint"]
        assert first["graph_fingerprint"] == expected["graph_fingerprint"]
        assert other["graph_fingerprint"] != first["graph_fingerprint"]
        assert third["result"] == first["result"] == expected["result"]
        assert (stats["misses"], stats["fingerprints"]) == (3, 2)


class TestHandleReuseSavesComputes:
    def test_cached_handle_serves_artifacts_without_recompute(self):
        """The point of the cache: repeat queries reuse memoized artifacts."""
        cache = AnalysisCache(capacity=2)
        network = _network(8)
        _, handle, _ = cache.get_or_create(network)
        with compute_events() as events:
            first = handle.closeness()
        assert events.counts.get("centrality", 0) >= 1

        _, same_handle, hit = cache.get_or_create(_network(8))
        assert hit
        with compute_events() as events:
            second = same_handle.closeness()
        assert events.counts.get("centrality", 0) == 0  # pure cache hit
        np.testing.assert_array_equal(first, second)


class TestEvictionUnderLoad:
    def test_concurrent_mixed_workload_stays_bounded_and_correct(self):
        """Threads hammer a tiny cache with 8 distinct graphs; the bound and
        the key → handle mapping both survive constant eviction churn."""
        cache = AnalysisCache(capacity=3)
        sizes = list(range(4, 12))
        errors: list[str] = []
        barrier = threading.Barrier(6)

        def worker(offset: int) -> None:
            barrier.wait()
            for round_index in range(30):
                n = sizes[(offset + round_index) % len(sizes)]
                graph = star_graph(n)
                network = TemporalGraph(
                    graph, {i: [1 + i % 3] for i in range(graph.m)}, lifetime=4
                )
                _, handle, _ = cache.get_or_create(network)
                if handle.n != n:
                    errors.append(f"key collision: wanted n={n} got n={handle.n}")
                if len(cache) > cache.capacity:
                    errors.append(f"capacity exceeded: {len(cache)}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(cache) <= cache.capacity
        assert cache.evictions > 0
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 30
        assert 0.0 < stats["hit_rate"] < 1.0
