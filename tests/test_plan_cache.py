"""The plan cache: memoized per-shape codec state (hot-path acceleration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compress, decompress, PweMode
from repro.core.plans import (
    PlanCache,
    SPECK_GEOMETRIES,
    WAVELET_PLANS,
    cache_stats,
    clear_plan_caches,
    speck_geometry,
    wavelet_plan,
    zfp_scan_order,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts and ends with empty plan caches."""
    clear_plan_caches()
    yield
    clear_plan_caches()


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=4, name="t")
        built = []

        def factory():
            built.append(1)
            return "plan"

        assert cache.get("k", factory) == "plan"
        assert cache.get("k", factory) == "plan"
        assert built == [1]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2, name="t")
        cache.get("a", lambda: "A")
        cache.get("b", lambda: "B")
        cache.get("a", lambda: "A")  # refresh a: b is now least recent
        cache.get("c", lambda: "C")  # evicts b
        assert cache.stats()["evictions"] == 1
        cache.get("a", lambda: pytest.fail("a should still be cached"))
        rebuilt = []
        cache.get("b", lambda: rebuilt.append(1) or "B")
        assert rebuilt == [1]

    def test_clear_resets_counters(self):
        cache = PlanCache(maxsize=4, name="t")
        cache.get("k", lambda: 1)
        cache.get("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "size": 0, "maxsize": 4, "hits": 0, "misses": 0, "evictions": 0,
        }

    def test_rejects_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestSharedPlans:
    def test_wavelet_plan_identity(self):
        a = wavelet_plan((16, 16, 16))
        b = wavelet_plan((16, 16, 16))
        assert a is b
        assert wavelet_plan((16, 16)) is not a

    def test_wavelet_plan_key_includes_levels(self):
        assert wavelet_plan((32, 32), levels=1) is not wavelet_plan((32, 32), levels=2)

    def test_speck_geometry_identity(self):
        assert speck_geometry((8, 8, 8)) is speck_geometry((8, 8, 8))

    def test_zfp_scan_order_immutable(self):
        perm, inv = zfp_scan_order(3)
        assert zfp_scan_order(3)[0] is perm
        assert not perm.flags.writeable
        assert not inv.flags.writeable
        np.testing.assert_array_equal(np.argsort(perm), inv)

    def test_cache_stats_shape(self):
        wavelet_plan((16, 16))
        stats = cache_stats()
        assert set(stats) == {
            "wavelet_plans",
            "speck_geometries",
            "zfp_scan_orders",
        }
        assert stats["wavelet_plans"]["misses"] == 1


class TestCachedPipeline:
    def test_same_shaped_chunks_hit_cache(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(32, 32, 32))
        # The decoder looks the plans up once per chunk; compress
        # fetches them once per shape *group* (see below).
        payload = compress(data, PweMode(1e-2), chunk_shape=16).payload
        clear_plan_caches()
        decompress(payload)
        stats = cache_stats()
        # 8 chunks of one shape: 1 miss, 7 hits per plan cache.
        assert stats["wavelet_plans"]["misses"] == 1
        assert stats["wavelet_plans"]["hits"] >= 7
        assert stats["speck_geometries"]["misses"] >= 1
        assert stats["speck_geometries"]["hits"] >= 7

    def test_batch_executor_fetches_plans_once_per_group(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(32, 32, 32))
        compress(data, PweMode(1e-2), chunk_shape=16)
        stats = cache_stats()
        assert stats["wavelet_plans"]["misses"] == 1
        assert stats["speck_geometries"]["misses"] >= 1

    def test_warm_cache_streams_bit_identical(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(24, 24, 24))
        mode = PweMode(1e-3)
        cold = compress(data, mode, chunk_shape=12).payload
        warm = compress(data, mode, chunk_shape=12).payload
        assert WAVELET_PLANS.stats()["hits"] > 0
        assert SPECK_GEOMETRIES.stats()["hits"] > 0
        assert warm == cold
        np.testing.assert_array_equal(decompress(warm), decompress(cold))

    def test_eviction_does_not_change_streams(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(16, 16))
        mode = PweMode(1e-3)
        baseline = compress(data, mode).payload
        # Force eviction churn by filling the small caches with other shapes.
        for n in range(8, 8 + SPECK_GEOMETRIES.maxsize + 2):
            speck_geometry((n, n))
            wavelet_plan((n, n))
        assert compress(data, mode).payload == baseline
