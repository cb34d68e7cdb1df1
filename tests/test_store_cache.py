"""Decoded-chunk cache: LRU semantics, byte budget, and thread safety.

Pins the two properties the store's warm path rests on:

* the cache never holds more than its byte budget, even while a thread
  pool hammers overlapping windows through one shared cache;
* the obs counters reconcile exactly — every requested chunk is either a
  cache hit or a miss, and every miss is decoded exactly once per read
  (``hits + misses == requested`` and ``misses == decoded``), under
  concurrency included.

The same class keeps the service tier's tenants apart: one LRU per
tenant under a uniform quota and the shared ceiling.  With one tenant it
must behave exactly like a plain byte-budgeted LRU (checked against a
model), and with several no tenant may exceed its quota.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import decompress, obs
from repro.core.modes import PweMode
from repro.errors import InvalidArgumentError
from repro.store import DecodedChunkCache, open_store, write_store


def _arr(n, fill):
    return np.full(n // 8, float(fill), dtype=np.float64)  # nbytes == n


class TestLruSemantics:
    def test_hit_miss_and_readonly(self):
        cache = DecodedChunkCache(1024)
        assert cache.get("a") is None
        a = _arr(256, 1.0)
        assert cache.put("a", a)
        hit = cache.get("a")
        assert hit is a and not hit.flags.writeable
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_budget_enforced_lru_order(self):
        cache = DecodedChunkCache(1024)
        for key in "abcd":  # 4 x 256 bytes == budget exactly
            cache.put(key, _arr(256, 0))
        assert len(cache) == 4 and cache.nbytes == 1024
        cache.get("a")  # refresh "a" -> "b" is now LRU
        cache.put("e", _arr(256, 0))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.nbytes <= 1024
        assert cache.stats()["evictions"] == 1

    def test_replace_same_key_accounts_bytes(self):
        cache = DecodedChunkCache(1024)
        cache.put("a", _arr(256, 0))
        cache.put("a", _arr(512, 0))
        assert len(cache) == 1 and cache.nbytes == 512

    def test_oversized_entry_rejected(self):
        cache = DecodedChunkCache(100)
        assert not cache.put("big", _arr(256, 0))
        assert len(cache) == 0

    def test_disabled_cache(self):
        cache = DecodedChunkCache(0)
        assert not cache.enabled
        assert not cache.put("a", _arr(256, 0))
        assert not cache.put("empty", np.empty(0))
        assert cache.get("a") is None and len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DecodedChunkCache(-1)

    def test_clear(self):
        cache = DecodedChunkCache(1024)
        cache.put("a", _arr(256, 0))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache_store") / "st"
    rng = np.random.default_rng(9)
    x, y, z = np.meshgrid(*[np.linspace(0, 2, 32)] * 3, indexing="ij")
    data = (np.sin(3 * x) * np.cos(2 * y) + 0.2 * z).astype(np.float32)
    result = write_store(path, data, PweMode(1e-3), chunk_shape=8)
    return path, decompress(result.payload)


class TestConcurrentReaders:
    def test_budget_respected_under_hammering(self, small_store):
        path, full = small_store
        # Budget holds ~4 decoded 8^3 float64 chunks (4 KiB each) while
        # the store has 64 — constant eviction pressure.
        budget = 4 * 8**3 * 8
        arr = open_store(path, cache_bytes=budget)
        rng = np.random.default_rng(0)
        windows = []
        for _ in range(40):
            lo = rng.integers(0, 24, size=3)
            hi = lo + rng.integers(4, 9, size=3)
            windows.append(tuple(slice(int(a), int(b)) for a, b in zip(lo, hi)))
        over_budget = []
        errors = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                n = arr.cache.nbytes
                if n > budget:
                    over_budget.append(n)

        def reader(seed):
            r = np.random.default_rng(seed)
            try:
                for _ in range(12):
                    w = windows[int(r.integers(0, len(windows)))]
                    if not np.array_equal(arr.read_window(w), full[w]):
                        errors.append(f"mismatch on {w}")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(repr(exc))

        watcher = threading.Thread(target=watch)
        watcher.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(reader, range(8)))
        stop.set()
        watcher.join()
        assert not errors
        assert not over_budget, f"cache exceeded budget: {max(over_budget)}"
        assert arr.cache.nbytes <= budget
        assert arr.cache.stats()["evictions"] > 0

    def test_counters_reconcile_under_concurrency(self, small_store):
        path, full = small_store
        arr = open_store(path)
        windows = [
            (slice(0, 16), slice(0, 16), slice(0, 16)),
            (slice(8, 24), slice(8, 24), slice(8, 24)),
            (slice(4, 28), slice(0, 8), slice(16, 32)),
            (slice(0, 32), slice(24, 32), slice(0, 8)),
        ]
        with obs.trace("t") as tracer:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(
                    pool.map(lambda w: arr.read_window(w), windows * 3)
                )
        for w, got in zip(windows * 3, results):
            assert np.array_equal(got, full[w])
        c = tracer.report().counters
        requested = c["store.chunks.requested"]
        hits = c.get("store.cache.hits", 0)
        misses = c.get("store.cache.misses", 0)
        decoded = c.get("store.chunks.decoded", 0)
        assert hits + misses == requested
        assert misses == decoded
        # repeat traffic must have produced real hits
        assert hits > 0

    def test_cache_disabled_never_decodes_stale(self, small_store):
        path, full = small_store
        arr = open_store(path, cache_bytes=0)
        with obs.trace("t") as tracer:
            arr.read_window((slice(0, 8),) * 3)
            arr.read_window((slice(0, 8),) * 3)
        c = tracer.report().counters
        assert c.get("store.cache.hits", 0) == 0
        assert c["store.cache.misses"] == c["store.chunks.requested"] == 2
        assert c["store.chunks.decoded"] == 2


class TestTenantCacheBudget:
    """Per-tenant quotas of one cache: eviction order and isolation."""

    def test_tenants_do_not_share_keys(self):
        cache = DecodedChunkCache(4096)
        a, b = _arr(256, 1.0), _arr(256, 2.0)
        assert cache.put("k", a, "t1")
        assert cache.put("k", b, "t2")
        assert cache.get("k", "t1") is a
        assert cache.get("k", "t2") is b
        assert cache.get("k") is None  # the default tenant is a third one
        assert cache.nbytes == 512

    def test_quota_evicts_own_lru_first(self):
        cache = DecodedChunkCache(4096, tenant_quota=512)
        cache.put("a", _arr(256, 0), "t")
        cache.put("b", _arr(256, 0), "t")
        cache.get("a", "t")  # refresh: "b" becomes this tenant's LRU
        cache.put("c", _arr(256, 0), "t")
        assert cache.get("b", "t") is None
        assert cache.get("a", "t") is not None
        assert cache.get("c", "t") is not None
        assert cache.stats()["tenants"]["t"]["evictions"] == 1

    def test_oversized_entry_not_cached(self):
        cache = DecodedChunkCache(4096, tenant_quota=256)
        assert not cache.put("big", _arr(512, 0), "t")
        assert cache.get("big", "t") is None
        assert cache.nbytes == 0

    def test_replace_same_key_reaccounts_bytes(self):
        cache = DecodedChunkCache(4096, tenant_quota=1024)
        cache.put("k", _arr(256, 0), "t")
        cache.put("k", _arr(512, 0), "t")
        stats = cache.stats()["tenants"]["t"]
        assert stats["entries"] == 1 and stats["nbytes"] == 512

    def test_within_quota_tenant_survives_anothers_flood(self):
        # Two tenants' quotas sum to the ceiling: the guarantee must hold.
        cache = DecodedChunkCache(1024, tenant_quota=512)
        for key in ("a1", "a2"):  # tenant A fills its quota exactly
            cache.put(key, _arr(256, 1.0), "alice")
        for i in range(20):  # tenant B floods far past its own quota
            cache.put(f"b{i}", _arr(256, 2.0), "bob")
        assert cache.get("a1", "alice") is not None
        assert cache.get("a2", "alice") is not None
        stats = cache.stats()["tenants"]
        assert stats["alice"]["evictions"] == 0
        assert stats["bob"]["evictions"] > 0
        assert stats["bob"]["nbytes"] <= 512
        assert cache.nbytes <= 1024

    def test_ceiling_falls_back_to_global_lru_when_all_within_quota(self):
        # Both tenants within quota but the ceiling is oversubscribed:
        # the globally oldest entry loses, whoever owns it.
        cache = DecodedChunkCache(512, tenant_quota=512)
        cache.put("old", _arr(256, 0), "t1")
        cache.put("mid", _arr(256, 0), "t2")
        cache.put("new", _arr(256, 0), "t1")
        assert cache.get("old", "t1") is None  # globally oldest evicted
        assert cache.get("mid", "t2") is not None
        assert cache.get("new", "t1") is not None

    def test_hit_refreshes_against_global_lru(self):
        cache = DecodedChunkCache(512, tenant_quota=512)
        cache.put("a", _arr(256, 0), "t1")
        cache.put("b", _arr(256, 0), "t2")
        cache.get("a", "t1")  # refresh: t2's entry is now globally LRU
        cache.put("c", _arr(256, 0), "t1")
        assert cache.get("b", "t2") is None
        assert cache.get("a", "t1") is not None

    def test_zero_quota_disables_every_tenant(self):
        cache = DecodedChunkCache(4096, tenant_quota=0)
        assert not cache.enabled
        assert not cache.put("k", _arr(256, 0), "t")
        assert not cache.put("k", _arr(256, 0))
        assert cache.nbytes == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DecodedChunkCache(-1)
        with pytest.raises(InvalidArgumentError):
            DecodedChunkCache(1024, tenant_quota=-1)

    def test_clear_keeps_quotas_and_counters(self):
        cache = DecodedChunkCache(4096, tenant_quota=512)
        cache.put("k", _arr(256, 0), "t")
        cache.get("k", "t")
        cache.clear()
        assert cache.nbytes == 0 and len(cache) == 0
        assert cache.get("k", "t") is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["tenants"] == {}  # the emptied tenant's record went too
        assert stats["tenant_quota"] == 512

    def test_lookups_create_no_tenant_records(self):
        """A client cycling tenant names cannot grow the cache: misses
        leave no record behind, and a record goes with its last entry."""
        cache = DecodedChunkCache(1024)
        for i in range(5000):
            assert cache.get("k", f"tenant-{i}") is None
        stats = cache.stats()
        assert stats["tenants"] == {} and not cache._tenants
        assert (stats["hits"], stats["misses"]) == (0, 5000)
        for i in range(8):  # each insert evicts the previous tenant's entry
            cache.put("k", _arr(1024, i), f"tenant-{i}")
        assert list(cache.stats()["tenants"]) == ["tenant-7"]
        assert cache.stats()["evictions"] == 7

    def test_hits_are_readonly_and_stats_aggregate_tenants(self):
        cache = DecodedChunkCache(4096, tenant_quota=1024)
        arr = _arr(256, 3.0)
        assert cache.put("k", arr, "t1")
        cache.put("k", _arr(512, 4.0), "t2")
        hit = cache.get("k", "t1")
        assert hit is arr and not hit.flags.writeable
        cache.get("missing", "t2")
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert (stats["entries"], stats["nbytes"]) == (2, 768)
        assert stats["tenants"]["t2"] == {
            "entries": 1, "nbytes": 512, "hits": 0, "misses": 1, "evictions": 0
        }

    def test_contains_is_read_only(self):
        """A residency probe counts nothing, keeps the LRU order and
        creates no tenant record."""
        cache = DecodedChunkCache(512, tenant_quota=512)
        cache.put("a", _arr(256, 0), "t1")
        cache.put("b", _arr(256, 0), "t2")
        assert cache.contains("a", "t1") and cache.contains("b", "t2")
        assert not cache.contains("a", "t2")
        assert not cache.contains("a", "nobody")
        assert not cache.contains("a")
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)
        assert set(stats["tenants"]) == {"t1", "t2"}
        assert stats["tenants"]["t1"]["hits"] == 0
        # "a" was probed, not refreshed: it is still the global LRU.
        cache.put("c", _arr(256, 0), "t2")
        assert not cache.contains("a", "t1")
        assert cache.contains("b", "t2") and cache.contains("c", "t2")


class TestCacheOverride:
    def test_second_cache_is_override_compatible(self, small_store):
        """Another DecodedChunkCache plugged into read_window serves hits."""
        path, full = small_store
        arr = open_store(path, cache_bytes=0)
        other = DecodedChunkCache(1 << 20)
        window = (slice(0, 16),) * 3
        with obs.trace("t") as tracer:
            first = arr.read_window(window, cache=other)
            second = arr.read_window(window, cache=other)
        assert np.array_equal(first, full[window])
        assert np.array_equal(second, full[window])
        c = tracer.report().counters
        assert c["store.chunks.decoded"] == c["store.cache.misses"]
        assert c.get("store.cache.hits", 0) > 0  # warm pass hit the override
        assert other.stats()["tenants"]["default"]["entries"] > 0
        assert len(arr.cache) == 0  # the store's own cache was bypassed


class _LruModel:
    """Reference single-consumer byte-budgeted LRU."""

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries = OrderedDict()
        self.nbytes = self.hits = self.misses = self.evictions = 0

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key]

    def put(self, key, arr):
        if self.max_bytes == 0 or arr.nbytes > self.max_bytes:
            return False
        if key in self.entries:
            self.nbytes -= self.entries.pop(key).nbytes
        self.entries[key] = arr
        self.nbytes += arr.nbytes
        while self.nbytes > self.max_bytes:
            self.nbytes -= self.entries.popitem(last=False)[1].nbytes
            self.evictions += 1
        return True


class TestCacheProperties:
    SIZES = (0, 8, 64, 128, 256, 512)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_tenant_matches_lru_model(self, seed):
        rng = np.random.default_rng(seed)
        max_bytes = int(rng.choice([0, 256, 512, 1024, 1536]))
        cache, model = DecodedChunkCache(max_bytes), _LruModel(max_bytes)
        for _ in range(400):
            key = int(rng.integers(0, 12))
            if rng.random() < 0.5:
                got, want = cache.get(key), model.get(key)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got is want
            else:
                arr = _arr(int(rng.choice(self.SIZES)), 0)
                assert cache.put(key, arr) == model.put(key, arr)
            stats = cache.stats()
            assert (stats["hits"], stats["misses"], stats["evictions"]) == (
                model.hits, model.misses, model.evictions
            )
            assert stats["nbytes"] == model.nbytes
            assert stats["entries"] == len(model.entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_many_tenants_stay_within_quota_and_ceiling(self, seed):
        rng = np.random.default_rng(100 + seed)
        max_bytes = int(rng.choice([0, 512, 1024, 1536]))
        quota = int(rng.choice([0, 256, 512, 1024, 2048]))
        cache = DecodedChunkCache(max_bytes, tenant_quota=quota)
        tenants = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
        for _ in range(400):
            tenant = tenants[int(rng.integers(0, len(tenants)))]
            key = int(rng.integers(0, 8))
            if rng.random() < 0.4:
                cache.get(key, tenant)
            else:
                cache.put(key, _arr(int(rng.choice(self.SIZES)), 0), tenant)
            stats = cache.stats()
            assert all(
                t["nbytes"] <= quota for t in stats["tenants"].values()
            )
            assert stats["nbytes"] == sum(
                t["nbytes"] for t in stats["tenants"].values()
            )
            assert stats["nbytes"] <= max_bytes
