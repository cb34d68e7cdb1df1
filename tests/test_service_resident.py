"""Resident window reads: cache-resident reads skip the batch queue.

A read whose chunks are all resident in its tenant's slice of the
service cache has nothing to decode and so nothing to coalesce; the
server runs it at once on the worker pool as a batch of one instead of
queueing it behind ``batch_hold_s``.  These tests pin that the shortcut
changes only *when* a read runs, never *what* it returns:

* resident reads are byte-identical to a direct ``read_window`` at
  level 0 and 1, for integer-index windows, on a masked frame and per
  tenant;
* a resident read does not wait for a miss batch still in its hold;
* a chunk evicted between the residency check and the read is decoded
  by that read;
* ``budget=`` reads and a disabled cache never take the shortcut;
* invalid requests keep their error codes and messages;
* resident and queued reads running together on one store agree, and
  so do two ``read_window`` calls on one ``CompressedArray``.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.core.modes import PweMode
from repro.errors import ReproError
from repro.service import ServiceClient, ServiceConfig, ServiceError, serve_in_thread
from repro.store import StoreWriter, open_store

PWE = 1e-3
SHAPE = (32, 32, 32)
CHUNK = 16
FULL = (slice(0, 32), slice(0, 32), slice(0, 32))
BOX = (slice(0, 16), slice(0, 16), slice(0, 16))


def _frames():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 2.0 * np.pi, SHAPE[0])
    smooth = np.multiply.outer(np.add.outer(np.sin(x), np.cos(x)), np.cos(x))
    plain = smooth + 0.05 * rng.standard_normal(SHAPE)
    masked = smooth - 0.05 * rng.standard_normal(SHAPE)
    masked[:6, :6, :6] = np.nan
    masked[20, 3, 9] = np.inf
    masked[31, 31, 0] = -np.inf
    return [plain, masked]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("service-resident") / "store.rps"
    with StoreWriter(path, PweMode(PWE), chunk_shape=CHUNK) as writer:
        for frame in _frames():
            writer.append(frame)
    return path


@pytest.fixture(scope="module")
def direct(store_path):
    return open_store(store_path, cache_bytes=0)


def _counters(handle) -> dict:
    with ServiceClient(handle.host, handle.port) as probe:
        return probe.stats()["counters"]


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestResidentBytes:
    @pytest.mark.parametrize(
        "window, frame, level",
        [
            (BOX, 0, 0),
            ((slice(3, 29), slice(0, 32), slice(5, 20)), 0, 0),
            (FULL, 0, 1),
            (BOX, 0, 1),
            ((slice(0, 32), 5, slice(0, 32)), 0, 0),
            ((7, 30, slice(2, 9)), 0, 0),
            (FULL, 1, 0),
            ((slice(0, 10), slice(0, 10), 4), 1, 0),
        ],
        ids=["box", "unaligned", "level1", "level1-box", "int-index",
             "two-ints", "masked", "masked-int"],
    )
    def test_resident_read_matches_direct(self, store_path, direct, window,
                                          frame, level):
        want = direct.read_window(window, frame=frame, level=level).tobytes()
        with serve_in_thread(store_path) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                cold = c.read_window(window, frame=frame, level=level)
                warm = [
                    c.read_window(window, frame=frame, level=level)
                    for _ in range(3)
                ]
            counters = _counters(handle)
        assert cold.tobytes() == want
        for got in warm:
            assert got.tobytes() == want
        assert counters["batched_reads"] == 1
        assert counters["resident_reads"] == 3

    def test_residency_is_per_tenant(self, store_path, direct):
        want = direct.read_window(FULL, frame=1).tobytes()
        with serve_in_thread(store_path) as handle:
            with ServiceClient(handle.host, handle.port, tenant="a") as a, \
                    ServiceClient(handle.host, handle.port, tenant="b") as b:
                first_a = a.read_window(FULL, frame=1)
                # a's chunks are resident for a, not for b: b queues.
                first_b = b.read_window(FULL, frame=1)
                after_first = _counters(handle)
                warm = [a.read_window(FULL, frame=1),
                        b.read_window(FULL, frame=1)]
            counters = _counters(handle)
        assert first_a.tobytes() == want and first_b.tobytes() == want
        for got in warm:
            assert got.tobytes() == want
        assert after_first["batched_reads"] == 2
        assert after_first.get("resident_reads", 0) == 0
        assert counters["batched_reads"] == 2
        assert counters["resident_reads"] == 2

    def test_resident_read_counts_no_batch_and_no_lookup(self, store_path):
        """A resident read adds no batch and probes the cache without
        counting: its hits come from ``read_window`` alone."""
        with serve_in_thread(store_path) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.read_window(FULL)
                before = c.stats()
                c.read_window(FULL)
                after = c.stats()
        assert after["counters"]["batches"] == before["counters"]["batches"]
        assert after["counters"]["resident_reads"] == 1
        assert after["cache"]["hits"] - before["cache"]["hits"] == 8
        assert after["cache"]["misses"] == before["cache"]["misses"]


class TestResidentDispatch:
    def test_resident_read_overtakes_a_held_miss_batch(self, store_path,
                                                       direct):
        """A miss batch sits in a 0.5 s hold; a resident read of another
        window finishes first."""
        config = ServiceConfig(batch_hold_s=0.5, workers=2)
        hot = BOX
        cold = (slice(16, 32), slice(16, 32), slice(16, 32))
        done: list[str] = []
        results: dict[str, np.ndarray] = {}
        lock = threading.Lock()
        with serve_in_thread(store_path, config=config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.read_window(hot)  # leaves the hot chunk resident

            def miss_read():
                with ServiceClient(handle.host, handle.port) as c:
                    out = c.read_window(cold)
                with lock:
                    done.append("miss")
                    results["miss"] = out

            t = threading.Thread(target=miss_read)
            t.start()
            with ServiceClient(handle.host, handle.port) as c:
                # Wait until the miss read is admitted (in its hold).
                for _ in range(2000):
                    if c.stats()["inflight"] == 1:
                        break
                    time.sleep(0.001)
                else:
                    raise AssertionError("the miss read never arrived")
                out = c.read_window(hot)
                with lock:
                    done.append("resident")
                    results["resident"] = out
            t.join(30.0)
            counters = _counters(handle)
        assert done == ["resident", "miss"]
        assert results["resident"].tobytes() == direct.read_window(hot).tobytes()
        assert results["miss"].tobytes() == direct.read_window(cold).tobytes()
        assert counters["batches"] == 2
        assert counters["batched_reads"] == 2
        assert counters["resident_reads"] == 1

    def test_eviction_after_the_check_decodes_on_the_worker(
        self, store_path, direct, monkeypatch
    ):
        """The cache empties right after the check says resident: the
        read decodes what it needs and still returns the right bytes."""
        n_chunks = len(direct.chunks_for_window(FULL, frame=1))
        want = direct.read_window(FULL, frame=1).tobytes()
        with serve_in_thread(store_path) as handle:
            cache = handle.service.cache
            real_contains = cache.contains
            probes = []

            def contains_then_evict(key, tenant="default"):
                resident = real_contains(key, tenant)
                probes.append(key)
                if len(probes) == n_chunks:
                    cache.clear()  # everything goes after the last probe
                return resident

            with ServiceClient(handle.host, handle.port) as c:
                c.read_window(FULL, frame=1)
                before = c.stats()["counters"]
                monkeypatch.setattr(cache, "contains", contains_then_evict)
                got = c.read_window(FULL, frame=1)
                after = c.stats()["counters"]
        assert len(probes) == n_chunks
        assert got.tobytes() == want
        assert after["resident_reads"] == 1
        assert after["batches"] == before["batches"]
        assert after["chunk_decodes"] - before["chunk_decodes"] == n_chunks

    def test_budget_reads_always_queue(self, store_path, direct):
        budget = 10**9
        want = direct.read_window(FULL, budget=budget).tobytes()
        with serve_in_thread(store_path) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.read_window(FULL)  # every chunk resident
                got = [c.read_window(FULL, budget=budget) for _ in range(2)]
                coarse = c.read_window(FULL, budget=64)
            counters = _counters(handle)
        for out in got:
            assert out.tobytes() == want
        assert coarse.tobytes() == direct.read_window(FULL, budget=64).tobytes()
        assert counters.get("resident_reads", 0) == 0
        assert counters["batched_reads"] == 4

    def test_disabled_cache_never_takes_the_path(self, store_path, direct):
        config = ServiceConfig(cache_bytes=0)
        with serve_in_thread(store_path, config=config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                got = [c.read_window(BOX, frame=1) for _ in range(3)]
            counters = _counters(handle)
        for out in got:
            assert out.tobytes() == direct.read_window(BOX, frame=1).tobytes()
        assert counters.get("resident_reads", 0) == 0
        assert counters["batched_reads"] == 3


class TestResidentErrors:
    @pytest.mark.parametrize(
        "window, frame, level",
        [
            (FULL, 99, 0),
            (FULL, -1, 0),
            (FULL, 0, 99),
            (FULL, 0, -1),
            ((slice(0, 32), 5, slice(0, 32)), 0, 1),
            ((40, slice(None), slice(None)), 0, 0),
            ((slice(0, 8), slice(0, 8), slice(0, 8), 0), 0, 0),
        ],
        ids=["frame-high", "frame-negative", "level-high", "level-negative",
             "int-index-coarse", "index-out-of-bounds", "too-many-axes"],
    )
    def test_invalid_requests_keep_their_errors(self, store_path, direct,
                                                window, frame, level):
        """With every chunk resident at levels 0 and 1, a bad request is
        answered with the code and message ``read_window`` raises."""
        with pytest.raises(ReproError) as want:
            direct.read_window(window, frame=frame, level=level)
        with serve_in_thread(store_path) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                for f in range(2):
                    for lvl in range(2):
                        c.read_window(FULL, frame=f, level=lvl)
                with pytest.raises(ServiceError) as got:
                    c.read_window(window, frame=frame, level=level)
                assert c.ping()
        assert got.value.code == "bad_request"
        assert str(got.value) == f"[bad_request] {want.value}"


class TestConcurrentReads:
    WINDOWS = [
        (BOX, 0, 0),
        (FULL, 1, 0),
        ((slice(8, 24), slice(8, 24), slice(8, 24)), 0, 0),
        ((slice(0, 32), 5, slice(0, 32)), 1, 0),
        (FULL, 0, 1),
        ((slice(16, 32), slice(0, 16), slice(16, 32)), 1, 0),
    ]

    def test_resident_and_batched_reads_hash_identically(self, store_path,
                                                         direct):
        expected = [
            _digest(direct.read_window(w, frame=f, level=lvl))
            for w, f, lvl in self.WINDOWS
        ]
        # Ten chunks per tenant slice, less than a tenant's working set:
        # windows keep evicting each other, so reads keep switching
        # between resident and queued.
        config = ServiceConfig(
            tenant_quota_bytes=10 * 8 * CHUNK**3,
            max_inflight_per_tenant=16,
            max_pending=64,
            batch_hold_s=0.005,
            workers=3,
        )
        n_threads = 12
        barrier = threading.Barrier(n_threads)
        failures: list[str] = []

        with serve_in_thread(store_path, config=config) as handle:
            def worker(i):
                barrier.wait()
                with ServiceClient(handle.host, handle.port,
                                   tenant=f"t{i % 3}") as c:
                    for k in range(8):  # each window twice in a row
                        j = (i + k // 2) % len(self.WINDOWS)
                        w, f, lvl = self.WINDOWS[j]
                        try:
                            got = _digest(c.read_window(w, frame=f, level=lvl))
                        except Exception as exc:  # noqa: BLE001
                            failures.append(f"{i}/{k}: {exc!r}")
                            continue
                        if got != expected[j]:
                            failures.append(f"{i}/{k}: window {j} differs")

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            counters = _counters(handle)
        assert not failures, failures
        assert counters["resident_reads"] > 0
        assert counters["batched_reads"] > 0
        assert (counters["resident_reads"] + counters["batched_reads"]
                == n_threads * 8)

    def test_two_reads_on_one_compressed_array(self, store_path, direct):
        """Two threads read one ``CompressedArray`` at once, switching
        between the plain and the masked frame so the mask memo is
        rebound under them; every result matches a serial read."""
        shared = open_store(store_path)
        cases = [(FULL, 1), ((slice(0, 16), 3, slice(4, 30)), 0),
                 ((slice(2, 30),) * 3, 1), (BOX, 0)]
        expected = [
            direct.read_window(w, frame=f).tobytes() for w, f in cases
        ]
        barrier = threading.Barrier(2)
        failures: list[str] = []

        def reader(offset):
            barrier.wait()
            for k in range(40):
                j = (k + offset) % len(cases)
                w, f = cases[j]
                if k % 5 == 0:
                    shared.cache.clear()
                if shared.read_window(w, frame=f).tobytes() != expected[j]:
                    failures.append(f"{offset}/{k}")

        threads = [threading.Thread(target=reader, args=(o,)) for o in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not failures, failures
