"""Service under concurrency: coalescing, backpressure, tenant isolation.

The behavioural contracts the service tier exists for, pinned with 16+
concurrent clients against an in-process server:

* a burst of window reads touching the same chunks decodes each chunk
  **once** (verified through the :mod:`repro.obs` counters the server
  emits — the batch overlay's decode/coalesce split must reconcile with
  the store's chunk geometry via ``chunks_for_window``);
* every concurrent response is byte-identical to a direct
  ``read_window`` on the same store;
* admission control **rejects** excess load with structured
  backpressure errors instead of queueing it, and the server stays
  healthy afterwards;
* one tenant flooding the cache cannot evict another tenant's
  within-quota working set (the end-to-end version of the tenant
  tests of ``DecodedChunkCache`` in ``test_store_cache.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core.modes import PweMode
from repro.service import (
    BackpressureError,
    ServiceClient,
    ServiceConfig,
    serve_in_thread,
)
from repro.store import open_store, write_store

PWE = 1e-3
N_CLIENTS = 16
CHUNK_BYTES = 16 * 16 * 16 * 8  # one decoded chunk of the test store


def _field(shape=(32, 32, 32), seed=3):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, shape[0])
    base = np.add.outer(np.sin(x), np.cos(x))
    for _ in range(len(shape) - 2):
        base = np.multiply.outer(base, np.cos(x))
    return base + 0.05 * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("service-conc") / "store.rps"
    write_store(path, _field(), PweMode(PWE), chunk_shape=16)
    return path


def _burst(n, fn):
    """Run ``fn(i)`` on ``n`` threads released together; returns results.

    Exceptions propagate: each slot holds either a result or the raised
    exception, and the caller decides which are acceptable.
    """
    barrier = threading.Barrier(n)
    results = [None] * n

    def runner(i):
        barrier.wait()
        try:
            results[i] = ("ok", fn(i))
        except Exception as exc:  # noqa: BLE001 - collected for the caller
            results[i] = ("error", exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    assert all(r is not None for r in results), "a client thread hung"
    return results


class TestCoalescing:
    def test_same_window_burst_decodes_each_chunk_once(self, store_path):
        """16 clients, same 8-chunk window, one decode per chunk."""
        config = ServiceConfig(
            batch_hold_s=0.25,  # long hold: the whole burst lands in one batch
            max_batch=64,
            max_inflight_per_tenant=N_CLIENTS,
            max_pending=2 * N_CLIENTS,
        )
        window = (slice(0, 32), slice(0, 32), slice(0, 32))
        direct = open_store(store_path, cache_bytes=0)
        n_chunks = len(direct.chunks_for_window(window))
        assert n_chunks == 8
        want = direct.read_window(window)

        with serve_in_thread(store_path, config=config) as handle:
            with obs.trace("service-burst") as tracer:
                def one_read(i):
                    with ServiceClient(handle.host, handle.port) as c:
                        return c.read_window(window)

                results = _burst(N_CLIENTS, one_read)
            report = tracer.report()
            with ServiceClient(handle.host, handle.port) as probe:
                counters = probe.stats()["counters"]

        for status, value in results:
            assert status == "ok", f"read failed: {value}"
            assert value.tobytes() == want.tobytes()

        # The whole burst coalesced into one batch: each chunk decoded
        # exactly once, every other touch was a coalesced overlay hit.
        assert report.counters["service.chunk.decodes"] == n_chunks
        assert counters["chunk_decodes"] == n_chunks
        assert (
            report.counters["service.chunk.coalesced"]
            == (N_CLIENTS - 1) * n_chunks
        )
        assert counters["batches"] == 1
        assert report.counters["service.requests.read_window"] == N_CLIENTS

    def test_mixed_windows_never_decode_more_than_distinct_chunks(
        self, store_path
    ):
        """Overlapping different windows: decodes <= union of chunks."""
        config = ServiceConfig(
            batch_hold_s=0.25,
            max_batch=64,
            max_inflight_per_tenant=N_CLIENTS,
            max_pending=2 * N_CLIENTS,
        )
        direct = open_store(store_path, cache_bytes=0)
        windows = [
            (slice(0, 16), slice(0, 32), slice(0, 32)),
            (slice(8, 24), slice(8, 24), slice(8, 24)),
            (slice(16, 32), slice(0, 16), slice(0, 16)),
            (slice(0, 32), slice(16, 32), slice(16, 32)),
        ]
        union = set()
        for w in windows:
            union.update(direct.chunks_for_window(w))
        expected = [direct.read_window(w).tobytes() for w in windows]

        with serve_in_thread(store_path, config=config) as handle:
            def one_read(i):
                idx = i % len(windows)
                with ServiceClient(handle.host, handle.port) as c:
                    return idx, c.read_window(windows[idx])

            results = _burst(N_CLIENTS, one_read)
            with ServiceClient(handle.host, handle.port) as probe:
                counters = probe.stats()["counters"]

        for status, value in results:
            assert status == "ok", f"read failed: {value}"
            idx, got = value
            assert got.tobytes() == expected[idx]
        # Coalescing + caching bound the decode work by the chunk union,
        # not by the request count (16 requests x up-to-8 chunks each).
        assert counters["chunk_decodes"] <= len(union)
        assert counters["coalesced_chunk_hits"] > 0


class TestBackpressure:
    def test_excess_load_is_rejected_not_queued(self, store_path):
        config = ServiceConfig(
            max_inflight_per_tenant=1,
            max_pending=2,
            workers=1,
            batch_hold_s=0.1,  # slow drain: the caps must actually bind
            retry_after_ms=25,
        )
        window = (slice(0, 32), slice(0, 32), slice(0, 32))
        with serve_in_thread(store_path, config=config) as handle:
            def one_read(i):
                with ServiceClient(
                    handle.host, handle.port, tenant="flood"
                ) as c:
                    return c.read_window(window)

            results = _burst(N_CLIENTS, one_read)
            with ServiceClient(handle.host, handle.port) as probe:
                assert probe.ping()  # no meltdown
                counters = probe.stats()["counters"]

        ok = [v for s, v in results if s == "ok"]
        errors = [v for s, v in results if s == "error"]
        assert ok, "the admitted requests must still succeed"
        assert errors, "a 16-deep same-tenant burst must trip the caps"
        for exc in errors:
            assert isinstance(exc, BackpressureError)
            assert exc.code == "backpressure"
            assert exc.retry_after_ms == 25
        assert counters["backpressure_rejects"] == len(errors)
        # Rejected requests never entered the data plane: every admitted
        # read either queued into a batch or, once an earlier read left
        # the window resident, ran as a resident read.
        assert (
            counters["batched_reads"] + counters.get("resident_reads", 0)
            == len(ok)
        )

    def test_control_plane_bypasses_admission(self, store_path):
        config = ServiceConfig(
            max_inflight_per_tenant=1, max_pending=1, workers=1,
            batch_hold_s=0.2,
        )
        window = (slice(0, 32), slice(0, 32), slice(0, 32))
        with serve_in_thread(store_path, config=config) as handle:
            def one(i):
                with ServiceClient(handle.host, handle.port) as c:
                    if i % 2:
                        return ("ping", c.ping())
                    try:
                        return ("read", c.read_window(window).shape)
                    except BackpressureError:
                        return ("read", "rejected")

            results = _burst(N_CLIENTS, one)
        # Every ping answered even while reads were being shed.
        for status, value in results:
            assert status == "ok"
            op, out = value
            if op == "ping":
                assert out is True

    def test_backpressure_recovers_after_retry(self, store_path):
        config = ServiceConfig(
            max_inflight_per_tenant=2, max_pending=4, workers=1,
            batch_hold_s=0.05, retry_after_ms=20,
        )
        window = (slice(0, 16), slice(0, 16), slice(0, 16))
        with serve_in_thread(store_path, config=config) as handle:
            import time

            def one_read(i):
                with ServiceClient(
                    handle.host, handle.port, tenant="retry"
                ) as c:
                    for _ in range(50):
                        try:
                            return c.read_window(window)
                        except BackpressureError as exc:
                            time.sleep(exc.retry_after_ms / 1e3)
                    raise AssertionError("starved despite retries")

            results = _burst(N_CLIENTS, one_read)
        direct = open_store(store_path, cache_bytes=0)
        want = direct.read_window(window).tobytes()
        for status, value in results:
            assert status == "ok", f"retry loop failed: {value}"
            assert value.tobytes() == want


class TestTenantIsolation:
    def test_flooding_tenant_cannot_evict_anothers_hot_set(self, store_path):
        """Tenant A's within-quota chunks survive tenant B's scans."""
        quota = 8 * CHUNK_BYTES  # each tenant may hold one full frame
        config = ServiceConfig(
            cache_bytes=2 * quota,
            tenant_quota_bytes=quota,
            batch_hold_s=0.0,
        )
        window = (slice(0, 32), slice(0, 32), slice(0, 32))
        with serve_in_thread(store_path, config=config) as handle:
            with ServiceClient(handle.host, handle.port, tenant="a") as a, \
                    ServiceClient(handle.host, handle.port, tenant="b") as b:
                a.read_window(window)  # A warms its full working set
                for _ in range(6):  # B floods well past its own quota
                    b.read_window(window)
                    b.read_window(window, level=1)
                after_flood = a.stats()
                a.read_window(window)  # A again: must be all cache hits
                final = a.stats()["counters"]["chunk_decodes"]
                tenants = after_flood["cache"]["tenants"]

        assert tenants["a"]["nbytes"] == quota  # A's set still resident
        assert tenants["a"]["evictions"] == 0
        assert tenants["b"]["evictions"] > 0  # B evicted only itself
        # A's re-read triggered no decode at all: its hot set survived.
        assert final == after_flood["counters"]["chunk_decodes"]

    def test_concurrent_tenants_each_get_correct_bytes(self, store_path):
        config = ServiceConfig(
            tenant_quota_bytes=4 * CHUNK_BYTES,
            max_inflight_per_tenant=4,
            max_pending=64,
            batch_hold_s=0.02,
        )
        direct = open_store(store_path, cache_bytes=0)
        windows = [
            (slice(0, 16), slice(0, 16), slice(0, 16)),
            (slice(16, 32), slice(16, 32), slice(16, 32)),
            (slice(4, 20), slice(4, 20), slice(4, 20)),
            (slice(0, 32), 5, slice(0, 32)),
        ]
        expected = [direct.read_window(w).tobytes() for w in windows]

        with serve_in_thread(store_path, config=config) as handle:
            def one(i):
                idx = i % len(windows)
                with ServiceClient(
                    handle.host, handle.port, tenant=f"t{i % 4}"
                ) as c:
                    out = [
                        c.read_window(windows[idx]).tobytes()
                        for _ in range(3)
                    ]
                return idx, out

            results = _burst(N_CLIENTS, one)
        for status, value in results:
            assert status == "ok", f"tenant read failed: {value}"
            idx, outs = value
            for got in outs:
                assert got == expected[idx]
