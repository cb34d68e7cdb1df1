"""``workers=None`` picks the process count; every choice gives the same bytes.

Whole-volume :func:`repro.compress` / :func:`repro.decompress` (and
``StoreWriter.append``) run one stacked pool task per worker when
:func:`repro.core.parallel.resolve_workers` says so.  These tests check
that payloads and decoded arrays are byte-identical for ``workers``
None/1/2/3 over every tier, mode and input kind, that salvage, worker
loss and tracing behave as in-process, and that small inputs, store
window reads, the service and threads never start a pool.  A store
window read from the main thread rides a pool that is already running
once its cache misses give every task two chunks, with the same bytes.

Most cases lower :data:`~repro.core.parallel.AUTO_MIN_BYTES` to 0 so
small inputs exercise the automatic path; on a one-CPU host (CI runs
this file again under ``taskset -c 0``) automatic must stay in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core import container, parallel
from repro.core.chunking import group_by_shape, plan_chunks
from repro.core.container import build_container, parse_container
from repro.core.parallel import (
    AUTO_MIN_BYTES,
    get_pool,
    resolve_workers,
    shutdown_pools,
    split_groups,
)
from repro.cli import main
from repro.errors import IntegrityError, InvalidArgumentError
from repro.service import ServiceClient, serve_in_thread
from repro.store import StoreWriter, open_store, reader, shard_name, write_store

WORKERS = (None, 1, 2, 3)
CPUS = len(os.sched_getaffinity(0))

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying job reaches pool workers through a forked module",
)


@pytest.fixture
def auto_everything(monkeypatch):
    """Let ``workers=None`` pool inputs of any size."""
    monkeypatch.setattr(parallel, "AUTO_MIN_BYTES", 0)


def _field(shape, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    axes = np.ix_(*[np.linspace(0.0, 3.0, n) for n in shape])
    smooth = sum(np.sin(2.0 * a + k) for k, a in enumerate(axes))
    return (smooth + 0.05 * rng.standard_normal(shape)).astype(dtype)


def _mixed(shape, seed=1):
    """Smooth on the first half, noisy on the second: adaptive splits."""
    data = _field(shape, seed)
    data[shape[0] // 2 :] += np.random.default_rng(seed).normal(
        0.0, 3.0, data[shape[0] // 2 :].shape
    )
    return data


def _masked_f32(shape, seed=2):
    data = _field(shape, seed, dtype=np.float32)
    flat = data.reshape(-1)
    idx = np.random.default_rng(seed).choice(flat.size, 40, replace=False)
    flat[idx[:20]] = np.nan
    flat[idx[20:30]] = np.inf
    flat[idx[30:]] = -np.inf
    return data


#: A ragged grid: 30 = 8+8+8+6, 26 = 8+8+10, 20 = 8+12.
RAGGED = (30, 26, 20)

#: ``id -> (input builder, mode builder, codec)``.
CASES = {
    "quality-pwe": (lambda: _field(RAGGED), lambda d: repro.PweMode(1e-3), "quality"),
    "quality-psnr": (lambda: _field(RAGGED), lambda d: repro.PsnrMode(60.0), "quality"),
    "quality-size": (lambda: _field(RAGGED), lambda d: repro.SizeMode(2.0), "quality"),
    "fast-pwe": (lambda: _field(RAGGED), lambda d: repro.PweMode(1e-3), "fast"),
    "adaptive-pwe": (lambda: _mixed(RAGGED), lambda d: repro.PweMode(1e-3), "adaptive"),
    "zfp-like-pwe": (lambda: _field(RAGGED), lambda d: repro.PweMode(1e-2), "zfp-like"),
    "masked-f32": (lambda: _masked_f32(RAGGED), lambda d: repro.PweMode(1e-3), "quality"),
}


def _compress(case, workers, **kwargs):
    make, mode, codec = CASES[case]
    data = make()
    return data, repro.compress(
        data, mode(data), chunk_shape=8, codec=codec, workers=workers, **kwargs
    )


class TestResolveWorkers:
    def test_explicit_counts_are_kept(self):
        assert resolve_workers(1, 1 << 30, 64) == 1
        assert resolve_workers(3, 0, 1) == 3

    def test_invalid_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resolve_workers(0, 1 << 30, 64)

    def test_below_the_gate_stays_in_process(self):
        assert resolve_workers(None, AUTO_MIN_BYTES - 1, 64) == 1

    def test_one_process_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert resolve_workers(None, AUTO_MIN_BYTES, 64) == 4
        # every worker gets at least two chunks
        assert resolve_workers(None, AUTO_MIN_BYTES, 5) == 2
        assert resolve_workers(None, AUTO_MIN_BYTES, 3) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert resolve_workers(None, AUTO_MIN_BYTES, 64) == 1

    def test_threads_stay_in_process(self):
        out = []
        t = threading.Thread(
            target=lambda: out.append(resolve_workers(None, 1 << 30, 64))
        )
        t.start()
        t.join()
        assert out == [1]

    def test_window_reads_ride_the_largest_running_pool(self, monkeypatch):
        assert resolve_workers(3, 0, 1, window=True) == (3, 3)
        monkeypatch.setattr(parallel, "_POOLS", {})
        assert resolve_workers(None, 1 << 30, 64, window=True) == (1, 1)
        monkeypatch.setattr(parallel, "_POOLS", {2: None, 4: None})
        assert resolve_workers(None, 0, 64, window=True) == (4, 4)
        # a pool of 4 runs a 6-miss read as 3 groups of two
        assert resolve_workers(None, 0, 6, window=True) == (4, 3)
        assert resolve_workers(None, 0, 4, window=True) == (4, 2)
        assert resolve_workers(None, 0, 3, window=True) == (1, 1)
        out = []
        t = threading.Thread(
            target=lambda: out.append(resolve_workers(None, 0, 64, window=True))
        )
        t.start()
        t.join()
        assert out == [(1, 1)]

    @pytest.mark.parametrize("n, parts", [(0, 2), (1, 3), (7, 2), (64, 3), (5, 8)])
    def test_split_groups_is_contiguous_and_even(self, n, parts):
        groups = split_groups(n, parts)
        assert [i for g in groups for i in g] == list(range(n))
        assert len(groups) == max(1, min(parts, n))
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.usefixtures("auto_everything")
class TestByteIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_payload_and_decode_match_in_process(self, case):
        data, ref = _compress(case, 1)
        want = repro.decompress(ref.payload, workers=1)
        assert want.dtype == data.dtype
        for workers in WORKERS:
            _, other = _compress(case, workers)
            assert other.payload == ref.payload, workers
            assert other.notes == ref.notes
            got = repro.decompress(ref.payload, workers=workers)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), workers

    def test_groups_hold_several_shape_groups(self):
        """The ragged grid's contiguous groups each mix chunk shapes, so
        every task stacks more than one shape group."""
        chunks = plan_chunks(RAGGED, 8)
        for workers in (2, 3):
            for group in split_groups(len(chunks), workers):
                assert len(group_by_shape([chunks[i] for i in group])) > 1

    def test_auto_path_uses_the_pool(self):
        shutdown_pools()
        _compress("quality-pwe", None)
        expected = [min(CPUS, len(plan_chunks(RAGGED, 8)) // 2)]
        assert list(parallel._POOLS) == (expected if CPUS > 1 else [])

    def test_store_append_uses_the_auto_rule(self, tmp_path):
        data = _field(RAGGED)
        mode = repro.PweMode(1e-3)
        ref = repro.compress(data, mode, chunk_shape=8, workers=1)
        shutdown_pools()
        written = write_store(tmp_path / "s", data, mode, chunk_shape=8)
        assert written.payload == ref.payload
        assert bool(parallel._POOLS) == (CPUS > 1)


def _damage(payload: bytes) -> tuple[bytes, int, int]:
    """Break two chunks: ``bad`` decodes to garbage under a valid CRC,
    ``flip`` keeps its bytes but fails its CRC."""
    p = parse_container(payload)
    streams = list(p.streams)
    bad, flip = 3, len(streams) - 2
    streams[bad] = b"\x07" * 40
    damaged = bytearray(
        build_container(
            p.rank, p.dtype, p.mode_code, p.shape, p.chunks, streams,
            codec_tags=p.codec_tags, mask_blob=p.mask_blob,
        )
    )
    offset = len(damaged) - sum(len(s) for s in streams[flip:])
    damaged[offset + len(streams[flip]) // 2] ^= 0xFF
    return bytes(damaged), bad, flip


@pytest.mark.usefixtures("auto_everything")
class TestSalvage:
    def test_salvage_matches_in_process(self):
        _, result = _compress("quality-pwe", 1)
        damaged, bad, flip = _damage(result.payload)
        ref = repro.decompress(damaged, workers=1, on_error="salvage", fill_value=-7.0)
        assert ref.report.failed_chunks == sorted([bad, flip])
        assert ref.report.crc_mismatches == [flip]
        assert np.all(ref.data[plan_chunks(RAGGED, 8)[bad].slices()] == -7.0)
        for workers in WORKERS:
            got = repro.decompress(
                damaged, workers=workers, on_error="salvage", fill_value=-7.0
            )
            assert got.data.tobytes() == ref.data.tobytes(), workers
            assert got.report == ref.report, workers

    def test_raise_mode_raises_the_same_error(self):
        _, result = _compress("quality-pwe", 1)
        damaged, _bad, _flip = _damage(result.payload)
        for workers in WORKERS:
            with pytest.raises(repro.ReproError, match="CRC mismatch"):
                repro.decompress(damaged, workers=workers)


@needs_fork
@pytest.mark.usefixtures("auto_everything")
class TestWorkerLoss:
    """A pool worker killed mid-task degrades to in-process execution
    with notes and the same bytes."""

    @staticmethod
    def _kill_workers(monkeypatch, name):
        original = getattr(container, name)
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args, **kwargs)

        shutdown_pools()  # pools fork lazily from the patched module
        monkeypatch.setattr(container, name, dying)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_compress_degrades(self, monkeypatch, workers):
        _, ref = _compress("adaptive-pwe", 1)
        self._kill_workers(monkeypatch, "_compress_parts")
        _, got = _compress("adaptive-pwe", workers)
        assert got.payload == ref.payload
        if workers is None and CPUS == 1:
            assert got.notes == ref.notes
            return
        details = [n.detail for n in got.notes if n.kind == "pool_fallback"]
        assert any("broken process pool" in d for d in details)
        assert any("serial" in d for d in details)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_decompress_degrades(self, monkeypatch, workers):
        _, ref = _compress("quality-pwe", 1)
        want = repro.decompress(ref.payload, workers=1)
        self._kill_workers(monkeypatch, "decode_tagged_chunk")
        got = repro.decompress(ref.payload, workers=workers, on_error="salvage")
        assert got.data.tobytes() == want.tobytes()
        assert got.report.ok
        pooled = not (workers is None and CPUS == 1)
        assert any("broken process pool" in n for n in got.report.notes) == pooled


class TestStaysInProcess:
    """Inputs below the gate, store window reads, the service and
    threads never start a pool."""

    def test_below_the_gate_creates_no_pool(self):
        data = _field((32, 32, 32))
        assert data.nbytes < AUTO_MIN_BYTES
        shutdown_pools()
        payload = repro.compress(data, repro.PweMode(1e-3), chunk_shape=8).payload
        repro.decompress(payload)
        assert parallel._POOLS == {}

    def test_thread_creates_no_pool(self, auto_everything):
        shutdown_pools()
        errors = []

        def run():
            try:
                _compress("quality-pwe", None)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert errors == []
        assert parallel._POOLS == {}

    def test_service_and_window_reads_create_no_pool(self, tmp_path):
        data = _field((128, 128, 128))
        assert data.nbytes >= AUTO_MIN_BYTES
        mode = repro.PweMode(1e-3)
        path = tmp_path / "store"
        write_store(path, data, mode, chunk_shape=32, workers=1)
        shutdown_pools()
        arr = open_store(path)
        full = arr.read_window(None)
        assert parallel._POOLS == {}
        with serve_in_thread(path) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                payload = client.compress(data, pwe=1e-3, chunk=32)
                back = client.decompress(payload)
        assert parallel._POOLS == {}
        assert np.max(np.abs(back - data)) <= mode.tolerance
        assert np.max(np.abs(full - data)) <= mode.tolerance


#: Frame 1 of the float64 store has this chunk's CRC broken.
DAMAGED = 5

#: ``id -> (store, read_window keywords)``; every read misses 4+ chunks.
READS = {
    "full": ("f64", {}),
    "window": ("f64", {"window": (slice(3, 25), slice(2, 20), slice(1, 19))}),
    "int-index": ("f64", {"window": (slice(0, 30), 9, slice(None))}),
    "level1": ("f64", {"level": 1}),
    "budget": ("f64", {"window": (slice(0, 20), slice(0, 20)), "budget": 3000}),
    "salvage": ("f64", {"frame": 1, "on_error": "salvage", "fill_value": -7.0}),
    "masked-f32": ("f32", {"window": (slice(2, 30), slice(4, 26))}),
}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Two stores on the :data:`RAGGED` grid at chunk 8 (36 chunks): a
    float64 one of two frames, chunk :data:`DAMAGED` of frame 1 with a
    flipped byte, and a one-frame float32 one with NaN/Inf samples."""
    root = tmp_path_factory.mktemp("window_reads")
    mode = repro.PweMode(1e-3)
    with StoreWriter(root / "f64", mode, chunk_shape=8, workers=1) as writer:
        writer.append(_field(RAGGED, 3))
        writer.append(_field(RAGGED, 4))
    entry = open_store(root / "f64").index.entries[1][DAMAGED]
    shard = root / "f64" / shard_name(entry.shard)
    raw = bytearray(shard.read_bytes())
    raw[entry.offset + entry.length // 2] ^= 0xFF
    shard.write_bytes(bytes(raw))
    write_store(
        root / "f32", _masked_f32(RAGGED), repro.PweMode(1e-3), chunk_shape=8, workers=1
    )
    return root


def _read(path: Path, workers, **kwargs):
    """One read on a fresh handle: ``(dtype, shape, bytes, report)`` and
    the pids of its chunk decode spans."""
    with obs.trace("read") as tracer:
        result = open_store(path).read_window(workers=workers, **kwargs)
    report = None
    if isinstance(result, repro.DecodeResult):
        result, report = result.data, result.report
    pids = {s.pid for s in tracer.report().find("store.chunk.decode")}
    return (result.dtype, result.shape, result.tobytes(), report), pids


@pytest.fixture
def decode_calls(monkeypatch):
    """The ``(workers, groups)`` of every ``decode_window`` a read makes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((kwargs["workers"], kwargs["groups"]))
        return container.decode_window(*args, **kwargs)

    monkeypatch.setattr(reader, "decode_window", spy)
    return calls


class TestWindowReads:
    """A main-thread ``read_window(workers=None)`` decodes its misses on
    the largest running pool once they give every task two chunks, with
    the bytes of ``workers=1``; it never starts a pool or one of a new
    size."""

    @pytest.mark.parametrize("case", list(READS))
    def test_rides_a_running_pool(self, stores, case):
        name, kwargs = READS[case]
        want, in_process = _read(stores / name, 1, **kwargs)
        assert in_process == {os.getpid()}
        get_pool(2)
        running = sorted(parallel._POOLS)
        got, pids = _read(stores / name, None, **kwargs)
        assert got == want
        assert pids and os.getpid() not in pids
        assert sorted(parallel._POOLS) == running
        if case == "salvage":
            assert got[3].failed_chunks == [DAMAGED]

    def test_raise_mode_raises_the_same_error(self, stores):
        get_pool(2)
        for workers in WORKERS:
            with pytest.raises(IntegrityError, match=f"chunk {DAMAGED} CRC"):
                open_store(stores / "f64").read_window(frame=1, workers=workers)

    def test_mixed_cache_hits(self, stores, decode_calls):
        first = (slice(0, 16), slice(0, 16))
        second = (slice(0, 30), slice(0, 16))  # half of it cached
        get_pool(2)
        outs = {}
        for workers in (1, None):
            arr = open_store(stores / "f64")
            outs[workers] = [
                arr.read_window(w, workers=workers).tobytes() for w in (first, second)
            ]
            assert len(arr.cache) == len(arr.chunks_for_window(second))
        assert outs[None] == outs[1]
        # 12 misses, then 12 hits and 12 misses: both ride the pool of 2
        assert decode_calls[2:] == [(2, 2), (2, 2)]

    def test_rides_the_largest_pool_with_fewer_groups(self, stores, decode_calls):
        shutdown_pools()
        get_pool(2)
        get_pool(3)
        window = (slice(0, 16), slice(0, 16), slice(0, 8))  # 2 x 2 x 1 chunks
        arr = open_store(stores / "f64", cache_bytes=0)
        assert len(arr.chunks_for_window(window)) == 4
        got = arr.read_window(window)
        assert decode_calls == [(3, 2)]
        assert sorted(parallel._POOLS) == [2, 3]
        assert got.tobytes() == arr.read_window(window, workers=1).tobytes()

    def test_no_pool_running_stays_in_process(self, stores, decode_calls):
        shutdown_pools()
        _, pids = _read(stores / "f64", None)
        assert pids == {os.getpid()}
        assert decode_calls == [(1, 1)]
        assert parallel._POOLS == {}

    def test_too_few_misses_stay_in_process(self, stores, decode_calls):
        get_pool(2)
        running = sorted(parallel._POOLS)
        window = (slice(0, 8), slice(0, 8), slice(0, 20))  # three chunks
        _, pids = _read(stores / "f64", None, window=window)
        assert pids == {os.getpid()}
        assert decode_calls == [(1, 1)]
        assert sorted(parallel._POOLS) == running

    def test_thread_stays_in_process(self, stores, decode_calls):
        get_pool(2)
        arr = open_store(stores / "f64")
        out = []
        t = threading.Thread(target=lambda: out.append(arr.read_window()))
        t.start()
        t.join()
        assert decode_calls == [(1, 1)]
        assert out[0].tobytes() == arr.read_window(workers=1).tobytes()

    @pytest.mark.parametrize("window", [None, "3:25,2:20,1:19"])
    def test_one_shot_cli_get_creates_no_pool(self, stores, tmp_path, window):
        """A one-shot ``sperr store get`` has no pool to ride: starting
        one would cost more than its read saves."""
        shutdown_pools()
        out = tmp_path / "w.npy"
        args = ["store", "get", str(stores / "f64"), str(out)]
        assert main(args + (["--window", window] if window else [])) == 0
        assert parallel._POOLS == {}
        want = open_store(stores / "f64").read(workers=1)
        if window:
            want = want[3:25, 2:20, 1:19]
        assert np.load(out).tobytes() == want.tobytes()


@pytest.mark.usefixtures("auto_everything")
class TestTrace:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_every_chunk_has_a_speck_encode_span(self, workers):
        n_chunks = len(plan_chunks(RAGGED, 8))
        _, result = _compress("quality-pwe", workers, trace=True)
        report = result.trace
        assert isinstance(report, obs.TraceReport)
        # One span per shape group per task; lanes count its chunks.
        coded = [s.attrs["lanes"] for s in report.find("chunk.compress")]
        assert sum(coded) == n_chunks
        encodes = report.find("speck.encode")
        assert len(encodes) == len(coded)
        assert sum(s.attrs["lanes"] for s in encodes) == n_chunks
        assert report.counters["chunk.bytes"] > 0


class TestNoLeftoverProcess:
    def test_default_roundtrip_leaves_no_process(self):
        """Pool workers and the resource tracker end with their caller."""
        from orphan_check import leftovers

        left, report = leftovers(size=128, grace=2.0)
        assert left == [], report
        # 128³ in 32³ chunks is 64 chunks: past the gate on any host.
        assert report.startswith(f"pools {[min(CPUS, 32)] if CPUS > 1 else []}")
