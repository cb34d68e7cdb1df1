"""Random-access store: format, windowed reads, salvage, budget, CLI.

The load-bearing contracts pinned here:

* ``read_window`` at level 0 is **bit-exact** with slicing the full
  container decompression, for arbitrary windows (a Hypothesis sweep
  over random slice tuples, including single-voxel, edge, empty, and
  full-array windows), with the decoded-chunk cache on or off.
* Only intersecting chunks are touched — verified through the
  ``store.chunks.requested`` / ``store.chunks.decoded`` obs counters on
  a multi-chunk 64^3 store.
* A corrupted chunk honors ``on_error="salvage"``/``fill_value``:
  only the damaged chunk's window intersection is filled, everything
  else is recovered exactly, and the ``DecodeReport`` names the chunk.
* The footer index is integrity-checked (CRC) and refuses malformed
  grids before any shard I/O.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import decompress, obs
from repro.cli import EXIT_BAD_ARGS, EXIT_CORRUPT, main
from repro.core.container import DecodeResult
from repro.core.modes import PweMode
from repro.errors import IntegrityError, InvalidArgumentError, StreamFormatError
from repro.store import (
    StoreWriter,
    open_store,
    pack_index,
    parse_index,
    shard_name,
    write_store,
)
from repro.store.format import INDEX_NAME


def _smooth(shape, seed=7):
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    data = np.sin(2 * axes[0])
    for a in axes[1:]:
        data = data * np.cos(1.5 * a)
    return (data + 0.05 * rng.standard_normal(shape)).astype(np.float32)


@pytest.fixture(scope="module")
def store64(tmp_path_factory):
    """A multi-chunk 64^3 store (32^3 chunks -> 8 chunks, several shards)
    plus the bit-exact full reconstruction to compare windows against."""
    path = tmp_path_factory.mktemp("store64") / "st"
    data = _smooth((64, 64, 64))
    result = write_store(
        path, data, PweMode(2e-3), chunk_shape=32, shard_bytes=1 << 14
    )
    full = decompress(result.payload)
    return path, full


@pytest.fixture(scope="module")
def store_uneven(tmp_path_factory):
    """A 40x36x20 store at chunk 16: axis runs (0, 16, 32, 40), (0, 16, 36)
    and (0, 20), so merged remainders make interior and edge chunks of
    four different shapes."""
    path = tmp_path_factory.mktemp("store_uneven") / "st"
    data = _smooth((40, 36, 20), seed=11)
    result = write_store(path, data, PweMode(2e-3), chunk_shape=16)
    full = decompress(result.payload)
    return path, full


@pytest.fixture(scope="module")
def store_small(tmp_path_factory):
    """A small 3-D store (uneven chunk grid) for the property sweep,
    opened twice: once with the decoded-chunk cache, once without."""
    path = tmp_path_factory.mktemp("store_small") / "st"
    data = _smooth((20, 13, 9), seed=3)
    result = write_store(path, data, PweMode(1e-3), chunk_shape=8)
    full = decompress(result.payload)
    return full, open_store(path), open_store(path, cache_bytes=0)


class TestIndexFormat:
    def test_roundtrip(self, store64):
        path, _ = store64
        payload = (path / INDEX_NAME).read_bytes()
        index = parse_index(payload)
        assert pack_index(index) == payload
        assert index.n_chunks == 8
        assert index.n_frames == 1
        assert index.n_shards >= 2

    def test_crc_detects_corruption(self, store64):
        path, _ = store64
        payload = bytearray((path / INDEX_NAME).read_bytes())
        payload[30] ^= 0x5A
        with pytest.raises(IntegrityError):
            parse_index(bytes(payload))

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError):
            parse_index(b"NOTANIDX" + b"\x00" * 64)

    def test_truncated_index(self, store64):
        path, _ = store64
        payload = (path / INDEX_NAME).read_bytes()
        for cut in (4, 12, 20, len(payload) - 3):
            with pytest.raises(StreamFormatError):
                parse_index(payload[:cut])


class TestReadWindow:
    def test_full_read_matches_container(self, store64):
        path, full = store64
        arr = open_store(path)
        out = arr.read()
        assert out.dtype == full.dtype
        assert np.array_equal(out, full)

    @pytest.mark.parametrize(
        "store, window",
        [
            pytest.param("store64", window, id=f"window{i}")
            for i, window in enumerate([
                (slice(0, 32), slice(0, 32), slice(0, 32)),      # one chunk
                (slice(8, 40), slice(16, 48), slice(0, 64)),     # crosses chunks
                (slice(31, 33), slice(31, 33), slice(31, 33)),   # 2^3 across all 8
                (slice(63, 64), slice(0, 1), slice(5, 6)),       # single voxel
                (slice(0, 64), slice(0, 64), slice(0, 64)),      # full array
                (slice(-10, None), slice(None, -50), slice(None)),  # negatives
            ])
        ]
        + [
            pytest.param("store_uneven", window, id=f"uneven{i}")
            for i, window in enumerate([
                (slice(16, 32), slice(16, 36), slice(0, 20)),    # one merged chunk
                (slice(10, 35), slice(14, 18), slice(3, 17)),    # crosses every run
                (slice(31, 33), slice(15, 17), slice(19, 20)),   # corner of 4 chunks
                (slice(39, 40), slice(35, 36), slice(0, 1)),     # single edge voxel
                (slice(None), slice(None), slice(None)),         # full array
                (slice(-9, None), slice(None, -21), slice(5, 5)),  # negatives, empty
            ])
        ],
    )
    def test_window_matches_slicing(self, request, store, window):
        path, full = request.getfixturevalue(store)
        arr = open_store(path)
        assert np.array_equal(arr.read_window(window), full[window])

    def test_int_index_squeezes(self, store64):
        path, full = store64
        arr = open_store(path)
        out = arr.read_window((7, slice(0, 10)))
        assert out.shape == (10, 64)
        assert np.array_equal(out, full[7, 0:10])
        assert np.array_equal(arr.read_window((-1, -1, -1)), full[-1, -1, -1])

    def test_empty_window(self, store64):
        path, full = store64
        arr = open_store(path)
        out = arr.read_window((slice(5, 5), slice(0, 10), slice(None)))
        assert out.shape == (0, 10, 64)

    @pytest.mark.parametrize("level, shape", [(0, (0, 10, 20)), (1, (0, 8, 10))])
    def test_empty_window_touches_no_chunk(self, store_uneven, level, shape):
        path, _ = store_uneven
        arr = open_store(path)
        window = (slice(5, 5), slice(0, 10), slice(None))
        assert arr.chunks_for_window(window) == []
        before = arr.cache.stats()
        assert arr.read_window(window, level=level).shape == shape
        assert arr.cache.stats() == before

    def test_only_intersecting_chunks_decoded(self, store64):
        path, _ = store64
        arr = open_store(path)  # fresh cache
        with obs.trace("t") as tracer:
            arr.read_window((slice(2, 20), slice(40, 60), slice(33, 64)))
        c = tracer.report().counters
        # the window lives in exactly one 32^3 chunk of the 8
        assert c["store.chunks.requested"] == 1
        assert c["store.chunks.decoded"] == 1
        assert c.get("store.cache.hits", 0) + c["store.cache.misses"] == 1
        assert c["store.bytes.disk"] > 0

    def test_counters_reconcile_when_warm(self, store64):
        path, _ = store64
        arr = open_store(path)
        window = (slice(8, 40), slice(8, 40), slice(8, 40))  # all 8 chunks
        arr.read_window(window)
        with obs.trace("t") as tracer:
            arr.read_window(window)
        c = tracer.report().counters
        assert c["store.chunks.requested"] == 8
        assert c.get("store.cache.hits", 0) == 8
        assert c.get("store.cache.misses", 0) == 0
        assert c.get("store.chunks.decoded", 0) == 0
        assert c.get("store.bytes.disk", 0) == 0

    def test_invalid_windows(self, store64):
        path, _ = store64
        arr = open_store(path)
        with pytest.raises(InvalidArgumentError):
            arr.read_window((slice(0, 10, 2),))  # stepped
        with pytest.raises(InvalidArgumentError):
            arr.read_window((0, 0, 0, 0))  # too many axes
        with pytest.raises(InvalidArgumentError):
            arr.read_window((100, 0, 0))  # index out of bounds
        with pytest.raises(InvalidArgumentError):
            arr.read_window("0:5")  # not a tuple
        with pytest.raises(InvalidArgumentError):
            arr.read_window(None, frame=3)
        with pytest.raises(InvalidArgumentError):
            arr.read_window(None, level=99)
        with pytest.raises(InvalidArgumentError):
            arr.read_window(None, budget=0)
        with pytest.raises(InvalidArgumentError):
            arr.read_window(None, on_error="ignore")


@st.composite
def windows(draw):
    """A random window over a (20, 13, 9) store: slices (possibly empty,
    negative, open-ended) and integer indices, variable axis count."""
    shape = (20, 13, 9)
    naxes = draw(st.integers(0, 3))
    window = []
    for ax in range(naxes):
        n = shape[ax]
        kind = draw(st.sampled_from(["slice", "int", "full"]))
        if kind == "full":
            window.append(slice(None))
        elif kind == "int":
            window.append(draw(st.integers(-n, n - 1)))
        else:
            lo = draw(st.one_of(st.none(), st.integers(-n - 2, n + 2)))
            hi = draw(st.one_of(st.none(), st.integers(-n - 2, n + 2)))
            window.append(slice(lo, hi))
    return tuple(window)


class TestWindowProperty:
    @settings(max_examples=40, deadline=None)
    @given(window=windows())
    def test_matches_full_decode_cached_and_uncached(
        self, store_small, window
    ):
        # The cached store accumulates entries across examples by design:
        # results must be identical whether a chunk comes from disk or
        # from a previous example's cache entry.
        full, cached, uncached = store_small
        expected = full[window]
        got_cached = cached.read_window(window)
        got_cold = uncached.read_window(window)
        assert got_cached.shape == expected.shape
        assert np.array_equal(got_cached, expected)
        assert np.array_equal(got_cold, expected)


class TestSalvage:
    @pytest.fixture()
    def damaged(self, tmp_path):
        """A 40^3 store with one chunk's bytes flipped in its shard."""
        data = _smooth((40, 40, 40), seed=11)
        path = tmp_path / "st"
        result = write_store(
            path, data, PweMode(1e-3), chunk_shape=16, shard_bytes=1 << 14
        )
        full = decompress(result.payload)
        arr = open_store(path)
        bad = 5
        entry = arr.index.entries[0][bad]
        shard = path / shard_name(entry.shard)
        raw = bytearray(shard.read_bytes())
        raw[entry.offset + 3] ^= 0xFF
        shard.write_bytes(bytes(raw))
        return path, full, bad

    def test_raise_mode_raises(self, damaged):
        path, _, _ = damaged
        with pytest.raises(IntegrityError):
            open_store(path).read()

    def test_window_avoiding_damage_still_reads(self, damaged):
        path, full, _ = damaged
        arr = open_store(path)
        # chunk 5 does not intersect this window, so raise mode succeeds
        window = (slice(0, 16), slice(0, 16), slice(0, 16))
        assert np.array_equal(arr.read_window(window), full[window])

    def test_salvage_fills_only_damaged_intersection(self, damaged):
        path, full, bad = damaged
        arr = open_store(path)
        result = arr.read(on_error="salvage", fill_value=-7.5)
        assert isinstance(result, DecodeResult)
        assert result.report.failed_chunks == [bad]
        assert result.report.crc_mismatches == [bad]
        out = np.asarray(result)
        sl = arr.index.chunks[bad].slices()
        assert np.all(out[sl] == -7.5)
        mask = np.ones(out.shape, dtype=bool)
        mask[sl] = False
        assert np.array_equal(out[mask], full[mask])

    def test_salvage_default_fill_is_nan(self, damaged):
        path, _, bad = damaged
        arr = open_store(path)
        out = np.asarray(arr.read(on_error="salvage"))
        assert np.isnan(out[arr.index.chunks[bad].slices()]).all()

    def test_salvage_missing_shard(self, damaged):
        path, _, _ = damaged
        arr = open_store(path)
        victim = path / shard_name(0)
        affected = [
            i for i, e in enumerate(arr.index.entries[0]) if e.shard == 0
        ]
        victim.unlink()
        with pytest.raises(StreamFormatError):
            arr.read()
        result = arr.read(on_error="salvage", fill_value=0.0)
        assert set(affected) <= set(result.report.failed_chunks)

    def test_salvage_reports_ok_chunks(self, damaged):
        path, _, bad = damaged
        arr = open_store(path)
        result = arr.read(on_error="salvage")
        assert result.report.n_chunks == arr.n_chunks
        ok = [s.index for s in result.report.chunk_status if s.ok]
        assert bad not in ok and len(ok) == arr.n_chunks - 1


class TestMultiresAndBudget:
    @pytest.mark.parametrize(
        "store, shape",
        [("store64", (32, 32, 32)), ("store_uneven", (20, 18, 10))],
        ids=["store64", "uneven"],
    )
    def test_coarse_preview_shape_and_sanity(self, request, store, shape):
        path, full = request.getfixturevalue(store)
        arr = open_store(path)
        assert arr.max_level >= 1
        coarse = arr.read(level=1)
        assert coarse.shape == shape
        # coarse preview approximates a 2x-downsampled volume
        ds = full[::2, ::2, ::2].astype(np.float64)
        err = np.abs(coarse.astype(np.float64) - ds).mean()
        assert err < 0.5 * np.abs(ds).mean() + 0.1

    @pytest.mark.parametrize(
        "store, window, shape",
        [
            # window inside one 32^3 chunk -> that chunk's level-1 box
            ("store64", (slice(0, 10), slice(0, 10), slice(0, 10)), (16, 16, 16)),
            # runs (16, 32) + (32, 40), (16, 36), (0, 20) -> 8 + 4, 10, 10
            ("store_uneven", (slice(30, 34), slice(20, 21), slice(0, 5)), (12, 10, 10)),
        ],
        ids=["store64", "uneven"],
    )
    def test_coarse_window_is_chunk_aligned(self, request, store, window, shape):
        path, _ = request.getfixturevalue(store)
        arr = open_store(path)
        out = arr.read_window(window, level=1)
        assert out.shape == shape
        with pytest.raises(InvalidArgumentError):
            arr.read_window((3, slice(None), slice(None)), level=1)

    def test_budget_read_bypasses_cache(self, store64):
        path, full = store64
        arr = open_store(path)
        before = arr.cache.stats()["entries"]
        out = arr.read(budget=4096)
        assert out.shape == full.shape
        assert np.isfinite(out).all()
        assert arr.cache.stats()["entries"] == before
        # heavily budgeted output is a coarser reconstruction, not exact
        assert not np.array_equal(out, full)

    def test_generous_budget_is_exact(self, store64):
        path, full = store64
        arr = open_store(path, cache_bytes=0)
        out = arr.read(budget=1 << 30)
        assert np.array_equal(out, full)


class TestWriter:
    def test_multiframe_roundtrip(self, tmp_path):
        data = _smooth((24, 24), seed=2)
        with StoreWriter(tmp_path / "st", PweMode(1e-3), chunk_shape=16) as w:
            r0 = w.append(data)
            r1 = w.append(data * 2.0 + 1.0)
        arr = open_store(tmp_path / "st")
        assert arr.n_frames == 2
        assert np.array_equal(arr.read(frame=0), decompress(r0.payload))
        assert np.array_equal(arr.read(frame=1), decompress(r1.payload))

    def test_empty_store_refuses_close(self, tmp_path):
        w = StoreWriter(tmp_path / "st", PweMode(1e-3))
        with pytest.raises(InvalidArgumentError):
            w.close()

    def test_refuses_overwrite(self, tmp_path):
        write_store(tmp_path / "st", _smooth((10, 10)), PweMode(1e-3))
        with pytest.raises(InvalidArgumentError):
            StoreWriter(tmp_path / "st", PweMode(1e-3))

    def test_frame_shape_mismatch(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            with StoreWriter(tmp_path / "st", PweMode(1e-3)) as w:
                w.append(_smooth((10, 10)))
                w.append(_smooth((12, 12)))
        # failed build never published an index
        assert not (tmp_path / "st" / INDEX_NAME).exists()

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(StreamFormatError):
            open_store(tmp_path / "nope")


class TestStoreCli:
    @pytest.fixture()
    def npys(self, tmp_path):
        f0 = tmp_path / "f0.npy"
        f1 = tmp_path / "f1.npy"
        np.save(f0, _smooth((24, 24, 24), seed=4))
        np.save(f1, _smooth((24, 24, 24), seed=5))
        return tmp_path, f0, f1

    def test_build_info_get(self, npys, capsys):
        tmp_path, f0, f1 = npys
        store = tmp_path / "st"
        out = tmp_path / "roi.npy"
        assert main(
            ["store", "build", str(f0), str(f1), str(store),
             "--pwe", "1e-3", "--chunk", "16"]
        ) == 0
        assert main(["store", "info", str(store)]) == 0
        text = capsys.readouterr().out
        assert "frames:    2" in text
        assert main(
            ["store", "get", str(store), str(out),
             "--window", "4:20,0:16,:", "--frame", "1"]
        ) == 0
        got = np.load(out)
        assert got.shape == (16, 16, 24)
        ref = open_store(store).read(frame=1)
        assert np.array_equal(got, np.asarray(ref)[4:20, 0:16, :])

    def test_get_window_matches_decode(self, npys):
        tmp_path, f0, _ = npys
        store = tmp_path / "st1"
        out = tmp_path / "w.npy"
        main(["store", "build", str(f0), str(store), "--pwe", "1e-3",
              "--chunk", "16"])
        assert main(
            ["store", "get", str(store), str(out), "--window", "3:19,5,:"]
        ) == 0
        arr = open_store(store)
        assert np.array_equal(np.load(out), np.asarray(arr.read())[3:19, 5, :])

    def test_bad_window_spec(self, npys):
        tmp_path, f0, _ = npys
        store = tmp_path / "st2"
        main(["store", "build", str(f0), str(store), "--pwe", "1e-3"])
        out = str(tmp_path / "x.npy")
        assert main(
            ["store", "get", str(store), out, "--window", "1:2:3"]
        ) == EXIT_BAD_ARGS
        assert main(
            ["store", "get", str(store), out, "--window", "abc"]
        ) == EXIT_BAD_ARGS
        assert main(
            ["store", "get", str(store), out, "--fill-value", "0"]
        ) == EXIT_BAD_ARGS

    def test_corrupt_index_exit_code(self, npys):
        tmp_path, f0, _ = npys
        store = tmp_path / "st3"
        main(["store", "build", str(f0), str(store), "--pwe", "1e-3"])
        index = store / INDEX_NAME
        raw = bytearray(index.read_bytes())
        raw[20] ^= 0xFF
        index.write_bytes(bytes(raw))
        assert main(["store", "info", str(store)]) == EXIT_CORRUPT
