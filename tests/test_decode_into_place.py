"""Decode into place: one decode step for every read path.

:func:`repro.core.container.decode_window` writes every cache hit,
decoded box and salvage fill at the slices
:meth:`~repro.core.chunking.ChunkGrid.placements` gives, in-process
straight into the window and pooled into a shared covering region.
Pinned here:

* ``read_window`` returns the same bytes, the same ``DecodeReport`` and
  leaves the same cache keys and cached bytes for ``workers`` None, 1,
  2 and 3, with the cache on and off, over level 0 and 1, an integer
  index, a masked float32 frame, ``budget=`` and salvage of one
  CRC-failed and one garbage chunk.
* Every box the store caches owns its memory (``base is None``), for
  each store codec tag, at level 0 and 1, in-process and pooled: a view
  would keep a larger base alive outside the cache's byte budget.
* No copy the cache cannot use: an szx box of whole blocks is the
  lane's own array (padded and coarse boxes are copied), and a pooled
  read through a cache that holds nothing copies no box out.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np
import pytest

from repro.compressors.szxlike import codec as szx_codec
from repro.core.adaptive import CODEC_SPERR, CODEC_STORED, CODEC_SZX
from repro.core.container import DecodeResult, decode_tagged_chunk, decode_window
from repro.core.modes import PweMode
from repro.errors import InvalidArgumentError
from repro.store import StoreWriter, open_store, pack_index, reader, shard_name
from repro.store.format import INDEX_NAME

WORKERS = [None, 1, 2, 3]
CRC_BAD, GARBAGE = 1, 4


class _Recorder:
    """A decoded-chunk cache that keeps every entry (``read_window``'s
    ``cache=`` override)."""

    def __init__(self):
        self.entries = {}

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, arr):
        self.entries[key] = arr
        return True


def _smooth(shape, seed):
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    data = np.sin(2 * axes[0]) * np.cos(1.5 * axes[1]) + np.cos(axes[2])
    return (data + 0.05 * rng.standard_normal(shape)).astype(np.float32)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A three-frame float32 store, 40x36x20 at chunk 16 (six chunks of
    four shapes): frame 0 finite, frame 1 with NaN/Inf samples, frame 2
    with chunk ``CRC_BAD`` bit-flipped in its shard and chunk ``GARBAGE``
    overwritten with random bytes under a matching CRC."""
    path = tmp_path_factory.mktemp("into_place") / "st"
    masked = _smooth((40, 36, 20), 2)
    masked[3:9, 4, :] = np.nan
    masked[30, 20:30, 5] = np.inf
    masked[12, 0, 0] = -np.inf
    with StoreWriter(path, PweMode(1e-3), chunk_shape=16) as writer:
        for frame in (_smooth((40, 36, 20), 1), masked, _smooth((40, 36, 20), 3)):
            writer.append(frame)
    index = open_store(path).index
    entries = list(index.entries[2])
    for bad in (CRC_BAD, GARBAGE):
        entry = entries[bad]
        shard = path / shard_name(entry.shard)
        raw = bytearray(shard.read_bytes())
        if bad == CRC_BAD:
            raw[entry.offset + 3] ^= 0xFF
        else:
            junk = np.random.default_rng(5).bytes(entry.length)
            raw[entry.offset : entry.offset + entry.length] = junk
            entries[bad] = dataclasses.replace(entry, crc32=zlib.crc32(junk))
        shard.write_bytes(bytes(raw))
    forged = dataclasses.replace(
        index, entries=index.entries[:2] + (tuple(entries),)
    )
    (path / INDEX_NAME).write_bytes(pack_index(forged))
    return path


CASES = {
    "full": {},
    "window": {"window": (slice(3, 37), slice(5, 30), slice(2, 19))},
    "level1": {"level": 1},
    "level1-window": {"window": (slice(20, 40), slice(0, 10)), "level": 1},
    "int-index": {"window": (7, slice(None), slice(3, 18))},
    "masked-f32": {"window": (slice(0, 30), slice(10, 36)), "frame": 1},
    "budget": {"window": (slice(0, 30), slice(10, 36)), "budget": 2000},
    "salvage": {"frame": 2, "on_error": "salvage", "fill_value": -7.5},
    "salvage-window": {
        "window": (slice(10, 40), slice(0, 20)),
        "frame": 2,
        "on_error": "salvage",
    },
}


def _outcome(result):
    """Bytes, dtype, shape and report of one read."""
    report = None
    if isinstance(result, DecodeResult):
        result, report = result.data, result.report
    return result.dtype, result.shape, result.tobytes(), report


@pytest.mark.parametrize("case", list(CASES))
def test_every_path_reads_the_same(store, case):
    kwargs = CASES[case]
    seen = {}
    for workers in WORKERS:
        for cached in (True, False):
            # the store's own cache is off; ``cache=`` turns a recorder on
            arr = open_store(store, cache_bytes=0)
            recorder = _Recorder() if cached else None
            # cold read, then a read served from the cache where it is on
            outs = [
                _outcome(arr.read_window(workers=workers, cache=recorder, **kwargs))
                for _ in range(2)
            ]
            assert outs[0] == outs[1]
            cache = None
            if cached:
                cache = {key: a.tobytes() for key, a in recorder.entries.items()}
            seen[(workers, cached)] = (outs[0], cache)
    first, first_cache = seen[(None, True)]
    for (workers, cached), (out, cache) in seen.items():
        assert out == first, (workers, cached)
        if cached:
            assert cache == first_cache, workers
    if case.startswith("salvage"):
        report = first[3]
        assert report.failed_chunks == [CRC_BAD, GARBAGE]
        assert report.crc_mismatches == [CRC_BAD]
        assert not report.notes
        assert sorted(key[1] for key in first_cache) == [
            i for i in open_store(store).chunks_for_window(kwargs.get("window"))
            if i not in (CRC_BAD, GARBAGE)
        ]
    if case == "budget":
        assert first_cache == {}


def test_wrong_box_shape_rejected(store):
    class Bogus(_Recorder):
        def get(self, key):
            return np.zeros((2, 2, 2))

    with pytest.raises(InvalidArgumentError, match="box shape"):
        open_store(store).read_window(cache=Bogus())


@pytest.fixture(scope="module")
def three_tag_store(tmp_path_factory):
    """A 48x16x16 adaptive store at chunk 16: a ramp (szx), bound-relative
    noise (sperr) and noise far wider than the bound (stored)."""
    rng = np.random.default_rng(3)
    data = np.empty((48, 16, 16))
    ramp = np.linspace(0, 1, 16)
    data[:16] = ramp[None, :, None] + ramp[None, None, :]
    data[16:32] = 50 * rng.standard_normal((16, 16, 16))
    data[32:] = 1e12 * rng.standard_normal((16, 16, 16))
    path = tmp_path_factory.mktemp("three_tags") / "st"
    with StoreWriter(path, PweMode(1e-3), chunk_shape=16, codec="adaptive") as writer:
        writer.append(data)
    assert open_store(path).index.frame_codecs == (
        (CODEC_SZX, CODEC_SPERR, CODEC_STORED),
    )
    return path


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("workers", [None, 2])
def test_cached_boxes_own_their_memory(three_tag_store, workers, level):
    arr = open_store(three_tag_store)
    arr.read_window(None, level=level, workers=workers)
    keys = [(0, i, level) for i in range(arr.n_chunks)]
    boxes = [arr.cache.get(key) for key in keys]
    assert all(box is not None and box.base is None for box in boxes)
    assert arr.cache.nbytes == sum(box.nbytes for box in boxes)


@pytest.mark.parametrize(
    "shape, level, copied",
    [
        # 128 whole blocks of 256 samples
        pytest.param((32, 32, 32), 0, False, id="whole-blocks"),
        pytest.param((30, 26, 20), 0, True, id="padded"),
        pytest.param((32, 32, 32), 1, True, id="coarse"),
    ],
)
def test_szx_boxes_are_copied_only_to_drop_a_larger_base(
    monkeypatch, shape, level, copied
):
    data = _smooth(shape, 4).astype(np.float64)
    stream = szx_codec.encode_chunk(data, 1e-3)
    original, lanes = szx_codec.decode_lane, []

    def spy(*args):
        lanes.append(original(*args))
        return lanes[-1]

    monkeypatch.setattr(szx_codec, "decode_lane", spy)
    box = decode_tagged_chunk(stream, CODEC_SZX, 3, shape, level=level)
    (lane,) = lanes
    assert np.shares_memory(box, lane) != copied
    assert box.base is None
    step = 1 << level
    assert np.array_equal(box, lane[::step, ::step, ::step])
    assert np.max(np.abs(box - data[::step, ::step, ::step])) <= 1e-3


@pytest.mark.parametrize("cache_bytes, copies", [(0, 0), (1 << 20, 6)])
def test_pooled_read_copies_boxes_only_for_a_live_cache(
    store, monkeypatch, cache_bytes, copies
):
    calls = []

    def spy(*args, **kwargs):
        result = decode_window(*args, **kwargs)
        calls.append(len(result[3]))
        return result

    monkeypatch.setattr(reader, "decode_window", spy)
    arr = open_store(store, cache_bytes=cache_bytes)
    arr.read_window(workers=2)
    assert calls == [copies]
    assert len(arr.cache) == copies
