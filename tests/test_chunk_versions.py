"""Format versions: every writer emits one layout, older ones stay readable.

Chunk headers: writers stamp version 2 (dyadic wavelet layout); version
1 streams hold the tensor-product layout (see :mod:`repro.wavelets.dwt`).
The version-1 oracle is the set of files written before the layout
changed:

* ``tests/data/encode_<case>.sperr`` for every case of
  ``tests/test_encode_golden.py`` (decode digests in
  ``decode_digests.json``);
* for the two three-level cases (``cube32``: one 32³ chunk; ``slab``:
  one (32, 32, 16) chunk), the decoded array (``encode_<case>.npy``), a
  one-frame store written from the same input (``store_v1_<case>/``)
  and ``deep_v1_digests.json``: the sha256 of
  ``decompress_multires`` at levels 1-3 and of the decode after
  ``progressive.truncate(payload, 0.5)``.

Containers: every write is ``SPRRPY4``.  The read-only versions are
pinned by fixtures written before their writers went:
``tests/data/container_v1.sperr`` (``SPRRPY1``, see
``tests/test_robustness.py``), and ``tests/data/encode_<case>.sperr``,
which are ``SPRRPY2`` — or ``SPRRPY3`` for ``masked_f32`` — and decode
to ``decode_digests.json``.

Store indexes: every write is ``SPRRIDX3``.  ``store_v1_<case>/`` are
``SPRRIDX1``; ``store_v2_masked/`` is a one-frame float32 store with
NaN/±Inf samples (``SPRRIDX2``) and its decoded array
``store_v2_masked.npy``.

Explicit wavelet depth: writers always take the full dyadic depth
(``LEVELS_AUTO`` in chunk headers and store indexes).  Payloads written
while ``levels=`` was a write option carry an explicit depth, pinned by
``levels1.sperr`` (one (32, 24, 20) chunk written with ``levels=1``,
decoded array ``levels1.npy``) and ``store_levels1/`` (a one-frame
float32 (40, 32, 12) store in (20, 16, 12) chunks written with
``StoreWriter(..., levels=1)``, decoded array ``store_levels1.npy``);
``levels1_digests.json`` holds the sha256 of their level-1 decodes.

Every entry point must decode those bytes exactly as they decoded when
they were written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import lossless
from repro.bitstream import HEADER_SIZE, VERSION, ChunkHeader
from repro.core import parse_container
from repro.core.progressive import (
    decompress_multires,
    truncate,
    truncate_chunk_stream,
)
from repro.bitstream.header import ChunkParams
from repro.compressors import SperrCompressor
from repro.errors import InvalidArgumentError, StreamFormatError
from repro.store import StoreWriter, open_store, write_store
from repro.store.format import INDEX_NAME

DATA = Path(__file__).parent / "data"
DEEP = ("cube32", "slab")

#: ``workers`` settings by the execution they select.
WORKERS = [pytest.param(None, id="serial"), pytest.param(2, id="process")]

#: Windows read from the stores: interior boxes, an integer index and a
#: window touching the chunk's last samples.
WINDOWS = [
    (slice(3, 29), slice(0, 17), slice(5, 16)),
    (7, slice(None), slice(2, 14)),
    (slice(30, 32), slice(31, 32)),
]


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _versions(payload: bytes) -> list[int]:
    """Chunk header version of every SPERR chunk in a container."""
    return [
        lossless.decompress(s)[2] for s in parse_container(payload).streams
    ]


def _masked(shape: tuple[int, ...], rng) -> np.ndarray:
    x = np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)
    flat = x.reshape(-1)
    flat[::29] = np.nan
    flat[3::53] = np.inf
    flat[7::61] = -np.inf
    return x


@pytest.fixture(scope="module")
def digests() -> dict:
    return json.loads((DATA / "deep_v1_digests.json").read_text())


@pytest.mark.parametrize("name", DEEP)
class TestDeepVersion1Fixtures:
    def test_fixture_is_version_1(self, name):
        payload = (DATA / f"encode_{name}.sperr").read_bytes()
        assert _versions(payload) == [1]

    def test_decode_matches_recorded_array(self, name):
        payload = (DATA / f"encode_{name}.sperr").read_bytes()
        want = np.load(DATA / f"encode_{name}.npy")
        assert repro.decompress(payload).tobytes() == want.tobytes()

    def test_store_reads_match(self, name):
        want = np.load(DATA / f"encode_{name}.npy")
        arr = open_store(DATA / f"store_v1_{name}")
        assert arr.read().tobytes() == want.tobytes()
        for window in WINDOWS:
            got = arr.read_window(window)
            assert got.tobytes() == np.ascontiguousarray(want[window]).tobytes()

    def test_multires_levels_match(self, name, digests):
        payload = (DATA / f"encode_{name}.sperr").read_bytes()
        arr = open_store(DATA / f"store_v1_{name}")
        for level, want in digests[f"encode_{name}.sperr"]["multires"].items():
            coarse = decompress_multires(payload, int(level))
            assert list(coarse.shape) == want["shape"]
            assert _sha(coarse) == want["sha256"]
            assert arr.read(level=int(level)).tobytes() == coarse.tobytes()

    def test_truncation_keeps_version_1(self, name, digests):
        payload = (DATA / f"encode_{name}.sperr").read_bytes()
        cut = truncate(payload, 0.5)
        assert _versions(cut) == [1]
        want = digests[f"encode_{name}.sperr"]["truncate_0.5"]
        assert _sha(repro.decompress(cut)) == want["sha256"]


def test_truncate_chunk_stream_keeps_the_version_it_read(rng):
    x = np.cumsum(rng.standard_normal((16, 16, 16)), axis=0)
    v2 = lossless.decompress(
        parse_container(repro.compress(x, repro.PweMode(0.1)).payload).streams[0]
    )
    v1 = lossless.decompress(
        parse_container((DATA / "encode_cube32.sperr").read_bytes()).streams[0]
    )
    for raw, version in ((v1, 1), (v2, VERSION)):
        cut = truncate_chunk_stream(raw, 0.3)
        header = ChunkHeader.unpack(cut)
        assert header.version == version
        assert cut[HEADER_SIZE:] != raw[HEADER_SIZE:]


class TestWriters:
    def test_current_version_is_2(self):
        assert VERSION == 2
        assert ChunkHeader(shape=(1, 1, 1), speck_nbytes=0).pack()[2] == 2

    @pytest.mark.parametrize("workers", WORKERS)
    def test_compress_writes_version_2(self, rng, workers):
        x = np.cumsum(rng.standard_normal((24, 24, 24)), axis=1)
        payload = repro.compress(
            x, repro.PweMode(0.05), chunk_shape=12, workers=workers
        ).payload
        assert set(_versions(payload)) == {VERSION}

    def test_store_writes_version_2(self, rng, tmp_path):
        x = np.cumsum(rng.standard_normal((16, 16, 16)), axis=2)
        res = write_store(tmp_path / "s", x, repro.PweMode(0.05), chunk_shape=8)
        assert set(_versions(res.payload)) == {VERSION}

    @pytest.mark.parametrize("version", [0, 3, 255])
    def test_unknown_versions_rejected(self, version):
        h = bytearray(ChunkHeader(shape=(1, 1, 1), speck_nbytes=0).pack())
        h[2] = version
        with pytest.raises(StreamFormatError, match="version"):
            ChunkHeader.unpack(bytes(h))

    def test_version_1_header_round_trips(self):
        h = ChunkHeader(shape=(4, 4, 1), speck_nbytes=3, version=1)
        assert ChunkHeader.unpack(h.pack()) == h


class TestOneLayoutPerArtifact:
    """``repro.compress`` picks no layout from its input or policy (the
    store index counterpart is ``tests/test_store_robustness.py``)."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("codec", ["quality", "fast", "adaptive", "sz-like"])
    @pytest.mark.parametrize("workers", WORKERS)
    def test_compress_writes_v4(self, rng, workers, codec, masked):
        x = _masked((16, 12, 10), rng)
        if not masked:
            x = np.nan_to_num(x, nan=0.0, posinf=1.0, neginf=-1.0)
        payload = repro.compress(
            x, repro.PweMode(0.05), chunk_shape=8, workers=workers, codec=codec
        ).payload
        assert payload[:8] == b"SPRRPY4\x00"
        assert (parse_container(payload).mask_blob is not None) == masked


class TestStoreIndexVersion2:
    """``store_v2_masked/``: the one ``SPRRIDX2`` fixture."""

    WINDOWS = [
        (slice(None),) * 3,
        (slice(2, 15), slice(3, 18), slice(1, 9)),
        (3, slice(None), slice(4, 12)),
        (slice(9, 13), slice(0, 6), 7),
        (slice(17, 20), slice(15, 18), slice(10, 12)),
    ]

    @pytest.fixture(scope="class")
    def want(self) -> np.ndarray:
        return np.load(DATA / "store_v2_masked.npy")

    def test_fixture_is_index_version_2(self, want):
        assert (DATA / "store_v2_masked" / INDEX_NAME).read_bytes()[:8] == b"SPRRIDX2"
        assert want.dtype == np.float32
        assert np.isnan(want).any() and np.isposinf(want).any()
        assert np.isneginf(want).any()

    def test_full_read_matches(self, want):
        arr = open_store(DATA / "store_v2_masked")
        got = arr.read()
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert arr.index.frame_codecs == ((0,) * arr.index.n_chunks,)
        assert arr.info()["masked_frames"] == [0]

    def test_window_reads_match(self, want):
        arr = open_store(DATA / "store_v2_masked", cache_bytes=0)
        for window in self.WINDOWS:
            got = arr.read_window(window)
            assert got.tobytes() == np.ascontiguousarray(want[window]).tobytes()


class TestExplicitDepthFixtures:
    """``levels1.sperr`` and ``store_levels1/``: the explicit-depth
    payloads written before ``levels=`` left the writers."""

    WINDOWS = [
        (slice(None),) * 3,
        (slice(5, 33), slice(9, 27), slice(2, 11)),
        (19, slice(None), slice(0, 12)),
        (slice(38, 40), slice(30, 32), 11),
    ]

    @pytest.fixture(scope="class")
    def level1(self) -> dict:
        return json.loads((DATA / "levels1_digests.json").read_text())

    def test_fixtures_record_depth_1(self):
        payload = (DATA / "levels1.sperr").read_bytes()
        (stream,) = parse_container(payload).streams
        raw = lossless.decompress(stream)
        assert ChunkParams.unpack(raw[HEADER_SIZE:]).levels == 1
        assert open_store(DATA / "store_levels1").index.levels == 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_container_decodes(self, workers, level1):
        payload = (DATA / "levels1.sperr").read_bytes()
        want = np.load(DATA / "levels1.npy")
        assert repro.decompress(payload, workers=workers).tobytes() == want.tobytes()
        coarse = decompress_multires(payload, 1)
        pin = level1["levels1.sperr"]["multires_1"]
        assert list(coarse.shape) == pin["shape"]
        assert _sha(coarse) == pin["sha256"]
        with pytest.raises(InvalidArgumentError):
            decompress_multires(payload, 2)

    def test_store_reads(self, level1):
        want = np.load(DATA / "store_levels1.npy")
        arr = open_store(DATA / "store_levels1", cache_bytes=0)
        assert arr.read().tobytes() == want.tobytes()
        for window in self.WINDOWS:
            got = arr.read_window(window)
            assert got.tobytes() == np.ascontiguousarray(want[window]).tobytes()
        coarse = arr.read(level=1)
        pin = level1["store_levels1"]["level_1"]
        assert list(coarse.shape) == pin["shape"]
        assert _sha(coarse) == pin["sha256"]
        with pytest.raises(InvalidArgumentError):
            arr.read(level=2)


class TestWritersTakeFullDepth:
    """``levels`` and ``lossless_method`` are not write options: every
    writer takes the full dyadic depth and the ``auto`` final pass."""

    @pytest.mark.parametrize("option", ["levels", "lossless_method"])
    def test_options_rejected(self, option, tmp_path):
        x = np.zeros((8, 8))
        value = 1 if option == "levels" else "stored"
        with pytest.raises(TypeError):
            repro.compress(x, repro.PweMode(0.1), **{option: value})
        with pytest.raises(TypeError):
            StoreWriter(tmp_path / "s", repro.PweMode(0.1), **{option: value})
        with pytest.raises(TypeError):
            SperrCompressor(**{option: value})

    def test_writes_record_auto_depth(self, rng, tmp_path):
        x = np.cumsum(rng.standard_normal((32, 16, 12)), axis=0)
        res = write_store(tmp_path / "s", x, repro.PweMode(0.05), chunk_shape=16)
        assert open_store(tmp_path / "s").index.levels is None
        for stream in parse_container(res.payload).streams:
            raw = lossless.decompress(stream)
            assert ChunkParams.unpack(raw[HEADER_SIZE:]).levels is None
