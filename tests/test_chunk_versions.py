"""Chunk header versions: writers stamp version 2, version 1 stays readable.

Version 2 streams hold the dyadic wavelet layout, version 1 streams the
tensor-product layout (see :mod:`repro.wavelets.dwt`).  The version-1
oracle is the set of files written before the layout changed:

* ``tests/data/encode_<case>.sperr`` for every case of
  ``tests/test_encode_golden.py`` (decode digests in
  ``decode_digests.json``);
* for the two three-level cases (``cube32``: one 32³ chunk; ``slab``:
  one (32, 32, 16) chunk), the decoded array (``encode_<case>.npy``), a
  one-frame store written from the same input (``store_v1_<case>/``)
  and ``deep_v1_digests.json``: the sha256 of
  ``decompress_multires`` at levels 1-3 and of the decode after
  ``progressive.truncate(payload, 0.5)``.

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
from repro.errors import StreamFormatError
from repro.store import open_store, write_store

DATA = Path(__file__).parent / "data"
DEEP = ("cube32", "slab")

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

    @pytest.mark.parametrize("executor", ["serial", "thread", "batch"])
    def test_compress_writes_version_2(self, rng, executor):
        x = np.cumsum(rng.standard_normal((24, 24, 24)), axis=1)
        payload = repro.compress(
            x, repro.PweMode(0.05), chunk_shape=12, executor=executor
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
