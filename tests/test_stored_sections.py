"""Sperr chunk sections are written ``stored``; older framings still read.

Every writer of sperr chunk sections frames them with the ``stored``
lossless tag (0): ``repro.compress`` in-process and on a process pool,
:class:`~repro.compressors.SperrCompressor`, ``StoreWriter.append``,
``progressive.truncate`` and the service's compress op.  Sections
written while the ``auto`` pass ran carry Huffman (2) or LZ77 (4) tags;
the committed fixtures below hold such sections and must decode to the
digests pinned when they were written, alone and in a store that also
holds a frame of the current writer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import lossless
from repro.compressors import SperrCompressor
from repro.core import PweMode, parse_container
from repro.core.adaptive import CODEC_SPERR
from repro.core.progressive import truncate
from repro.service import ServiceClient, serve_in_thread
from repro.store import StoreWriter, open_store
from repro.store.format import INDEX_NAME, pack_index, parse_index, shard_name
from test_encode_golden import CASES, GOLDEN, _smooth, expected_payload

DATA = Path(__file__).parent / "data"
TAG_STORED, TAG_HUFFMAN, TAG_LZ77 = 0, 2, 4

#: Version-1 fixtures whose sperr sections took the ``auto`` pass.
LEGACY_CODED = ("cube32", "masked_f32", "ragged1d")


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _sperr_tags(payload: bytes) -> list[int]:
    p = parse_container(payload)
    return [s[0] for s, tag in zip(p.streams, p.codec_tags) if tag == CODEC_SPERR]


@pytest.fixture(scope="module")
def field() -> tuple[np.ndarray, PweMode]:
    """Two 32³ random-walk chunks whose sections ``auto`` would code."""
    return _smooth((64, 32, 32), 9), PweMode(0.5)


def _auto_would_code(payload: bytes) -> bool:
    """Whether ``auto`` would shrink every sperr section of ``payload``."""
    p = parse_container(payload)
    return all(
        lossless.compress(lossless.decompress(s))[0] != TAG_STORED
        for s, tag in zip(p.streams, p.codec_tags)
        if tag == CODEC_SPERR
    )


class TestWritersStoreSections:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "process"])
    def test_compress(self, field, workers):
        data, mode = field
        payload = repro.compress(data, mode, chunk_shape=32, workers=workers).payload
        assert _sperr_tags(payload) == [TAG_STORED] * 2
        assert _auto_would_code(payload)

    def test_sperr_compressor(self, field):
        data, mode = field
        payload = SperrCompressor(chunk_shape=32).compress(data, mode)
        assert _sperr_tags(payload) == [TAG_STORED] * 2

    def test_store_writer_append(self, field, tmp_path):
        data, mode = field
        with StoreWriter(tmp_path / "s", mode, chunk_shape=32) as writer:
            writer.append(data)
            writer.append(data[::-1].copy())
        index = parse_index((tmp_path / "s" / INDEX_NAME).read_bytes())
        tags = [
            (tmp_path / "s" / shard_name(e.shard)).read_bytes()[e.offset]
            for frame in index.entries
            for e in frame
        ]
        assert tags == [TAG_STORED] * 4

    @pytest.mark.parametrize(
        "source", ["v2/encode_cube32.sperr", "encode_ragged1d.sperr"]
    )
    def test_truncate(self, source):
        payload = (DATA / source).read_bytes()
        assert set(_sperr_tags(payload)) & {TAG_HUFFMAN, TAG_LZ77}
        cut = truncate(payload, 0.5)
        assert set(_sperr_tags(cut)) == {TAG_STORED}

    def test_service_compress(self, field):
        data, mode = field
        with serve_in_thread(None) as server:
            with ServiceClient(server.host, server.port) as client:
                payload = client.compress(data, pwe=mode.tolerance, chunk=32)
        assert _sperr_tags(payload) == [TAG_STORED] * 2
        local = repro.compress(data, mode, chunk_shape=32).payload
        assert payload == local


class TestCodedSectionsStillRead:
    @pytest.mark.parametrize("name", LEGACY_CODED)
    def test_version1_fixture_decodes_to_pinned_digest(self, name):
        payload = (DATA / f"encode_{name}.sperr").read_bytes()
        assert set(_sperr_tags(payload)) & {TAG_HUFFMAN, TAG_LZ77}
        digests = json.loads((DATA / "decode_digests.json").read_text())["sperr"]
        want = digests[f"encode_{name}.sperr"]["sha256"]
        assert _sha(repro.decompress(payload)) == want

    @pytest.mark.parametrize("name", LEGACY_CODED)
    def test_coded_golden_decodes_as_the_current_writer(self, name):
        golden = (GOLDEN / f"encode_{name}.sperr").read_bytes()
        assert set(_sperr_tags(golden)) & {TAG_HUFFMAN, TAG_LZ77}
        want = repro.decompress(expected_payload(name))
        assert repro.decompress(golden).tobytes() == want.tobytes()

    def test_store_fixture_with_a_new_frame_appended(self, tmp_path):
        """The ``store_v1_cube32`` fixture (one Huffman-coded section)
        plus a frame of the current writer, joined under one index."""
        combined = tmp_path / "combined"
        shutil.copytree(DATA / "store_v1_cube32", combined)
        make, mode, kwargs = CASES["cube32"]
        with StoreWriter(tmp_path / "new", mode, **kwargs) as writer:
            writer.append(make())
        old = parse_index((combined / INDEX_NAME).read_bytes())
        new = parse_index((tmp_path / "new" / INDEX_NAME).read_bytes())
        assert [c.bounds for c in new.chunks] == [c.bounds for c in old.chunks]
        assert new.levels == old.levels
        for shard in range(new.n_shards):
            shutil.copyfile(
                tmp_path / "new" / shard_name(shard),
                combined / shard_name(old.n_shards + shard),
            )
        moved = tuple(
            tuple(dataclasses.replace(e, shard=e.shard + old.n_shards) for e in frame)
            for frame in new.entries
        )
        joined = dataclasses.replace(
            old,
            n_shards=old.n_shards + new.n_shards,
            entries=old.entries + moved,
            frame_masks=old.frame_masks + new.frame_masks,
            frame_codecs=old.frame_codecs + new.frame_codecs,
        )
        (combined / INDEX_NAME).write_bytes(pack_index(joined))

        arr = open_store(combined)
        assert arr.n_frames == 2
        first_tags = [
            (combined / shard_name(f[0].shard)).read_bytes()[f[0].offset]
            for f in joined.entries
        ]
        assert first_tags == [TAG_HUFFMAN, TAG_STORED]

        old_want = np.load(DATA / "encode_cube32.npy")
        new_want = repro.decompress((GOLDEN / "encode_cube32.sperr").read_bytes())
        window = (slice(3, 29), slice(0, 17), slice(5, 16))
        for frame, want in ((0, old_want), (1, new_want)):
            assert arr.read(frame).tobytes() == want.tobytes()
            got = arr.read_window(window, frame=frame)
            assert got.tobytes() == np.ascontiguousarray(want[window]).tobytes()
