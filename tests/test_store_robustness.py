"""Store durability and masked-frame robustness.

The index write must survive a crash at any point (fsync + atomic
rename: either the old index or the new one, never a torn file), and
masked frames must restore their NaN/Inf pattern through windowed
reads, ``info()``, and the index roundtrip.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import decompress
from repro.core.modes import PweMode
from repro.errors import ReproError
from repro.store import (
    INDEX_NAME,
    StoreWriter,
    open_store,
    parse_index,
    write_store,
)

TOL = 1e-3


@pytest.fixture()
def masked_frame():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(24, 24)).cumsum(axis=0)
    data[:6, :6] = np.nan
    data[0, -1] = np.inf
    data[-1, 0] = -np.inf
    return data


class TestDurability:
    def test_close_fsyncs_index_and_shards(self, tmp_path, masked_frame, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        # At least shard + tmp index + directory were flushed to disk.
        assert len(synced) >= 3

    def test_no_tmp_file_left_behind(self, tmp_path, masked_frame):
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        leftovers = [p.name for p in (tmp_path / "s").iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_crash_before_replace_leaves_no_index(self, tmp_path, masked_frame, monkeypatch):
        # Simulate a crash between the tmp write and the atomic rename:
        # os.replace never runs, so the store has no index at all —
        # a clearly absent store, not a torn one.
        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        assert not (tmp_path / "s" / INDEX_NAME).exists()

    @pytest.mark.parametrize("cut_fraction", [0.25, 0.5, 0.9])
    def test_torn_index_is_rejected(self, tmp_path, masked_frame, cut_fraction):
        # A torn write (power loss mid-write without the fsync+rename
        # protocol) must surface as a structured error, never a crash
        # or a silently wrong store.
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        index_path = tmp_path / "s" / INDEX_NAME
        payload = index_path.read_bytes()
        torn = payload[: int(len(payload) * cut_fraction)]
        with pytest.raises(ReproError):
            parse_index(torn)
        index_path.write_bytes(torn)
        with pytest.raises(ReproError):
            open_store(tmp_path / "s")

    def test_index_bitflip_is_rejected(self, tmp_path, masked_frame):
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        index_path = tmp_path / "s" / INDEX_NAME
        buf = bytearray(index_path.read_bytes())
        buf[len(buf) // 2] ^= 0xFF
        with pytest.raises(ReproError):
            parse_index(bytes(buf))


class TestMaskedFrames:
    def test_index_carries_frame_masks(self, tmp_path, masked_frame):
        finite = np.nan_to_num(masked_frame, posinf=1.0, neginf=-1.0)
        with StoreWriter(tmp_path / "s", PweMode(TOL)) as writer:
            writer.append(masked_frame)
            writer.append(finite)
        index = parse_index((tmp_path / "s" / INDEX_NAME).read_bytes())
        assert len(index.frame_masks) == 2
        assert index.frame_masks[0] is not None
        assert index.frame_masks[1] is None

    def test_full_read_restores_mask(self, tmp_path, masked_frame):
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        arr = open_store(tmp_path / "s")
        out = arr.read_window()
        assert np.array_equal(np.isnan(out), np.isnan(masked_frame))
        assert np.array_equal(np.isposinf(out), np.isposinf(masked_frame))
        assert np.array_equal(np.isneginf(out), np.isneginf(masked_frame))
        valid = np.isfinite(masked_frame)
        err = np.abs(out[valid] - masked_frame[valid]).max()
        assert err <= TOL * (1 + 1e-9)

    def test_window_read_slices_mask(self, tmp_path, masked_frame):
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        arr = open_store(tmp_path / "s")
        window = (slice(2, 10), slice(0, 8))
        out = arr.read_window(window)
        assert np.array_equal(np.isnan(out), np.isnan(masked_frame[window]))

    def test_mask_codes_memo_holds_one_frame(self, tmp_path, masked_frame):
        frames = [masked_frame, masked_frame[::-1].copy(), masked_frame.T.copy()]
        with StoreWriter(tmp_path / "s", PweMode(TOL)) as writer:
            full = [decompress(writer.append(f).payload) for f in frames]
        arr = open_store(tmp_path / "s")
        window = (slice(0, 12), slice(3, 20))
        for frame in (0, 1, 2, 0):
            out = arr.read_window(window, frame=frame)
            assert np.array_equal(out, full[frame][window], equal_nan=True)
            # Shape-size code arrays held by the store, one level deep.
            held = []
            for value in vars(arr).values():
                if isinstance(value, dict):
                    value = list(value.values())
                for item in value if isinstance(value, (tuple, list)) else [value]:
                    if isinstance(item, np.ndarray) and item.shape == arr.shape:
                        held.append(item)
            assert len(held) <= 1

    def test_coarse_preview_stays_finite(self, tmp_path, masked_frame):
        # Coarse levels aggregate valid and masked fine samples; there
        # is no faithful mask at that resolution, so previews read the
        # filled field instead of leaking NaNs.
        write_store(tmp_path / "s", masked_frame, PweMode(TOL), chunk_shape=8)
        arr = open_store(tmp_path / "s")
        out = arr.read_window(level=1)
        assert np.isfinite(out).all()

    def test_info_reports_masked_frames(self, tmp_path, masked_frame):
        write_store(tmp_path / "s", masked_frame, PweMode(TOL))
        info = open_store(tmp_path / "s").info()
        assert info["masked_frames"] == [0]
        assert info["mask_summary"][0]["nan"] == 36
        assert info["mask_summary"][0]["pos_inf"] == 1
        assert info["mask_summary"][0]["neg_inf"] == 1
        assert info["mask_bytes"] > 0

    @pytest.mark.parametrize("codec", ["quality", "fast", "adaptive"])
    def test_every_store_index_is_v3(self, tmp_path, masked_frame, codec):
        # One index layout whatever the content: finite or masked frames,
        # all-sperr or szx-routed chunks.
        finite = np.nan_to_num(masked_frame, posinf=1.0, neginf=-1.0)
        for name, frame in (("finite", finite), ("masked", masked_frame)):
            path = tmp_path / name
            write_store(path, frame, PweMode(TOL), codec=codec)
            assert (path / INDEX_NAME).read_bytes()[:8] == b"SPRRIDX3"
            info = open_store(path).info()
            assert (info["masked_frames"] == []) == (name == "finite")
            assert sum(info["codec_counts"].values()) == info["n_chunks"]


def _forge_chunk_table(payload: bytes, rank: int, rows) -> bytes:
    """Rewrite an index's chunk table with ``rows`` of per-axis bounds and
    recompute the index CRC, so only the tiling check can reject it."""
    import struct
    import zlib

    pos = 24 + 8 * rank  # magic, meta, CRC, wavelet/levels, shape, n_chunks
    assert struct.unpack_from("<I", payload, pos - 4) == (len(rows),)
    table = b"".join(struct.pack("<QQ", a, b) for row in rows for a, b in row)
    bad = bytearray(payload)
    bad[pos : pos + len(table)] = table
    bad[12:16] = b"\x00" * 4
    struct.pack_into("<I", bad, 12, zlib.crc32(bytes(bad)))
    return bytes(bad)


class TestIndexChunkTable:
    def test_repeated_chunk_in_index_rejected(self, tmp_path):
        x = np.linspace(0.0, 1.0, 64)
        write_store(tmp_path / "s", x, PweMode(TOL), chunk_shape=32)
        index = parse_index((tmp_path / "s" / INDEX_NAME).read_bytes())
        assert len(index.chunks) == 2
        payload = _forge_chunk_table(
            (tmp_path / "s" / INDEX_NAME).read_bytes(), 1, [index.chunks[0].bounds] * 2
        )
        with pytest.raises(ReproError, match="chunk table"):
            parse_index(payload)
        (tmp_path / "s" / INDEX_NAME).write_bytes(payload)
        with pytest.raises(ReproError, match="chunk table"):
            open_store(tmp_path / "s")

    # Planned 2x2 grid of a 64x64 frame at chunk 32, in table order.
    _PLANNED = [
        ((0, 32), (0, 32)),
        ((0, 32), (32, 64)),
        ((32, 64), (0, 32)),
        ((32, 64), (32, 64)),
    ]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (  # gap: axis 0 skips row 32
                _PLANNED[:2] + [((33, 64), (0, 32)), ((33, 64), (32, 64))],
                r"does not tile axis 0: run \(33, 64\) after offset 32",
            ),
            (  # overlap: the first axis-0 run reaches into the second
                [((0, 40), (0, 32)), ((0, 40), (32, 64))] + _PLANNED[2:],
                r"does not tile axis 0: run \(32, 64\) after offset 40",
            ),
            (  # repeated cell: every axis tiles, one cell twice, one empty
                _PLANNED[:3] + [_PLANNED[0]],
                "repeats chunk",
            ),
        ],
        ids=["gap", "overlap", "repeated-cell"],
    )
    def test_open_store_rejects_non_tiling_table(self, tmp_path, rows, message):
        from repro.errors import StreamFormatError

        x = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        write_store(tmp_path / "s", x, PweMode(TOL), chunk_shape=32)
        path = tmp_path / "s" / INDEX_NAME
        assert [c.bounds for c in parse_index(path.read_bytes()).chunks] == (
            self._PLANNED
        )
        path.write_bytes(_forge_chunk_table(path.read_bytes(), 2, rows))
        with pytest.raises(StreamFormatError, match=message):
            open_store(tmp_path / "s")


class TestIndexCodecTags:
    def test_baseline_tag_rejected_by_pack_and_parse(self, tmp_path):
        """Store tags are the ones the ``codec=`` policies route to; a
        baseline tag (3, sz-like) is refused on both sides of the index."""
        import dataclasses
        import struct
        import zlib

        from repro.errors import InvalidArgumentError, StreamFormatError
        from repro.store import pack_index

        x = np.linspace(0.0, 1.0, 64)
        write_store(tmp_path / "s", x, PweMode(TOL), chunk_shape=32)
        payload = (tmp_path / "s" / INDEX_NAME).read_bytes()
        index = parse_index(payload)
        forged = dataclasses.replace(index, frame_codecs=((0, 3),))
        with pytest.raises(InvalidArgumentError, match="unknown codec tag"):
            pack_index(forged)
        # Finite one-frame index: the two tag bytes precede the 12-byte
        # mask row.  Re-tag one and fix the index CRC.
        bad = bytearray(payload)
        assert bad[-14:-12] == b"\x00\x00"
        bad[-13] = 3
        bad[12:16] = b"\x00" * 4
        struct.pack_into("<I", bad, 12, zlib.crc32(bytes(bad)))
        with pytest.raises(StreamFormatError, match="unknown codec tag"):
            parse_index(bytes(bad))
