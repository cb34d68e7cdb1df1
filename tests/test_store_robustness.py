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

    def test_unmasked_store_index_is_v1(self, tmp_path, masked_frame):
        # Finite inputs keep the legacy index magic byte-for-byte so
        # golden stores stay stable.
        finite = np.nan_to_num(masked_frame, posinf=1.0, neginf=-1.0)
        write_store(tmp_path / "s", finite, PweMode(TOL))
        payload = (tmp_path / "s" / INDEX_NAME).read_bytes()
        assert payload.startswith(b"SPRRIDX1")
        info = open_store(tmp_path / "s").info()
        assert info["masked_frames"] == []


class TestIndexChunkTable:
    def test_repeated_chunk_in_index_rejected(self, tmp_path):
        import dataclasses

        from repro.store import pack_index

        x = np.linspace(0.0, 1.0, 64)
        write_store(tmp_path / "s", x, PweMode(TOL), chunk_shape=32)
        index = parse_index((tmp_path / "s" / INDEX_NAME).read_bytes())
        assert len(index.chunks) == 2
        forged = dataclasses.replace(index, chunks=[index.chunks[0]] * 2)
        payload = pack_index(forged)  # CRC-valid: the index CRC is recomputed
        with pytest.raises(ReproError, match="chunk table"):
            parse_index(payload)
        (tmp_path / "s" / INDEX_NAME).write_bytes(payload)
        with pytest.raises(ReproError, match="chunk table"):
            open_store(tmp_path / "s")
