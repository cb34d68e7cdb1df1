"""Baseline codecs as chunk-table codec tags in the SPERR container.

``repro.compress(data, mode, codec=<baseline>, chunk_shape=...)`` tiles
the volume, encodes every chunk with the registry codec and frames the
chunk streams in the container, so chunking, CRCs, salvage and
worker pools are the container's own.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.scorecard import _check_cell, _tolerance
from repro.cli import main
from repro.compressors import (
    ALL_COMPRESSORS,
    MgardLikeCompressor,
    PsnrMode,
    SzLikeCompressor,
    ZfpLikeCompressor,
    psnr_target_for_idx,
)
from repro.core.adaptive import BASELINE_TAGS, CODEC_NAMES
from repro.core.container import build_container, parse_container
from repro.core.modes import PweMode, SizeMode
from repro.datasets.scenarios import SCENARIOS
from repro.errors import (
    IntegrityError,
    InvalidArgumentError,
    StreamFormatError,
    UnsupportedModeError,
)
from repro.metrics import psnr
from repro.store import StoreWriter

BASELINES = tuple(BASELINE_TAGS)

DATA = Path(__file__).parent / "data"


def _mode(name: str, data: np.ndarray, idx: int = 12):
    """PSNR for the PSNR-only tthresh-like codec, a PWE bound otherwise."""
    if name == "tthresh-like":
        return PsnrMode(60.0)
    return PweMode(float(data.max() - data.min()) / 2**idx)


def _compress(name: str, data: np.ndarray, chunk=10, **kw) -> bytes:
    return repro.compress(
        data, _mode(name, data), codec=name, chunk_shape=chunk, **kw
    ).payload


class TestChunkedCompressor:
    @pytest.mark.parametrize(
        "inner_cls", [SzLikeCompressor, ZfpLikeCompressor, MgardLikeCompressor]
    )
    def test_error_bound_preserved(self, inner_cls, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**14
        payload = repro.compress(
            smooth_field, PweMode(t), codec=inner_cls.name, chunk_shape=10
        ).payload
        recon = repro.decompress(payload)
        assert np.abs(recon - smooth_field).max() <= t

    def test_threaded_matches_serial(self, smooth_field):
        for name in BASELINES:
            serial = _compress(name, smooth_field)
            pooled = _compress(name, smooth_field, workers=2)
            assert serial == pooled, name

    def test_psnr_inner(self, smooth_field):
        payload = repro.compress(
            smooth_field, PsnrMode(60.0), codec="tthresh-like", chunk_shape=12
        ).payload
        assert psnr(smooth_field, repro.decompress(payload)) >= 58.0

    def test_mode_checks_delegated(self, smooth_field):
        for name in ("sz-like", "mgard-like"):
            with pytest.raises(UnsupportedModeError):
                repro.compress(
                    smooth_field, SizeMode(bpp=2.0), codec=name, chunk_shape=8
                )
        with pytest.raises(UnsupportedModeError):
            repro.compress(
                smooth_field, PweMode(1e-3), codec="tthresh-like", chunk_shape=8
            )

    def test_non_divisible_chunks(self, rng):
        data = rng.standard_normal((23, 17)).cumsum(axis=0)
        for name in BASELINES:
            payload = _compress(name, data, chunk=(8, 8))
            recon = repro.decompress(payload)
            assert recon.shape == data.shape, name
            assert len(parse_container(payload).chunks) == 6, name
            if name != "tthresh-like":
                t = _mode(name, data).tolerance
                assert np.abs(recon - data).max() <= t, name

    def test_corrupt_payload_rejected(self, smooth_field):
        for name in BASELINES:
            payload = _compress(name, smooth_field)
            with pytest.raises(StreamFormatError):
                repro.decompress(b"XXXX" + payload[4:])
            with pytest.raises(StreamFormatError):
                repro.decompress(payload[: len(payload) // 3])


class TestChunkedIntegrity:
    @pytest.fixture()
    def payloads(self, smooth_field):
        return {name: _compress(name, smooth_field) for name in BASELINES}

    def test_tile_bit_flip_raises_integrity_error(self, payloads):
        for name, payload in payloads.items():
            bad = bytearray(payload)
            bad[-10] ^= 0x01  # inside the last chunk's stream
            with pytest.raises(IntegrityError, match="CRC mismatch"):
                repro.decompress(bytes(bad))

    def test_header_bit_flip_raises(self, payloads):
        for name, payload in payloads.items():
            bad = bytearray(payload)
            bad[17] ^= 0x01  # inside the CRC-covered header (shape field)
            with pytest.raises(IntegrityError, match="header CRC"):
                repro.decompress(bytes(bad))

    def test_salvage_fills_damaged_tile(self, payloads):
        for name, payload in payloads.items():
            clean = repro.decompress(payload)
            bad = bytearray(payload)
            bad[-10] ^= 0x01
            result = repro.decompress(bytes(bad), on_error="salvage")
            report = result.report
            assert len(report.failed_chunks) == 1, name
            assert report.crc_mismatches == report.failed_chunks
            nan_mask = np.isnan(result.data)
            assert nan_mask.any()
            assert np.array_equal(result.data[~nan_mask], clean[~nan_mask])

    def test_salvage_clean_payload(self, payloads):
        for name, payload in payloads.items():
            result = repro.decompress(payload, on_error="salvage")
            assert result.report.ok, name
            assert result.report.format_version == 4
            assert np.asarray(result).shape == result.data.shape

    def test_legacy_v1_framing_still_decodes(self):
        """Pre-CRC ``CHNK`` payloads of the retired wrapper keep decoding."""
        payload = (DATA / "legacy_chnk.bin").read_bytes()
        assert payload[:4] == b"CHNK"
        expected = np.load(DATA / "legacy_chnk.npy")
        assert repro.decompress(payload).tobytes() == expected.tobytes()

    def test_trailing_garbage_rejected(self, payloads):
        for name, payload in payloads.items():
            with pytest.raises(StreamFormatError, match="trailing"):
                repro.decompress(payload + b"\x00" * 7)


class TestCodecTags:
    def test_tag_table(self):
        assert {t: CODEC_NAMES[t] for t in BASELINE_TAGS.values()} == {
            3: "sz-like",
            4: "zfp-like",
            5: "tthresh-like",
            6: "mgard-like",
        }
        assert set(BASELINE_TAGS) < set(ALL_COMPRESSORS)

    def test_every_chunk_carries_the_baseline_tag(self, smooth_field):
        for name, tag in BASELINE_TAGS.items():
            parsed = parse_container(_compress(name, smooth_field))
            assert parsed.format_version == 4
            assert parsed.codec_tags == (tag,) * len(parsed.chunks) == (tag,) * 8

    def test_unknown_tag_rejected_by_build_and_parse(self, smooth_field):
        parsed = parse_container(_compress("sz-like", smooth_field))
        args = (3, parsed.dtype, 0, parsed.shape, parsed.chunks, parsed.streams)
        with pytest.raises(InvalidArgumentError, match="unknown codec tag"):
            build_container(*args, codec_tags=[7] * 8)
        good = build_container(*args, codec_tags=[3] * 8)
        np.testing.assert_array_equal(
            repro.decompress(good), repro.decompress(_compress("sz-like", smooth_field))
        )
        # Re-tag a valid payload by hand, fixing its header CRC.
        bad = bytearray(good)
        tag_at = bad.index(bytes([3] * 8), 16)
        bad[tag_at] = 7
        bad[12:16] = b"\x00" * 4
        header_end = tag_at + 8 + 12
        struct.pack_into("<I", bad, 12, zlib.crc32(bytes(bad[:header_end])))
        with pytest.raises(StreamFormatError, match="unknown codec tag"):
            parse_container(bytes(bad))

    def test_chunk_decoding_to_the_wrong_shape_is_rejected(self, smooth_field):
        parsed = parse_container(_compress("zfp-like", smooth_field))
        # Swap two chunk streams of different shapes under the same table.
        shapes = [c.shape for c in parsed.chunks]
        j = next(i for i, s in enumerate(shapes) if s != shapes[0])
        streams = list(parsed.streams)
        streams[0], streams[j] = streams[j], streams[0]
        forged = build_container(
            3, parsed.dtype, 0, parsed.shape, parsed.chunks, streams,
            codec_tags=parsed.codec_tags,
        )
        with pytest.raises(StreamFormatError, match="table says"):
            repro.decompress(forged)
        result = repro.decompress(forged, on_error="salvage")
        assert {0, j} <= set(result.report.failed_chunks)

    def test_store_and_cli_accept_only_routing_policies(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="store codec"):
            StoreWriter(tmp_path / "s", PweMode(1e-3), codec="zfp-like")
        np.save(tmp_path / "x.npy", np.zeros((8, 8)))
        with pytest.raises(SystemExit):
            main(["compress", str(tmp_path / "x.npy"), str(tmp_path / "x.sperr"),
                  "--pwe", "1e-3", "--mode", "zfp-like"])

    def test_cli_info_names_baseline_tags(self, tmp_path, capsys, smooth_field):
        path = tmp_path / "z.sperr"
        path.write_bytes(_compress("mgard-like", smooth_field))
        assert main(["info", str(path)]) == 0
        assert "codecs:   mgard-like=8" in capsys.readouterr().out


class TestSmokeScenarios:
    """Chunked baselines hold the scorecard verdict on the smoke scenarios
    (bound, dtype, NaN/±Inf positions) with process-pool bytes equal to
    serial ones."""

    @pytest.mark.parametrize(
        "scenario",
        sorted(s for s, sc in SCENARIOS.items() if sc.smoke and s.endswith("-32")),
    )
    def test_chunked_roundtrip(self, scenario):
        data = SCENARIOS[scenario].build()
        tol = _tolerance(data)
        for name in BASELINES:
            mode = (
                PsnrMode(psnr_target_for_idx(16))
                if name == "tthresh-like"
                else PweMode(tol)
            )
            serial = repro.compress(data, mode, codec=name, chunk_shape=16).payload
            pooled = repro.compress(
                data, mode, codec=name, chunk_shape=16, workers=2
            ).payload
            assert pooled == serial, (scenario, name)
            out = repro.decompress(serial)
            passed, error, *_ = _check_cell(data, out, mode, tol)
            assert passed, (scenario, name, error)
