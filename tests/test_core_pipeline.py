"""Per-chunk SPERR pipeline: compression, reports, stream format."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bitstream import HEADER_SIZE, ChunkHeader, ChunkParams
from repro.core.modes import PweMode, SizeMode
from repro.core.pipeline import compress_chunk, decompress_chunk
from repro.errors import InvalidArgumentError, StreamFormatError
from repro.speck import encode


class TestCompressChunk:
    def test_pwe_round_trip(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**15
        stream, report = compress_chunk(smooth_field, PweMode(t))
        recon = decompress_chunk(stream, rank=3)
        assert np.abs(recon - smooth_field).max() <= t
        assert report.total_nbytes == len(stream)

    def test_report_accounting(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**15
        stream, report = compress_chunk(smooth_field, PweMode(t))
        assert report.q == pytest.approx(1.5 * t)
        assert report.npoints == smooth_field.size
        assert report.bpp == pytest.approx(8 * len(stream) / smooth_field.size)
        assert report.speck_bpp + report.outlier_bpp < report.bpp  # header overhead
        assert set(report.timings) == {"transform", "speck", "locate", "outlier_code"}
        assert all(v >= 0 for v in report.timings.values())

    def test_stream_layout(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**12
        stream, report = compress_chunk(smooth_field, PweMode(t))
        header = ChunkHeader.unpack(stream)
        params = ChunkParams.unpack(stream[HEADER_SIZE:])
        assert header.shape == smooth_field.shape
        assert header.pwe_mode
        assert params.tolerance == t
        expected = HEADER_SIZE + ChunkParams.SIZE + header.speck_nbytes + params.outlier_nbytes
        assert len(stream) == expected

    def test_size_mode_budget(self, rough_field):
        stream, report = compress_chunk(rough_field, SizeMode(bpp=3.0))
        assert report.bpp <= 3.0 + 0.1
        recon = decompress_chunk(stream, rank=3)
        assert recon.shape == rough_field.shape
        # more budget must give lower error
        stream2, _ = compress_chunk(rough_field, SizeMode(bpp=8.0))
        recon2 = decompress_chunk(stream2, rank=3)
        rmse = lambda a, b: np.sqrt(np.mean((a - b) ** 2))  # noqa: E731
        assert rmse(recon2, rough_field) < rmse(recon, rough_field)

    def test_outliers_present_on_rough_data(self, rough_field):
        t = (rough_field.max() - rough_field.min()) / 2**18
        _, report = compress_chunk(rough_field, PweMode(t))
        assert report.n_outliers > 0
        assert report.bits_per_outlier > 0
        assert 0 < report.outlier_fraction < 1

    def test_2d_and_1d_inputs(self, rng):
        for shape in ((40, 30), (100,)):
            data = rng.standard_normal(shape)
            t = (data.max() - data.min()) / 2**12
            stream, _ = compress_chunk(data, PweMode(t))
            recon = decompress_chunk(stream, rank=len(shape))
            assert recon.shape == shape
            assert np.abs(recon - data).max() <= t

    def test_rank_inference(self, rng):
        data = rng.standard_normal((12, 10))
        t = (data.max() - data.min()) / 2**10
        stream, _ = compress_chunk(data, PweMode(t))
        recon = decompress_chunk(stream)  # rank inferred from trailing 1s
        assert recon.shape == (12, 10)

    def test_constant_chunk(self):
        data = np.full((16, 16), 2.5)
        stream, report = compress_chunk(data, PweMode(1e-6))
        recon = decompress_chunk(stream, rank=2)
        assert np.abs(recon - data).max() <= 1e-6
        assert report.n_outliers == 0

    def test_alternate_wavelets(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**10
        for wavelet in ("cdf53", "haar"):
            stream, _ = compress_chunk(smooth_field, PweMode(t), wavelet=wavelet)
            recon = decompress_chunk(stream, rank=3)
            assert np.abs(recon - smooth_field).max() <= t

    def test_forced_levels_round_trip(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**10
        stream, _ = compress_chunk(smooth_field, PweMode(t), levels=1)
        recon = decompress_chunk(stream, rank=3)
        assert np.abs(recon - smooth_field).max() <= t

    def test_nan_rejected(self):
        data = np.zeros((8, 8))
        data[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            compress_chunk(data, PweMode(0.1))

    def test_4d_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            compress_chunk(rng.standard_normal((4, 4, 4, 4)), PweMode(0.1))

    def test_truncated_stream_rejected(self, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**10
        stream, _ = compress_chunk(smooth_field, PweMode(t))
        with pytest.raises(StreamFormatError):
            decompress_chunk(stream[: HEADER_SIZE + 4], rank=3)


class TestForgedSpeckHeaders:
    """A SPECK section's first byte counts bitplanes.  Magnitudes are
    uint64, so no encoder writes more than 64; a larger count used to
    decode silently to wrong values (planes 64+ shift the 1 out)."""

    @pytest.fixture
    def chunk(self, rough_field):
        t = (rough_field.max() - rough_field.min()) / 2**18
        stream, report = compress_chunk(rough_field, PweMode(t))
        assert report.n_outliers > 0
        header = ChunkHeader.unpack(stream)
        speck_at = HEADER_SIZE + ChunkParams.SIZE
        return stream, {"speck": speck_at, "outlier": speck_at + header.speck_nbytes}

    @staticmethod
    def _forge(stream: bytes, at: int, value: int) -> bytes:
        bad = bytearray(stream)
        bad[at] = value
        return bytes(bad)

    @pytest.mark.parametrize("section", ["speck", "outlier"])
    @pytest.mark.parametrize("value", [65, 128, 255])
    def test_impossible_plane_count_rejected(self, chunk, section, value):
        stream, offsets = chunk
        with pytest.raises(StreamFormatError, match="bitplanes"):
            decompress_chunk(self._forge(stream, offsets[section], value), rank=3)

    @pytest.mark.parametrize("section", ["speck", "outlier"])
    def test_largest_legal_plane_count_decodes(self, chunk, section):
        stream, offsets = chunk
        out = decompress_chunk(self._forge(stream, offsets[section], 64), rank=3)
        assert out.shape == (20, 20, 20)


def test_forged_padding_coefficients_dropped(rng):
    """A ragged 9x13x6 chunk pads to 16x16x8.  A SPECK section coded for
    the padded box, with nonzeros in the padding, must decode to the
    chunk's own cells only: the same volume as with the padding zeroed."""
    shape, padded = (9, 13, 6), (16, 16, 8)
    data = rng.standard_normal(shape)
    stream, _ = compress_chunk(data, PweMode(0.05))
    header = ChunkHeader.unpack(stream)
    params = ChunkParams.unpack(stream[HEADER_SIZE:])
    tail = stream[HEADER_SIZE + ChunkParams.SIZE + header.speck_nbytes :]

    mags = np.zeros(padded, dtype=np.uint64)
    mags[:9, :13, :6] = rng.integers(0, 1000, size=shape)
    neg = rng.random(padded) < 0.5
    honest = encode(mags, neg)
    mags[12, 14, 7] = mags[3, 15, 2] = mags[10, 1, 6] = 5000
    forged = encode(mags, neg)

    def with_speck_section(section: bytes, nbits: int) -> bytes:
        return (
            dataclasses.replace(header, speck_nbytes=len(section)).pack()
            + dataclasses.replace(params, speck_nbits=nbits).pack()
            + section
            + tail
        )

    want = decompress_chunk(with_speck_section(*honest[:2]), rank=3)
    got = decompress_chunk(with_speck_section(*forged[:2]), rank=3)
    assert got.shape == shape
    assert np.array_equal(got, want)
