"""SPERR stream headers: the fixed chunk header and its parameter block."""

from __future__ import annotations

import pytest

from repro.bitstream import HEADER_SIZE, ChunkHeader, ChunkParams
from repro.errors import StreamFormatError


class TestChunkHeader:
    def test_fixed_size_is_twenty_bytes(self):
        """Sec. V-A: the header is exactly 20 bytes."""
        h = ChunkHeader(shape=(64, 64, 64), speck_nbytes=12345)
        assert HEADER_SIZE == 20
        assert len(h.pack()) == 20

    def test_round_trip(self):
        h = ChunkHeader(
            shape=(100, 1, 7),
            speck_nbytes=999,
            is_double=True,
            pwe_mode=False,
            has_outliers=True,
            lossless=True,
        )
        assert ChunkHeader.unpack(h.pack()) == h

    def test_bad_magic_rejected(self):
        data = b"XX" + b"\x00" * 18
        with pytest.raises(StreamFormatError):
            ChunkHeader.unpack(data)

    def test_short_buffer_rejected(self):
        with pytest.raises(StreamFormatError):
            ChunkHeader.unpack(b"SP\x01")

    def test_bad_version_rejected(self):
        h = ChunkHeader(shape=(1, 1, 1), speck_nbytes=0).pack()
        corrupted = h[:2] + bytes([99]) + h[3:]
        with pytest.raises(StreamFormatError):
            ChunkHeader.unpack(corrupted)


class TestChunkParams:
    def test_round_trip(self):
        p = ChunkParams(
            q=1.5e-7,
            tolerance=1e-7,
            speck_nbits=88,
            outlier_nbits=13,
            outlier_nbytes=2,
            wavelet="cdf53",
            levels=4,
        )
        assert ChunkParams.unpack(p.pack()) == p

    def test_auto_levels_round_trip(self):
        p = ChunkParams(
            q=1.0, tolerance=0.5, speck_nbits=0, outlier_nbits=0, outlier_nbytes=0
        )
        out = ChunkParams.unpack(p.pack())
        assert out.levels is None
        assert out.wavelet == "cdf97"

    def test_short_buffer_rejected(self):
        with pytest.raises(StreamFormatError):
            ChunkParams.unpack(b"\x00" * 4)
