"""Container framing primitives: parse/build round trips."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.chunking import Chunk
from repro.core.container import ParsedContainer, build_container, parse_container
from repro.core.modes import PweMode
from repro.datasets import spectral_field
from repro.errors import StreamFormatError


@pytest.fixture(scope="module")
def payload():
    data = spectral_field((14, 10), slope=2.0, seed=21)
    t = repro.tolerance_from_idx(data, 10)
    return repro.compress(data, PweMode(t), chunk_shape=7).payload


class TestParseContainer:
    def test_structural_fields(self, payload):
        parsed = parse_container(payload)
        assert parsed.rank == 2
        assert parsed.shape == (14, 10)
        assert parsed.dtype == np.float64
        assert parsed.mode_code == 0
        assert len(parsed.chunks) == len(parsed.streams) == 4

    def test_chunks_tile_shape(self, payload):
        parsed = parse_container(payload)
        covered = np.zeros(parsed.shape, dtype=int)
        for c in parsed.chunks:
            covered[c.slices()] += 1
        assert np.all(covered == 1)

    def test_rebuild_is_byte_identical(self, payload):
        parsed = parse_container(payload)
        rebuilt = build_container(
            parsed.rank,
            parsed.dtype,
            parsed.mode_code,
            parsed.shape,
            parsed.chunks,
            parsed.streams,
        )
        assert rebuilt == payload

    def test_rebuild_with_swapped_streams_decodes(self, payload):
        """The framing is position-based: replacing a chunk stream with a
        recompressed equivalent still produces a valid container."""
        parsed = parse_container(payload)
        rebuilt = build_container(
            parsed.rank, parsed.dtype, parsed.mode_code, parsed.shape,
            list(parsed.chunks), list(parsed.streams),
        )
        out = repro.decompress(rebuilt)
        assert out.shape == parsed.shape

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError):
            parse_container(b"WRONGMAGIC" + b"\x00" * 40)

    def test_truncated_stream_table(self, payload):
        with pytest.raises(StreamFormatError):
            parse_container(payload[:40])

    def test_parsed_container_is_plain_data(self, payload):
        parsed = parse_container(payload)
        assert isinstance(parsed, ParsedContainer)
        assert all(isinstance(c, Chunk) for c in parsed.chunks)
        assert all(isinstance(s, bytes) for s in parsed.streams)


class TestChunkTableTiling:
    """A CRC-valid table that overlaps or leaves holes must not decode."""

    @pytest.fixture(scope="class")
    def parts(self):
        x = np.linspace(0.0, 1.0, 64)
        return parse_container(repro.compress(x, PweMode(1e-3), chunk_shape=32).payload)

    def _forge(self, parts, bounds):
        chunks = [Chunk(bounds=b) for b in bounds]
        return build_container(
            1, np.dtype(np.float64), 0, (64,), chunks, parts.streams
        )

    @pytest.mark.parametrize(
        "bounds",
        [
            (((0, 32),), ((0, 32),)),  # repeated chunk, samples 32-63 a hole
            (((0, 40),), ((24, 64),)),  # overlap
            (((0, 32),), ((33, 64),)),  # one-sample hole
            (((32, 64),), ((32, 64),)),
        ],
    )
    def test_forged_table_rejected(self, parts, bounds):
        forged = self._forge(parts, bounds)
        with pytest.raises(StreamFormatError, match="chunk table"):
            parse_container(forged)
        with pytest.raises(StreamFormatError, match="chunk table"):
            repro.decompress(forged)
        with pytest.raises(StreamFormatError, match="chunk table"):
            repro.decompress(forged, on_error="salvage")

    def test_permuted_grid_still_decodes(self, parts):
        forged = build_container(
            1,
            np.dtype(np.float64),
            0,
            (64,),
            [parts.chunks[1], parts.chunks[0]],
            parts.streams[::-1],
        )
        expected = repro.decompress(
            build_container(1, np.dtype(np.float64), 0, (64,), parts.chunks, parts.streams)
        )
        np.testing.assert_array_equal(repro.decompress(forged), expected)
