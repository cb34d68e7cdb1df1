"""Chunk planning, splitting, and reassembly (paper Sec. III-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunking import Chunk, assemble, plan_chunks, split
from repro.errors import InvalidArgumentError


class TestPlanChunks:
    def test_single_chunk_when_none(self):
        chunks = plan_chunks((10, 20), None)
        assert len(chunks) == 1
        assert chunks[0].shape == (10, 20)

    def test_exact_tiling(self):
        chunks = plan_chunks((64, 64, 64), 32)
        assert len(chunks) == 8
        assert all(c.shape == (32, 32, 32) for c in chunks)

    def test_non_divisible_dimensions(self):
        """The paper: chunk dims need not divide the volume dims."""
        chunks = plan_chunks((70, 64), (32, 32))
        # 70 = 32 + 38 (the 6-wide sliver merges into the second chunk)
        starts = sorted({c.bounds[0] for c in chunks})
        assert starts == [(0, 32), (32, 70)]

    def test_small_remainder_merged(self):
        bounds = [c.bounds[0] for c in plan_chunks((33,), (16,))]
        # 33 -> 16 + 17 (1-wide remainder merged)
        assert bounds == [(0, 16), (16, 33)]

    def test_large_remainder_kept(self):
        bounds = [c.bounds[0] for c in plan_chunks((40,), (16,))]
        assert bounds == [(0, 16), (16, 32), (32, 40)]

    def test_chunk_larger_than_volume(self):
        chunks = plan_chunks((10,), (64,))
        assert len(chunks) == 1
        assert chunks[0].shape == (10,)

    def test_tiles_cover_volume_exactly(self):
        shape = (37, 23, 11)
        chunks = plan_chunks(shape, (16, 8, 4))
        covered = np.zeros(shape, dtype=int)
        for c in chunks:
            covered[c.slices()] += 1
        assert np.all(covered == 1)

    def test_invalid_args_rejected(self):
        with pytest.raises(InvalidArgumentError):
            plan_chunks((10,), (0,))
        with pytest.raises(InvalidArgumentError):
            plan_chunks((10, 10), (4,))


class TestSplitAssemble:
    def test_round_trip(self, rng):
        data = rng.standard_normal((30, 18))
        chunks = plan_chunks(data.shape, (16, 7))
        parts = split(data, chunks)
        out = assemble(data.shape, chunks, parts)
        np.testing.assert_array_equal(out, data)

    def test_parts_are_contiguous_copies(self, rng):
        data = rng.standard_normal((8, 8))
        chunks = plan_chunks(data.shape, (4, 4))
        parts = split(data, chunks)
        parts[0][0, 0] = 999.0
        assert data[0, 0] != 999.0
        assert all(p.flags.c_contiguous for p in parts)

    def test_wrong_part_shape_rejected(self, rng):
        data = rng.standard_normal((8,))
        chunks = plan_chunks(data.shape, (4,))
        with pytest.raises(InvalidArgumentError):
            assemble(data.shape, chunks, [np.zeros(4), np.zeros(3)])

    def test_count_mismatch_rejected(self):
        chunks = plan_chunks((8,), (4,))
        with pytest.raises(InvalidArgumentError):
            assemble((8,), chunks, [np.zeros(4)])

    def test_chunk_size_property(self):
        c = Chunk(bounds=((0, 4), (2, 5)))
        assert c.shape == (4, 3)
        assert c.size == 12


class TestReadChunkTable:
    @staticmethod
    def _table(chunks):
        import struct

        return b"".join(
            struct.pack("<QQ", a, b) for c in chunks for a, b in c.bounds
        )

    @pytest.mark.parametrize(
        "shape,spec", [((64,), 32), ((23, 17), (8, 8)), ((9, 10, 11), (4, 5, 3))]
    )
    def test_planned_grids_round_trip(self, shape, spec):
        from repro.core.chunking import read_chunk_table

        chunks = plan_chunks(shape, spec)
        blob = b"\x00" * 5 + self._table(chunks)
        parsed, end = read_chunk_table(blob, 5, shape, len(chunks))
        assert parsed == chunks and end == len(blob)
        # any permutation of the grid still tiles the volume
        parsed, _ = read_chunk_table(self._table(chunks[::-1]), 0, shape, len(chunks))
        assert parsed == chunks[::-1]

    @pytest.mark.parametrize(
        "bounds",
        [
            [((0, 8), (0, 5)), ((0, 8), (0, 5))],  # duplicate, hole
            [((0, 4), (0, 5)), ((4, 8), (0, 5)), ((0, 4), (0, 5))],  # 3 in 2 cells
            [((0, 8), (0, 4))],  # axis 0 ok, axis 1 short
            [((0, 8), (0, 3)), ((0, 8), (2, 5))],  # overlap
            [((0, 4), (0, 5)), ((4, 8), (0, 2)), ((4, 8), (2, 5))],  # not a grid
            [((0, 9), (0, 5))],  # out of bounds
            [],  # empty table
        ],
    )
    def test_bad_tables_rejected(self, bounds):
        from repro.core.chunking import read_chunk_table
        from repro.errors import StreamFormatError

        table = self._table([Chunk(bounds=b) for b in bounds])
        with pytest.raises(StreamFormatError):
            read_chunk_table(table, 0, (8, 5), len(bounds))

    def test_truncated_table_rejected(self):
        from repro.core.chunking import read_chunk_table
        from repro.errors import StreamFormatError

        table = self._table(plan_chunks((8,), 4))
        with pytest.raises(StreamFormatError, match="truncated"):
            read_chunk_table(table[:-1], 0, (8,), 2)
