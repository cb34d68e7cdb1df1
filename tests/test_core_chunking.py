"""Chunk planning, splitting, the chunk grid and reassembly (paper Sec. III-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunking import Chunk, ChunkGrid, plan_chunks, split
from repro.errors import InvalidArgumentError, StreamFormatError


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


def _full(shape):
    return tuple((0, n) for n in shape)


def _place(grid, bounds, parts, **kwargs):
    """Write each part at the slices ``grid.placements`` gives."""
    shape, places = grid.placements(bounds, **kwargs)
    out = np.full(shape, np.nan)
    for i, (box, crop, dst) in places.items():
        assert parts[i].shape == box
        out[dst] = parts[i][crop]
    return out


class TestSplitAssemble:
    def test_round_trip(self, rng):
        data = rng.standard_normal((30, 18))
        chunks = plan_chunks(data.shape, (16, 7))
        parts = split(data, chunks)
        out = _place(ChunkGrid(data.shape, chunks), _full(data.shape), dict(enumerate(parts)))
        np.testing.assert_array_equal(out, data)

    def test_window_crop_equals_slicing(self, rng):
        data = rng.standard_normal((40, 36, 20))
        chunks = plan_chunks(data.shape, 16)
        grid = ChunkGrid(data.shape, chunks[::-1])  # any table order
        parts = dict(enumerate(split(data, grid.chunks)))
        bounds = ((3, 37), (16, 17), (0, 20))
        out = _place(grid, bounds, parts)
        np.testing.assert_array_equal(out, data[3:37, 16:17, :])
        # ascending ids, as ``intersecting`` lists them
        assert list(grid.placements(bounds)[1]) == grid.intersecting(bounds)

    def test_parts_are_contiguous_copies(self, rng):
        data = rng.standard_normal((8, 8))
        chunks = plan_chunks(data.shape, (4, 4))
        parts = split(data, chunks)
        parts[0][0, 0] = 999.0
        assert data[0, 0] != 999.0
        assert all(p.flags.c_contiguous for p in parts)

    def test_placement_box_shapes(self):
        grid = ChunkGrid((8,), plan_chunks((8,), (4,)))
        shape, places = grid.placements(((2, 8),))
        assert shape == (6,)
        assert places == {
            0: ((4,), (slice(2, 4),), (slice(0, 2),)),
            1: ((4,), (slice(0, 4),), (slice(2, 6),)),
        }
        # at level 1 an 8-point chunk's box is 4 points long, placed whole
        grid = ChunkGrid((16,), plan_chunks((16,), (8,)))
        coarse = _place(grid, ((0, 16),), {0: np.zeros(4), 1: np.ones(4)}, level=1)
        np.testing.assert_array_equal(coarse, [0, 0, 0, 0, 1, 1, 1, 1])
        shape, places = grid.placements(((9, 12),), level=1)
        assert shape == (4,) and places == {1: ((4,), (slice(None),), (slice(0, 4),))}

    def test_covering_is_chunk_aligned(self):
        grid = ChunkGrid((40, 36, 20), plan_chunks((40, 36, 20), 16))
        assert grid.covering(((3, 17), (16, 17), (0, 20))) == ((0, 32), (16, 36), (0, 20))
        assert grid.covering(_full((40, 36, 20))) == _full((40, 36, 20))
        # an empty axis stays empty
        assert grid.covering(((5, 5), (0, 4), (0, 1)))[0] == (5, 5)

    def test_count_mismatch_rejected(self):
        # every axis is tiled, but one cell of the 2x2 grid has no chunk
        chunks = plan_chunks((8, 8), (4, 4))
        with pytest.raises(StreamFormatError, match="3 chunks for a 4-cell grid"):
            ChunkGrid((8, 8), chunks[:3])

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
        grid, end = read_chunk_table(blob, 5, shape, len(chunks))
        assert grid.chunks == chunks and end == len(blob)
        # any permutation of the grid still tiles the volume
        grid, _ = read_chunk_table(self._table(chunks[::-1]), 0, shape, len(chunks))
        assert grid.chunks == chunks[::-1]

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


def _scan(chunks, bounds):
    """Brute-force oracle: every chunk overlapping ``bounds``, in table order."""
    return [
        i
        for i, chunk in enumerate(chunks)
        if all(
            lo < hi and a < hi and lo < b
            for (a, b), (lo, hi) in zip(chunk.bounds, bounds)
        )
    ]


class TestGridLookup:
    @pytest.mark.parametrize(
        "shape,spec",
        [((40, 36, 20), 16), ((33, 70), (16, 32)), ((64,), 32), ((9, 10, 11), (4, 5, 3))],
    )
    @pytest.mark.parametrize("order", ["planned", "permuted"])
    def test_lookup_equals_scan(self, shape, spec, order):
        rng = np.random.default_rng(7)
        chunks = plan_chunks(shape, spec)
        if order == "permuted":
            chunks = [chunks[i] for i in rng.permutation(len(chunks))]
        grid = ChunkGrid(shape, chunks)
        for _ in range(300):
            bounds = []
            for n in shape:
                lo = int(rng.integers(0, n + 1))
                # one box in four is empty on this axis
                hi = lo if rng.random() < 0.25 else int(rng.integers(lo, n + 1))
                bounds.append((lo, hi))
            bounds = tuple(bounds)
            assert grid.intersecting(bounds) == _scan(chunks, bounds), bounds
        full = _full(shape)
        assert grid.intersecting(full) == list(range(len(chunks)))
