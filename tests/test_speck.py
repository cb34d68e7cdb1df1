"""SPECK coder: geometry, pyramid, codec round trips, embedded property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.quant import MAX_INT_MAGNITUDE
from repro.speck import (
    Geometry,
    MaxPyramid,
    decode,
    decode_coefficients,
    encode,
    encode_coefficients,
)


class TestGeometry:
    def test_power_of_two_cube(self):
        g = Geometry((8, 8, 8))
        assert g.padded_shape == (8, 8, 8)
        assert g.max_depth == 3
        assert g.grids[0] == (1, 1, 1)
        assert g.grids[3] == (8, 8, 8)

    def test_non_power_of_two_padding(self):
        g = Geometry((5, 9))
        assert g.padded_shape == (8, 16)
        assert g.max_depth == 4

    def test_degenerate_axes(self):
        g = Geometry((16, 1, 1))
        assert g.padded_shape == (16, 1, 1)
        assert g.max_depth == 4

    def test_children_cover_parent_exactly(self):
        g = Geometry((8, 8))
        root = np.zeros(1, dtype=np.int64)
        kids = g.children(0, root)
        assert kids.size == 4  # quadtree split in 2-D
        grand = g.children(1, kids)
        assert grand.size == 16
        # at max depth all pixels are enumerated exactly once
        idx = root
        for d in range(g.max_depth):
            idx = g.children(d, idx)
        assert sorted(idx.tolist()) == list(range(64))

    def test_children_binary_split_1d(self):
        g = Geometry((16,))
        kids = g.children(0, np.zeros(1, dtype=np.int64))
        assert kids.size == 2

    def test_children_octree_3d(self):
        g = Geometry((8, 8, 8))
        kids = g.children(0, np.zeros(1, dtype=np.int64))
        assert kids.size == 8

    def test_invalid_shapes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Geometry((0,))
        with pytest.raises(InvalidArgumentError):
            Geometry((2, 2, 2, 2))


class TestMaxPyramid:
    def test_block_maxima(self):
        mags = np.arange(16, dtype=np.uint64).reshape(4, 4)
        g = Geometry((4, 4))
        p = MaxPyramid(g, mags)
        assert p.global_max == 15
        # depth-1 grid is 2x2; each block max is its bottom-right corner
        level1 = p.levels[1].reshape(2, 2)
        assert level1.tolist() == [[5, 7], [13, 15]]

    def test_padding_is_zero(self):
        mags = np.full((3,), 9, dtype=np.uint64)
        g = Geometry((3,))
        p = MaxPyramid(g, mags)
        assert p.levels[g.max_depth].tolist() == [9, 9, 9, 0]

    def test_shape_mismatch_rejected(self):
        g = Geometry((4, 4))
        with pytest.raises(InvalidArgumentError):
            MaxPyramid(g, np.zeros((4, 5), dtype=np.uint64))

    @pytest.mark.parametrize(
        "shape",
        [(1,), (5,), (32768,), (7, 12), (13, 9, 20), (32, 32, 32)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_every_level_is_the_block_maximum(self, shape, rng):
        """Each level entry equals the maximum over its block, found by
        slicing the zero-padded magnitudes at that depth's block extent."""
        top = int(MAX_INT_MAGNITUDE)
        mags = rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True)
        # Sparse large values on a zero background, as outlier lanes look.
        mags[rng.random(shape) < 0.7] = 0
        mags.reshape(-1)[0] = top
        g = Geometry(shape)
        p = MaxPyramid(g, mags)
        padded = np.zeros(g.padded_shape, dtype=np.uint64)
        padded[tuple(slice(0, n) for n in shape)] = mags
        assert len(p.levels) == g.max_depth + 1
        assert p.global_max == int(mags.max())
        for d, grid in enumerate(g.grids):
            extent = [2 ** max(e - d, 0) for e in g.exponents]
            expected = np.empty(grid, dtype=np.uint64)
            for cell in np.ndindex(*grid):
                block = tuple(
                    slice(c * w, (c + 1) * w) for c, w in zip(cell, extent)
                )
                expected[cell] = padded[block].max()
            assert p.levels[d].dtype == np.uint64
            np.testing.assert_array_equal(p.levels[d], expected.reshape(-1))


class TestCodecIntegers:
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (17,), (8, 8), (5, 13), (4, 4, 4), (7, 3, 9)]
    )
    def test_exact_round_trip(self, shape, rng):
        mags = rng.integers(0, 1000, size=shape).astype(np.uint64)
        neg = rng.random(shape) < 0.5
        stream, nbits, stats = encode(mags, neg)
        rec, rneg = decode(stream, shape, nbits=nbits)
        coded = mags > 0
        # full decode reconstructs m + 0.5 for every coded magnitude
        np.testing.assert_allclose(rec[coded], mags[coded] + 0.5)
        assert np.all(rec[~coded] == 0)
        assert np.array_equal(rneg[coded], neg[coded])

    def test_all_zero_input(self):
        mags = np.zeros((8, 8), dtype=np.uint64)
        stream, nbits, _ = encode(mags, np.zeros((8, 8), dtype=bool))
        assert nbits == 8  # just the nmax header
        rec, _ = decode(stream, (8, 8), nbits=nbits)
        assert np.all(rec == 0)

    def test_single_nonzero_pixel(self):
        mags = np.zeros((16, 16), dtype=np.uint64)
        mags[7, 11] = 5
        neg = np.zeros((16, 16), dtype=bool)
        neg[7, 11] = True
        stream, nbits, _ = encode(mags, neg)
        rec, rneg = decode(stream, (16, 16), nbits=nbits)
        assert rec[7, 11] == 5.5
        assert rneg[7, 11]
        assert np.count_nonzero(rec) == 1

    def test_stats_accounting(self, rng):
        mags = rng.integers(0, 64, size=(16, 16)).astype(np.uint64)
        stream, nbits, stats = encode(mags, np.zeros((16, 16), dtype=bool))
        # nmax header (8 bits) plus the per-pass bits must equal the stream
        assert 8 + stats.total_bits() == nbits
        assert stats.planes == sorted(stats.planes, reverse=True)

    def test_size_budget_respected(self, rng):
        mags = rng.integers(0, 2**20, size=(32, 32)).astype(np.uint64)
        stream, nbits, _ = encode(mags, np.zeros((32, 32), dtype=bool), max_bits=2000)
        assert nbits <= 2000
        assert len(stream) <= 250
        rec, _ = decode(stream, (32, 32), nbits=nbits)  # must not raise
        assert rec.shape == (32, 32)

    @pytest.mark.parametrize("budget", [-1, 0, 4, 7])
    def test_budget_below_header_rejected(self, budget, rng):
        # Every stream the encoder returns must decode; one shorter than
        # the 8-bit header cannot.
        mags = rng.integers(0, 64, size=(8, 8)).astype(np.uint64)
        with pytest.raises(InvalidArgumentError, match="header"):
            encode(mags, np.zeros((8, 8), dtype=bool), max_bits=budget)

    def test_budget_of_one_header_decodes(self, rng):
        mags = rng.integers(0, 64, size=(8, 8)).astype(np.uint64)
        stream, nbits, _ = encode(mags, np.zeros((8, 8), dtype=bool), max_bits=8)
        assert nbits == 8
        rec, _ = decode(stream, (8, 8), nbits=nbits)
        assert not rec.any()


class TestEncodeInputs:
    """:func:`encode` reads the caller's magnitudes and signs in place
    when nothing pads (32³ chunks, 32768-long outlier lanes) and through
    zero-filled copies otherwise; either way the inputs stay untouched,
    read-only or not, and the stream is the one private copies give."""

    @pytest.mark.parametrize(
        "shape", [(32, 32, 32), (32768,), (24, 24, 24), (13824,)], ids=str
    )
    def test_inputs_unchanged(self, shape, rng):
        mags = rng.integers(1, 1 << 12, size=shape).astype(np.uint64)
        mags[rng.random(shape) < 0.85] = 0
        neg = rng.random(shape) < 0.5
        want = encode(mags.copy(), neg.copy())
        for writeable in (True, False):
            m, s = mags.copy(), neg.copy()
            m.setflags(write=writeable)
            s.setflags(write=writeable)
            assert encode(m, s) == want
            assert m.tobytes() == mags.tobytes()
            assert s.tobytes() == neg.tobytes()


class TestCodecCoefficients:
    def test_error_bounded_by_q(self, smooth_field):
        q = 1e-3
        stream, nbits, _, recon = encode_coefficients(smooth_field, q)
        dec = decode_coefficients(stream, smooth_field.shape, q, nbits=nbits)
        np.testing.assert_allclose(dec, recon, atol=1e-12)
        assert np.abs(dec - smooth_field).max() <= q

    def test_encoder_reconstruction_matches_decoder_exactly(self, rough_field):
        """The SPERR pipeline locates outliers against the encoder-side
        reconstruction; it must be bit-identical to a full decode."""
        q = 0.05
        stream, nbits, _, recon = encode_coefficients(rough_field, q)
        dec = decode_coefficients(stream, rough_field.shape, q, nbits=nbits)
        assert np.array_equal(dec, recon)

    def test_embedded_prefix_improves_monotonically(self, smooth_field):
        """Any stream prefix decodes; longer prefixes are at least as good
        (the embedded property, Sec. VII)."""
        q = 1e-4
        stream, nbits, _, _ = encode_coefficients(smooth_field, q)
        prev_rmse = np.inf
        for frac in (0.05, 0.2, 0.5, 1.0):
            nb = max(8, int(nbits * frac))
            dec = decode_coefficients(
                stream[: (nb + 7) // 8], smooth_field.shape, q, nbits=nb
            )
            rmse = float(np.sqrt(np.mean((dec - smooth_field) ** 2)))
            assert rmse <= prev_rmse * 1.001
            prev_rmse = rmse

    def test_smaller_q_means_more_bits_and_less_error(self, smooth_field):
        """Sec. III-C: q steers the quality/size trade-off."""
        _, bits_coarse, _, rec_coarse = encode_coefficients(smooth_field, 1e-2)
        _, bits_fine, _, rec_fine = encode_coefficients(smooth_field, 1e-4)
        assert bits_fine > bits_coarse
        err_coarse = np.abs(rec_coarse - smooth_field).max()
        err_fine = np.abs(rec_fine - smooth_field).max()
        assert err_fine < err_coarse

    def test_truncated_header_rejected(self):
        with pytest.raises(InvalidArgumentError):
            decode_coefficients(b"", (4, 4), 1.0, nbits=0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_speck_1d_round_trip_property(n, seed):
    g = np.random.default_rng(seed)
    mags = g.integers(0, 500, size=n).astype(np.uint64)
    neg = g.random(n) < 0.5
    stream, nbits, _ = encode(mags, neg)
    rec, rneg = decode(stream, (n,), nbits=nbits)
    coded = mags > 0
    np.testing.assert_allclose(rec[coded], mags[coded] + 0.5)
    assert np.array_equal(rneg[coded], neg[coded])
