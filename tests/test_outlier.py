"""Outlier location and coding (paper Sec. IV, Listings 1-3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.outlier import (
    OutlierCoder,
    decode_outliers,
    encode_outliers,
    locate_outliers,
)


class TestLocateOutliers:
    def test_finds_violations_only(self):
        orig = np.array([0.0, 1.0, 2.0, 3.0])
        rec = np.array([0.05, 1.0, 2.5, 2.8])
        pos, corr = locate_outliers(orig, rec, tolerance=0.1)
        assert pos.tolist() == [2, 3]
        np.testing.assert_allclose(corr, [-0.5, 0.2])

    def test_boundary_not_an_outlier(self):
        """|err| == t is within tolerance (strict > in the definition)."""
        orig = np.array([1.0])
        rec = np.array([0.9])
        pos, _ = locate_outliers(orig, rec, tolerance=0.1)
        assert pos.size == 0

    def test_multidimensional_flattening(self):
        orig = np.zeros((4, 4))
        rec = np.zeros((4, 4))
        rec[2, 3] = 1.0
        pos, corr = locate_outliers(orig, rec, 0.5)
        assert pos.tolist() == [2 * 4 + 3]
        np.testing.assert_allclose(corr, [-1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            locate_outliers(np.zeros(3), np.zeros(4), 0.1)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            locate_outliers(np.zeros(3), np.zeros(3), 0.0)


class TestOutlierCoder:
    def test_round_trip_positions_exact(self, rng):
        n = 1000
        t = 0.01
        pos = np.sort(rng.choice(n, size=40, replace=False))
        corr = (rng.random(40) * 2 + 1.01) * t * np.where(rng.random(40) < 0.5, -1, 1)
        enc = OutlierCoder(n, t).encode(pos, corr)
        dpos, dcorr = OutlierCoder(n, t).decode(enc.stream, nbits=enc.nbits)
        assert np.array_equal(dpos, pos)
        assert np.abs(dcorr - corr).max() <= t / 2 + 1e-15

    def test_correction_error_within_half_tolerance(self, rng):
        """Listing 1 terminates at thrd = t, leaving at most t/2 error."""
        n = 4096
        t = 3.7e-4  # arbitrary non power-of-two tolerance
        k = 200
        pos = rng.choice(n, size=k, replace=False)
        corr = rng.standard_normal(k) * 50 * t
        corr[np.abs(corr) <= t] = 1.5 * t  # ensure all are genuine outliers
        enc = encode_outliers(pos, corr, n, t)
        dpos, dcorr = decode_outliers(enc.stream, n, t, nbits=enc.nbits)
        lookup = dict(zip(dpos.tolist(), dcorr.tolist()))
        for p, c in zip(pos.tolist(), corr.tolist()):
            assert p in lookup
            assert abs(lookup[p] - c) <= t / 2 * (1 + 1e-9)

    def test_apply_corrections_in_place(self, rng):
        n = 256
        t = 0.05
        recon = rng.standard_normal(n)
        truth = recon.copy()
        pos = np.array([3, 77, 200])
        corr = np.array([10 * t, -4 * t, 2 * t])
        truth[pos] += corr
        enc = encode_outliers(pos, truth[pos] - recon[pos], n, t)
        coder = OutlierCoder(n, t)
        coder.apply(recon, enc.stream, nbits=enc.nbits)
        assert np.abs(recon - truth).max() <= t / 2 * (1 + 1e-9)

    def test_no_outliers_edge_case(self):
        enc = OutlierCoder(100, 0.1).encode(np.zeros(0), np.zeros(0))
        assert enc.n_outliers == 0
        assert enc.bits_per_outlier == 0.0
        pos, corr = OutlierCoder(100, 0.1).decode(enc.stream, nbits=enc.nbits)
        assert pos.size == 0

    def test_single_outlier(self):
        enc = OutlierCoder(64, 0.5).encode(np.array([13]), np.array([7.3]))
        pos, corr = OutlierCoder(64, 0.5).decode(enc.stream, nbits=enc.nbits)
        assert pos.tolist() == [13]
        assert abs(corr[0] - 7.3) <= 0.25 * (1 + 1e-9)

    def test_bits_per_outlier_reasonable(self, rng):
        """Sec. V-A: the cost is mostly 6-16 bits per outlier."""
        n = 64 * 64 * 64
        t = 1.0
        k = int(n * 0.01)  # ~1% outliers, typical at q = 1.5t
        pos = rng.choice(n, size=k, replace=False)
        corr = (1.0 + rng.random(k)) * t * np.where(rng.random(k) < 0.5, -1, 1)
        enc = encode_outliers(pos, corr, n, t)
        assert 4.0 <= enc.bits_per_outlier <= 18.0

    def test_duplicate_positions_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OutlierCoder(10, 0.1).encode(np.array([1, 1]), np.array([1.0, 2.0]))

    def test_out_of_range_position_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OutlierCoder(10, 0.1).encode(np.array([10]), np.array([1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OutlierCoder(10, 0.1).encode(np.array([1, 2]), np.array([1.0]))

    def test_invalid_domain_or_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            OutlierCoder(0, 0.1)
        with pytest.raises(InvalidArgumentError):
            OutlierCoder(10, -1.0)

    def test_reconstruction_length_mismatch_rejected(self):
        coder = OutlierCoder(10, 0.1)
        enc = coder.encode(np.array([1]), np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            coder.apply(np.zeros(5), enc.stream, nbits=enc.nbits)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=2000),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_outlier_guarantee_property(n, seed, t):
    """For arbitrary outlier sets the decoded corrections always land
    within t/2 of the truth and every position is recovered exactly."""
    g = np.random.default_rng(seed)
    k = g.integers(1, max(2, n // 4))
    pos = g.choice(n, size=k, replace=False)
    magnitude = t * (1.0 + g.random(k) * 100.0)
    corr = magnitude * np.where(g.random(k) < 0.5, -1.0, 1.0)
    enc = encode_outliers(pos, corr, n, t)
    dpos, dcorr = decode_outliers(enc.stream, n, t, nbits=enc.nbits)
    assert np.array_equal(np.sort(dpos), np.sort(pos))
    order = np.argsort(dpos)
    order_in = np.argsort(pos)
    assert np.abs(dcorr[order] - corr[order_in]).max() <= t / 2 * (1 + 1e-9) + 1e-15


class TestForgedPaddingPositions:
    """The outlier domain pads to a power of two; a forged stream can
    mark padding cells significant.  Decode must drop them."""

    def test_padding_outliers_dropped(self):
        t = 0.5
        positions = np.array([5, 9000, 12000, 16000])
        forged = OutlierCoder(16384, t).encode(positions, np.array([3.0, -4.0, 5.0, 6.0]))
        coder = OutlierCoder(10240, t)
        got, corr = coder.decode(forged.stream, nbits=forged.nbits)
        assert got.tolist() == [5, 9000]
        assert np.all(np.abs(corr - [3.0, -4.0]) <= t / 2)
        recon = np.zeros(10240)
        coder.apply(recon, forged.stream, nbits=forged.nbits)
        assert np.flatnonzero(recon).tolist() == [5, 9000]
        assert np.array_equal(recon[[5, 9000]], corr)
