"""Dead-zone mid-riser quantizer (Sec. III-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.quant import (
    MAX_INT_MAGNITUDE,
    calibrate_step,
    dequantize,
    dequantize_batch,
    integerize,
    quantize_error_bound,
)


class TestIntegerize:
    def test_dead_zone_maps_to_zero(self):
        vals = np.array([-0.9, -0.5, 0.0, 0.3, 0.999])
        mags, neg = integerize(vals, 1.0)
        assert np.all(mags == 0)

    def test_magnitudes_floor(self):
        vals = np.array([1.0, 1.5, 2.0, 2.5, -3.7])
        mags, neg = integerize(vals, 1.0)
        assert mags.tolist() == [1, 1, 2, 2, 3]
        assert neg.tolist() == [False, False, False, False, True]

    def test_arbitrary_non_power_of_two_step(self):
        """Sec. III-C: q need not be an integer power of two."""
        q = 0.3137
        vals = np.array([0.9, 1.7, -2.1])
        mags, _ = integerize(vals, q)
        assert mags.tolist() == [int(0.9 / q), int(1.7 / q), int(2.1 / q)]

    def test_invalid_step_rejected(self):
        for q in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                integerize(np.array([1.0]), q)

    def test_nan_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            integerize(np.array([np.nan]), 1.0)

    def test_overflow_rejected(self):
        with pytest.raises(InvalidArgumentError):
            integerize(np.array([1.0]), 1e-20)

    def test_max_magnitude_boundary(self):
        # just under the cap is accepted
        q = 1.0 / float(MAX_INT_MAGNITUDE >> np.uint64(1))
        mags, _ = integerize(np.array([1.0]), q)
        assert mags[0] > 0


class TestDequantize:
    def test_mid_riser_reconstruction(self):
        """Values in (iq, (i+1)q] reconstruct at (i + 1/2) q."""
        q = 0.25
        mags = np.array([0, 1, 4], dtype=np.uint64)
        neg = np.array([False, False, True])
        out = dequantize(mags, neg, q)
        np.testing.assert_allclose(out, [0.0, 1.5 * q, -4.5 * q])

    def test_round_trip_error_bounded(self, rng):
        q = 0.01
        vals = rng.standard_normal(1000) * 5
        mags, neg = integerize(vals, q)
        rec = dequantize(mags, neg, q)
        err = np.abs(rec - vals)
        coded = mags > 0
        assert err[coded].max() <= q / 2 + 1e-12
        assert err.max() <= quantize_error_bound(q) + 1e-12


    def test_batch_matches_fancy_index_formula(self, rng):
        """Masked writes give the bytes of ``out[mags == 0] = 0`` then
        ``out[neg] *= -1``, including ``-0.0`` for negative dead-zone
        coefficients."""
        mags = rng.integers(0, 50, size=(3, 40)).astype(np.uint64)
        mags[:, :10] = 0
        neg = rng.random((3, 40)) < 0.5
        neg[:, :5] = True
        for q in (0.37, np.array([0.5, 1e-3, 7.0])):
            expected = mags.astype(np.float64)
            expected += 0.5
            expected *= np.asarray(q).reshape((-1, 1)) if np.ndim(q) else q
            expected[mags == 0] = 0.0
            expected[neg] *= -1.0
            out = dequantize_batch(mags, neg, q)
            assert out.tobytes() == expected.tobytes()
        assert np.signbit(dequantize_batch(mags, neg, 1.0)[:, :5]).all()

    def test_sign_bit_matches_masked_negation(self, rng):
        """Setting the sign bit gives the bit patterns of the masked
        ``np.negative`` pass it replaces: dead-zone negatives become
        ``-0.0``, under a scalar and a per-lane step."""

        def masked_negation(mags, neg, q):
            out = mags.astype(np.float64)
            out += 0.5
            out *= np.asarray(q).reshape((-1, 1, 1)) if np.ndim(q) else q
            np.copyto(out, 0.0, where=mags == 0)
            np.negative(out, out=out, where=neg)
            return out

        mags = rng.integers(0, 1 << 40, size=(4, 6, 50)).astype(np.uint64)
        mags[:, :, :12] = 0
        mags[:, 0, 12:20] = rng.integers(1, 4, size=8).astype(np.uint64)
        neg = rng.random(mags.shape) < 0.5
        neg[:, :, :6] = True  # dead-zone negatives
        for q in (0.37, 1e-300, np.array([0.5, 1e-3, 7.0, 1e200])):
            got = dequantize_batch(mags, neg, q).view(np.uint64)
            want = masked_negation(mags, neg, q).view(np.uint64)
            np.testing.assert_array_equal(got, want)
        assert (got[:, :, :6] == np.uint64(1) << np.uint64(63)).all()


class TestCalibrateStep:
    def test_unreachable_target_stays_integerizable(self):
        """A target far below the coefficients' float resolution (a
        near-constant field) yields the finest step that still fits the
        integer magnitudes, not an overflow."""
        values = np.array([2.77, 1e-16, -3e-17, 0.0])
        q = calibrate_step(values, 1e-22)
        mags, neg = integerize(values, q)
        assert mags.max() < MAX_INT_MAGNITUDE
        assert np.abs(dequantize(mags, neg, q) - values).max() <= q


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
    st.floats(min_value=1e-4, max_value=1e3),
)
def test_quantizer_error_bound_property(values, q):
    vals = np.asarray(values)
    mags, neg = integerize(vals, q)
    rec = dequantize(mags, neg, q)
    err = np.abs(rec - vals)
    # dead zone error <= q; coded error <= q/2 (paper Sec. III-C).  The
    # slack term covers floating-point rounding in |v|/q and (m+0.5)*q —
    # the same slop the SPERR pipeline absorbs in its t/2 outlier margin.
    slack = 1e-12 * max(1.0, float(np.abs(vals).max()))
    assert err.max() <= q + slack
    coded = mags > 0
    if coded.any():
        assert err[coded].max() <= q / 2 + slack


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=1e-6, max_value=1e2),
)
def test_sign_preservation_property(values, q):
    vals = np.asarray(values)
    mags, neg = integerize(vals, q)
    rec = dequantize(mags, neg, q)
    coded = mags > 0
    assert np.all(np.sign(rec[coded]) == np.sign(vals[coded]))
