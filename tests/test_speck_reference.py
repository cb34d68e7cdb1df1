"""Cross-validation: batched production SPECK vs the canonical reference.

The production codec batches each depth level for vectorization; that
only reorders bits inside deterministic windows.  Three consequences are
enforced here:

1. identical stream lengths (batching adds/removes no bits),
2. bit-identical full-stream reconstructions,
3. the reference round-trips on its own.

The hypothesis property holds the production decoder to the reference
decoder on complete streams; ``test_decode_golden.py`` pins truncated
prefixes, which the reference does not decode.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.speck import decode, encode
from repro.speck.reference import reference_decode, reference_encode


def _random_case(seed: int, shape: tuple[int, ...], density: float = 0.5):
    g = np.random.default_rng(seed)
    mags = g.integers(0, 300, size=shape).astype(np.uint64)
    mags[g.random(shape) > density] = 0
    neg = g.random(shape) < 0.5
    return mags, neg


class TestReferenceRoundTrip:
    @pytest.mark.parametrize("shape", [(8,), (13,), (8, 8), (5, 9), (4, 4, 4), (3, 6, 5)])
    def test_reference_round_trip(self, shape):
        mags, neg = _random_case(7, shape)
        stream, nbits = reference_encode(mags, neg)
        rec, rneg = reference_decode(stream, shape, nbits)
        coded = mags > 0
        np.testing.assert_allclose(rec[coded], mags[coded] + 0.5)
        assert np.all(rec[~coded] == 0)
        assert np.array_equal(rneg[coded], neg[coded])

    def test_all_zero(self):
        mags = np.zeros((4, 4), dtype=np.uint64)
        stream, nbits = reference_encode(mags, np.zeros((4, 4), dtype=bool))
        assert nbits == 8
        rec, _ = reference_decode(stream, (4, 4), nbits)
        assert np.all(rec == 0)


class TestBatchedMatchesReference:
    @pytest.mark.parametrize(
        "shape,seed",
        [((16,), 0), ((9,), 1), ((8, 8), 2), ((7, 5), 3), ((4, 4, 4), 4), ((6, 3, 5), 5)],
    )
    def test_identical_bit_counts(self, shape, seed):
        """Batching reorders bits; it must never change the count."""
        mags, neg = _random_case(seed, shape)
        _, nbits_batched, _ = encode(mags, neg)
        _, nbits_reference = reference_encode(mags, neg)
        assert nbits_batched == nbits_reference

    @pytest.mark.parametrize(
        "shape,seed", [((16,), 10), ((8, 8), 11), ((4, 4, 4), 12)]
    )
    def test_identical_full_reconstructions(self, shape, seed):
        mags, neg = _random_case(seed, shape)
        b_stream, b_nbits, _ = encode(mags, neg)
        r_stream, r_nbits = reference_encode(mags, neg)
        b_rec, b_neg = decode(b_stream, shape, nbits=b_nbits)
        r_rec, r_neg = reference_decode(r_stream, shape, r_nbits)
        np.testing.assert_array_equal(b_rec, r_rec)
        coded = b_rec > 0
        assert np.array_equal(b_neg[coded], r_neg[coded])

    def test_sparse_and_dense_extremes(self):
        for density in (0.02, 0.98):
            mags, neg = _random_case(42, (8, 8), density)
            _, nb, _ = encode(mags, neg)
            _, nr = reference_encode(mags, neg)
            assert nb == nr


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([(12,), (33,), (4, 6), (5, 7), (3, 3, 3), (3, 6, 5)]),
)
def test_bit_count_equivalence_property(seed, shape):
    """Same bit count, and the production decoder reconstructs exactly
    what the canonical one does from its own complete stream."""
    mags, neg = _random_case(seed, shape, density=0.4)
    b_stream, nbits_batched, _ = encode(mags, neg)
    r_stream, nbits_reference = reference_encode(mags, neg)
    assert nbits_batched == nbits_reference
    b_rec, b_neg = decode(b_stream, shape, nbits=nbits_batched)
    r_rec, r_neg = reference_decode(r_stream, shape, nbits_reference)
    np.testing.assert_array_equal(b_rec, r_rec)
    np.testing.assert_array_equal(b_neg, r_neg)
