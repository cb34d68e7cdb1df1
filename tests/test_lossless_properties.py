"""Cross-method properties of the lossless backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lossless


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=800), st.sampled_from(["stored", "rle", "huffman", "rle+huffman"]))
def test_every_method_round_trips_property(data, method):
    assert lossless.decompress(lossless.compress(data, method=method)) == data


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=800))
def test_auto_is_min_of_candidates(data):
    """`auto` output is never larger than any specifically requested
    method's output."""
    auto = len(lossless.compress(data, method="auto"))
    for method in ("stored", "rle", "huffman", "rle+huffman"):
        assert auto <= len(lossless.compress(data, method=method))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_methods_agree_on_content(seed):
    """All methods decode the same payload content, whatever their size."""
    g = np.random.default_rng(seed)
    data = bytes(np.repeat(g.integers(0, 4, 60), g.integers(1, 30, 60)).astype(np.uint8))
    decoded = {
        method: lossless.decompress(lossless.compress(data, method=method))
        for method in ("stored", "rle", "huffman", "lz77", "rc")
    }
    assert all(v == data for v in decoded.values())


class TestBackendSizeAccounting:
    def test_tag_overhead_is_one_byte(self):
        data = b"x" * 100
        stored = lossless.compress(data, method="stored")
        assert len(stored) == len(data) + 1

    def test_compressible_payload_shrinks_through_sperr_pipeline(self):
        """End to end: a structured chunk stream benefits from the pass."""
        import repro
        from repro.datasets import spectral_field

        f = spectral_field((16, 16), slope=4.0, seed=3)
        t = repro.tolerance_from_idx(f, 6)  # loose: sparse SPECK stream
        auto = repro.compress(f, repro.PweMode(t), lossless_method="auto")
        stored = repro.compress(f, repro.PweMode(t), lossless_method="stored")
        assert auto.nbytes <= stored.nbytes
