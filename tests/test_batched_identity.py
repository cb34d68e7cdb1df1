"""Batched-vs-looped byte identity.

In-process compress stacks same-shaped chunks through the wavelet /
quant / SPECK / outlier stages (DESIGN + docs/architecture.md "Batched
execution"); each process-pool task does the same on its group of
chunks.  The contract is that the stacking changes *nothing*
observable: the same bitstreams, the same container bytes, the same obs
counters — only the wall time.  These tests pin that contract three
ways:

* a Hypothesis sweep over random shapes (prime dimensions included),
  chunk shapes and modes (PWE, size and PSNR), comparing every chunk
  stream of the grouped in-process payload (``workers=None``) against
  that chunk coded as a stack of one, and the whole payload against
  the pooled one (``workers=2``), byte for byte;
* stacked SZx encode against the one-chunk entry point;
* obs counter equivalence: a traced in-process compress accumulates the
  same counter totals as a traced pooled one, whose worker counters
  are merged into the parent trace.

SPECK itself codes lane by lane; its bytes for budgets and lane shapes
the pipeline never produces are pinned in
``tests/test_speck_encode_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PsnrMode, PweMode, SizeMode, compress, decompress
from repro.core.chunking import plan_chunks
from repro.core.container import _compress_stack_job, parse_container
from repro.core.pipeline import psnr_target_rmse
from repro import obs


def _field(shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axes = np.ix_(*[np.linspace(0.0, 2.5 * np.pi, s) for s in shape])
    smooth = np.ones(shape)
    for a in axes:
        smooth = smooth * np.sin(a + 0.3)
    return smooth + 0.1 * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# End-to-end: grouped in-process == one stack of one per chunk == pooled
# groups, byte for byte.


def _one_lane_streams(data, mode, chunk) -> list[bytes]:
    """Every chunk's container stream, each chunk coded as a stack of one."""
    rmse = psnr_target_rmse(mode, data)
    return [
        _compress_stack_job(data[c.slices()][None], mode, "cdf97", rmse)[0][0]
        for c in plan_chunks(data.shape, chunk)
    ]


@st.composite
def _volumes(draw):
    ndim = draw(st.integers(1, 3))
    # Prime extents (7, 11, 13...) exercise uneven chunk grids and odd
    # wavelet lengths; powers of two exercise the clean path.
    sizes = draw(
        st.lists(
            st.sampled_from([4, 7, 8, 11, 13, 16, 23]),
            min_size=ndim,
            max_size=ndim,
        )
    )
    chunk = draw(st.sampled_from([None, 4, 8, (5,)]))
    if isinstance(chunk, tuple):
        chunk = chunk * ndim
    mode = draw(
        st.one_of(
            st.sampled_from([PweMode(1e-2), PweMode(1e-4)]),
            st.sampled_from([SizeMode(4.0), SizeMode(1.0)]),
            st.sampled_from([PsnrMode(40.0), PsnrMode(70.0)]),
        )
    )
    seed = draw(st.integers(0, 2**16))
    return tuple(sizes), chunk, mode, seed


class TestBatchedExecutorIdentity:
    @settings(max_examples=25, deadline=None)
    @given(_volumes())
    def test_batch_matches_serial_payload(self, case):
        shape, chunk, mode, seed = case
        data = _field(shape, seed)
        pooled = compress(data, mode, chunk_shape=chunk, workers=2)
        batch = compress(data, mode, chunk_shape=chunk)
        assert parse_container(batch.payload).streams == _one_lane_streams(
            data, mode, chunk
        )
        assert batch.payload == pooled.payload
        np.testing.assert_array_equal(
            decompress(batch.payload), decompress(pooled.payload)
        )

    def test_singleton_groups_match_serial(self):
        # A volume whose chunk grid degenerates to one chunk per shape
        # group runs every group as a one-lane stack; still byte-identical.
        data = _field((13, 13), seed=5)
        mode = PweMode(1e-3)
        pooled = compress(data, mode, chunk_shape=13, workers=2)
        batch = compress(data, mode, chunk_shape=13)
        assert batch.payload == pooled.payload

    def test_ragged_edge_chunks_mix_groups(self):
        # 23 = 8 + 8 + 7: interior chunks batch together, edge chunks
        # form their own shape groups (some singleton).
        data = _field((23, 23), seed=9)
        mode = PweMode(1e-3)
        pooled = compress(data, mode, chunk_shape=8, workers=2)
        batch = compress(data, mode, chunk_shape=8)
        assert parse_container(batch.payload).streams == _one_lane_streams(
            data, mode, 8
        )
        assert batch.payload == pooled.payload


# ---------------------------------------------------------------------------
# SZx fast-tier lanes: stacked encode == per-chunk encode, byte for byte.


class TestSzxLaneIdentity:
    """The szx tier reuses the stacked-lane contract: encoding many
    chunks through one kernel pass must produce exactly the streams the
    one-chunk entry point produces, so mixed-codec containers are
    reproducible whatever ``workers`` built them."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 6),
        st.sampled_from([1e-1, 1e-3, 1e-6]),
    )
    def test_encode_chunks_matches_encode_chunk(self, seed, n_lanes, tol):
        from repro.compressors.szxlike.codec import encode_chunk, encode_chunks

        rng = np.random.default_rng(seed)
        arrays = []
        for i in range(n_lanes):
            kind = i % 3
            size = int(rng.integers(1, 700))
            if kind == 0:
                arrays.append(np.full(size, float(rng.normal())))
            elif kind == 1:
                arrays.append(np.linspace(0, rng.normal(), size))
            else:
                arrays.append(rng.normal(size=size) * 10.0)
        batched = encode_chunks(arrays, tol)
        for arr, stream in zip(arrays, batched):
            assert encode_chunk(arr, tol) == stream

    @pytest.mark.parametrize("codec", ["fast", "adaptive"])
    def test_fast_payloads_identical_across_executors(self, codec):
        data = _field((23, 23), seed=17)
        mode = PweMode(1e-3)
        pooled = compress(data, mode, chunk_shape=8, workers=2, codec=codec)
        batch = compress(data, mode, chunk_shape=8, codec=codec)
        assert batch.payload == pooled.payload
        np.testing.assert_array_equal(
            decompress(batch.payload), decompress(pooled.payload)
        )


# ---------------------------------------------------------------------------
# Observability: the batched path reports the same counters.


class TestObsCounterEquivalence:
    @pytest.mark.parametrize(
        "mode",
        [PweMode(1e-3), SizeMode(2.0), PsnrMode(50.0)],
        ids=["pwe", "size", "psnr"],
    )
    def test_counters_match_serial(self, mode):
        data = _field((16, 16, 16), seed=11)
        with obs.trace("pooled") as tracer:
            compress(data, mode, chunk_shape=8, workers=2)
        pooled_counters = tracer.report().counters
        with obs.trace("batch") as tracer:
            compress(data, mode, chunk_shape=8)
        batch_counters = tracer.report().counters
        assert batch_counters == pooled_counters
        # The totals are not vacuous: SPECK coded real bits.
        assert pooled_counters.get("speck.bits", 0) > 0
