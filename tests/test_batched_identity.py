"""Batched-vs-looped byte identity and masked-lane behaviour.

The batch executor's contract (DESIGN + docs/architecture.md "Batched
execution") is that stacking same-shaped chunks through the wavelet /
quant / SPECK / outlier stages changes *nothing* observable: the same
bitstreams, the same container bytes, the same obs counters — only the
wall time.  These tests pin that contract three ways:

* a Hypothesis sweep over random shapes (prime dimensions included),
  chunk shapes and modes (PWE, size and PSNR), comparing
  ``executor="batch"`` against ``executor="serial"`` payloads byte for
  byte;
* direct stacked-encoder checks — :class:`~repro.speck.batched.
  BatchedSpeckEncoder` against the serial :func:`repro.speck.codec.
  encode` — covering the masked-lane mechanics the end-to-end sweep
  cannot isolate (per-lane budgets, lanes joining at later planes,
  compaction after mass early exit);
* obs counter equivalence: a traced batch compress accumulates the same
  counter totals as a traced serial compress.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PsnrMode, PweMode, SizeMode, compress, decompress
from repro.speck.batched import BatchedSpeckEncoder, encode_batch
from repro.speck.codec import encode as serial_encode
from repro import obs


def _field(shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axes = np.ix_(*[np.linspace(0.0, 2.5 * np.pi, s) for s in shape])
    smooth = np.ones(shape)
    for a in axes:
        smooth = smooth * np.sin(a + 0.3)
    return smooth + 0.1 * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# End-to-end: batch executor == serial executor, byte for byte.


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
        serial = compress(data, mode, chunk_shape=chunk, executor="serial")
        batch = compress(data, mode, chunk_shape=chunk, executor="batch")
        assert batch.payload == serial.payload
        np.testing.assert_array_equal(
            decompress(batch.payload), decompress(serial.payload)
        )

    def test_singleton_groups_match_serial(self):
        # A volume whose chunk grid degenerates to one chunk per shape
        # group runs every group as a one-lane stack; still byte-identical.
        data = _field((13, 13), seed=5)
        mode = PweMode(1e-3)
        serial = compress(data, mode, chunk_shape=13, executor="serial")
        batch = compress(data, mode, chunk_shape=13, executor="batch")
        assert batch.payload == serial.payload

    def test_ragged_edge_chunks_mix_groups(self):
        # 23 = 8 + 8 + 7: interior chunks batch together, edge chunks
        # form their own shape groups (some singleton).
        data = _field((23, 23), seed=9)
        mode = PweMode(1e-3)
        serial = compress(data, mode, chunk_shape=8, executor="serial")
        batch = compress(data, mode, chunk_shape=8, executor="batch")
        assert batch.payload == serial.payload


# ---------------------------------------------------------------------------
# Stacked SPECK lanes: identity + masked-lane early-exit mechanics.


def _random_lanes(seed, n_lanes, shape, zero_lane=None, scale_spread=False):
    rng = np.random.default_rng(seed)
    mags = rng.integers(0, 1 << 12, size=(n_lanes, *shape)).astype(np.uint64)
    if scale_spread:
        # Wildly different magnitudes per lane => different nmax, so
        # lanes join the stacked pass at different bitplanes.
        shifts = rng.integers(0, 30, size=n_lanes).astype(np.uint64)
        mags <<= shifts.reshape((-1,) + (1,) * len(shape))
    if zero_lane is not None:
        mags[zero_lane] = 0
    neg = rng.random(size=(n_lanes, *shape)) < 0.5
    return mags, neg


def _assert_lanes_match_serial(mags, neg, max_bits):
    batched = BatchedSpeckEncoder(mags, neg).encode(max_bits=max_bits)
    n_lanes = mags.shape[0]
    budgets = (
        [None] * n_lanes
        if max_bits is None
        else [int(b) for b in np.broadcast_to(np.asarray(max_bits), (n_lanes,))]
    )
    for lane in range(n_lanes):
        stream, nbits, stats = serial_encode(
            mags[lane], neg[lane], max_bits=budgets[lane]
        )
        assert batched[lane][0] == stream, f"lane {lane} bytes diverge"
        assert batched[lane][1] == nbits
        assert batched[lane][2] == stats


class TestStackedLaneIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(4, 9),
        st.sampled_from([(8,), (16,), (4, 4), (8, 8), (3, 5), (4, 4, 4), (3, 3, 3)]),
        st.sampled_from([None, 64, 300, "per-lane"]),
    )
    def test_random_lanes_budgets_match_serial(self, seed, n_lanes, shape, budget):
        mags, neg = _random_lanes(seed, n_lanes, shape)
        if budget == "per-lane":
            budget = np.random.default_rng(seed + 1).integers(
                32, 2000, size=n_lanes
            )
        _assert_lanes_match_serial(mags, neg, budget)

    def test_lanes_join_at_different_planes(self):
        # Masked-lane start: lanes with small nmax contribute nothing
        # until the global plane descends to theirs.
        mags, neg = _random_lanes(3, 6, (4, 4), scale_spread=True)
        _assert_lanes_match_serial(mags, neg, None)

    def test_all_zero_lane_alongside_live_lanes(self):
        mags, neg = _random_lanes(4, 5, (4, 4), zero_lane=2)
        _assert_lanes_match_serial(mags, neg, None)

    def test_budget_exhaustion_stops_lane_early(self):
        # One starved lane must stop exactly where the serial encoder
        # stops (budget checked after each refinement pass), while the
        # other lanes keep coding to the last plane.
        mags, neg = _random_lanes(5, 4, (8, 8))
        budgets = np.array([96, 100_000, 100_000, 100_000])
        batched = BatchedSpeckEncoder(mags, neg).encode(max_bits=budgets)
        _assert_lanes_match_serial(mags, neg, budgets)
        assert batched[0][1] <= 96
        assert batched[1][1] > batched[0][1]

    def test_mass_early_exit_triggers_compaction(self):
        # All lanes but one starve: live slots fall below the compaction
        # fraction, the stacked arrays re-base, and the surviving lane
        # must still finish byte-identically.
        mags, neg = _random_lanes(6, 8, (8, 8))
        budgets = np.full(8, 80, dtype=np.int64)
        budgets[5] = 10**9
        _assert_lanes_match_serial(mags, neg, budgets)

    def test_encode_batch_routes_large_lanes_serially(self):
        # Lanes above the stacking pixel cap take the per-lane reference
        # path inside encode_batch; identity must hold either way.
        mags, neg = _random_lanes(7, 4, (16, 16, 16))  # 4096 px > cap
        out = encode_batch(mags, neg, max_bits=None)
        for lane in range(4):
            stream, nbits, stats = serial_encode(mags[lane], neg[lane])
            assert out[lane][0] == stream
            assert out[lane][1] == nbits


# ---------------------------------------------------------------------------
# SZx fast-tier lanes: stacked encode == per-chunk encode, byte for byte.


class TestSzxLaneIdentity:
    """The szx tier reuses the stacked-lane contract: encoding many
    chunks through one kernel pass must produce exactly the streams the
    one-chunk entry point produces, so mixed-codec containers are
    reproducible whichever executor built them."""

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
        serial = compress(data, mode, chunk_shape=8, executor="serial", codec=codec)
        batch = compress(data, mode, chunk_shape=8, executor="batch", codec=codec)
        assert batch.payload == serial.payload
        np.testing.assert_array_equal(
            decompress(batch.payload), decompress(serial.payload)
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
        with obs.trace("serial") as tracer:
            compress(data, mode, chunk_shape=8, executor="serial")
        serial_counters = tracer.report().counters
        with obs.trace("batch") as tracer:
            compress(data, mode, chunk_shape=8, executor="batch")
        batch_counters = tracer.report().counters
        assert batch_counters == serial_counters
        # The totals are not vacuous: SPECK coded real bits.
        assert serial_counters.get("speck.bits", 0) > 0
