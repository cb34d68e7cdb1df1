"""ZFP-like baseline: transform, negabinary, block codec, modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.zfplike import (
    ZfpLikeCompressor,
    from_negabinary,
    fwd_lift,
    inv_lift,
    permutation,
    to_negabinary,
)
from repro.compressors.zfplike.zfp import (
    _EXP_BIAS,
    _EXP_BITS,
    _HEADER_BITS,
    _MAGIC,
    _blockify,
    _encode_blocks_vectorized,
    _unblockify,
)
from repro.compressors.zfplike.transform import PRECISION, block_exponents
from repro.core.plans import zfp_scan_order
from repro.core.modes import PweMode, SizeMode
from repro.errors import InvalidArgumentError, StreamFormatError


class TestTransform:
    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_lift_nearly_invertible(self, nd, rng):
        """zfp's integer lift drops a few LSBs by design; at 2^50 scale
        the round-trip error must stay within a few dozen units."""
        b = rng.integers(-(2**50), 2**50, size=(32,) + (4,) * nd).astype(np.int64)
        c = b.copy()
        fwd_lift(c)
        d = c.copy()
        inv_lift(d)
        assert np.abs(d - b).max() < 64

    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_lift_never_overflows(self, nd, rng):
        b = rng.integers(-(2**57), 2**57, size=(16,) + (4,) * nd).astype(np.int64)
        c = b.copy()
        fwd_lift(c)
        assert np.abs(c).max() < 2**60  # within the guard-bit headroom

    def test_lift_decorrelates_smooth_block(self):
        ramp = np.arange(64, dtype=np.int64).reshape(1, 4, 4, 4) * (1 << 40)
        c = ramp.copy()
        fwd_lift(c)
        flat = np.abs(c.reshape(-1)[permutation(3)])
        # energy concentrates in the leading (low-sequency) coefficients
        assert flat[:8].sum() > 10 * flat[8:].sum()

    def test_negabinary_round_trip(self, rng):
        i = rng.integers(-(2**60), 2**60, size=1000).astype(np.int64)
        assert np.array_equal(from_negabinary(to_negabinary(i)), i)

    def test_negabinary_sign_free(self):
        u = to_negabinary(np.array([-5, 5], dtype=np.int64))
        assert np.all(u > 0)

    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_permutation_is_bijective(self, nd):
        p = permutation(nd)
        assert sorted(p.tolist()) == list(range(4**nd))

    def test_permutation_orders_by_sequency(self):
        p = permutation(2)
        coords = np.indices((4, 4)).reshape(2, -1).T
        degrees = coords[p].sum(axis=1)
        assert np.all(np.diff(degrees) >= 0)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fwd_lift(np.zeros((2, 4), dtype=np.float64))


class TestBlockify:
    @pytest.mark.parametrize("shape", [(8,), (7,), (8, 12), (9, 5), (8, 8, 8), (6, 7, 9)])
    def test_round_trip(self, shape, rng):
        data = rng.standard_normal(shape)
        blocks, padded, grid = _blockify(data)
        assert blocks.shape[1:] == (4,) * len(shape)
        out = _unblockify(blocks, shape, padded, grid)
        np.testing.assert_array_equal(out, data)


class TestZfpLikeCompressor:
    @pytest.mark.parametrize("idx", [8, 16, 24])
    def test_accuracy_mode_bound(self, idx, smooth_field):
        t = (smooth_field.max() - smooth_field.min()) / 2**idx
        c = ZfpLikeCompressor()
        recon = c.decompress(c.compress(smooth_field, PweMode(t)))
        assert np.abs(recon - smooth_field).max() <= t

    def test_accuracy_mode_rough_field(self, rough_field):
        t = (rough_field.max() - rough_field.min()) / 2**15
        c = ZfpLikeCompressor()
        recon = c.decompress(c.compress(rough_field, PweMode(t)))
        assert np.abs(recon - rough_field).max() <= t

    @pytest.mark.parametrize("bpp", [1.0, 4.0, 16.0])
    def test_fixed_rate_hits_budget(self, bpp, smooth_field):
        c = ZfpLikeCompressor()
        payload = c.compress(smooth_field, SizeMode(bpp=bpp))
        actual = 8 * len(payload) / smooth_field.size
        assert actual <= bpp * 1.05 + 0.2  # header amortized
        recon = c.decompress(payload)
        assert recon.shape == smooth_field.shape

    def test_more_rate_less_error(self, smooth_field):
        c = ZfpLikeCompressor()
        errs = []
        for bpp in (2.0, 8.0, 16.0):
            recon = c.decompress(c.compress(smooth_field, SizeMode(bpp=bpp)))
            errs.append(float(np.sqrt(np.mean((recon - smooth_field) ** 2))))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("shape", [(40,), (18, 22), (9, 6, 11)])
    def test_all_ranks(self, shape, rng):
        data = rng.standard_normal(shape).cumsum(axis=-1)
        t = (data.max() - data.min()) / 2**12
        c = ZfpLikeCompressor()
        recon = c.decompress(c.compress(data, PweMode(t)))
        assert recon.shape == shape
        assert np.abs(recon - data).max() <= t

    def test_zero_blocks_cheap(self):
        data = np.zeros((16, 16, 16))
        data[0, 0, 0] = 1.0
        c = ZfpLikeCompressor()
        payload = c.compress(data, PweMode(1e-6))
        # all-zero blocks cost one bit each
        assert 8 * len(payload) / data.size < 1.0
        recon = c.decompress(payload)
        assert np.abs(recon - data).max() <= 1e-6

    def test_constant_field(self):
        data = np.full((8, 8, 8), -3.25)
        c = ZfpLikeCompressor()
        recon = c.decompress(c.compress(data, PweMode(1e-9)))
        assert np.abs(recon - data).max() <= 1e-9

    def test_nan_rejected(self):
        data = np.full((8, 8), np.nan)
        with pytest.raises(InvalidArgumentError):
            ZfpLikeCompressor().compress(data, PweMode(0.1))


def _encode_block(
    bits: list[int],
    u: np.ndarray,
    e: int,
    nonzero: bool,
    kmin: int,
    max_bits: int | None,
) -> None:
    """zfp's per-block embedded coding (group testing per bitplane),
    appended to a plain 0/1 list: the serial oracle of
    ``_encode_blocks_vectorized``.  ``max_bits`` must hold the block
    header (``_HEADER_BITS``)."""
    start = len(bits)
    bits.append(int(nonzero))
    if not nonzero:
        if max_bits is not None:
            bits.extend([0] * (max_bits - 1))
        return
    bits.extend((e + _EXP_BIAS) >> s & 1 for s in range(_EXP_BITS - 1, -1, -1))
    size = u.size
    vals = [int(v) for v in u.tolist()]
    n = 0
    out: list[int] = []
    budget = None if max_bits is None else max_bits - (len(bits) - start)
    for k in range(PRECISION - 2, kmin - 1, -1):
        x = 0
        for i in range(size):
            x |= ((vals[i] >> k) & 1) << i
        # verbatim bits for already-significant coefficients
        for i in range(n):
            out.append((x >> i) & 1)
        x >>= n
        m = n
        while m < size:
            b = 1 if x else 0
            out.append(b)
            if not b:
                break
            while m < size - 1:
                bit = x & 1
                out.append(bit)
                if bit:
                    break
                x >>= 1
                m += 1
            x >>= 1
            m += 1
        n = m if m > n else n
        if budget is not None and len(out) >= budget:
            break
    if budget is not None:
        out = out[:budget] + [0] * max(0, budget - len(out))
    bits.extend(out)


class TestVectorizedEncoderIdentity:
    """The scatter-form block coder (with its budget-exhaustion plane
    pruning) must stay bit-identical to zfp's serial per-block coder in
    every mode, including budgets that cut off mid-plane and the
    smallest budget, the 13-bit block header."""

    @staticmethod
    def _coder_inputs(data, nd, rng_seed=0):
        from repro.compressors.zfplike.zfp import _SCALE_EXP
        from repro.compressors.zfplike import fwd_lift, to_negabinary

        blocks, _, _ = _blockify(np.asarray(data, dtype=np.float64))
        nb = blocks.shape[0]
        flat = blocks.reshape(nb, -1)
        maxabs = np.abs(flat).max(axis=1)
        exps = block_exponents(maxabs)
        nonzero = maxabs > 0
        scale = np.exp2((_SCALE_EXP - exps).astype(np.float64))
        iblocks = np.rint(flat * scale[:, None]).astype(np.int64).reshape(blocks.shape)
        fwd_lift(iblocks)
        perm, _ = zfp_scan_order(nd)
        u = to_negabinary(iblocks.reshape(nb, -1)[:, perm])
        return u, exps, nonzero

    @staticmethod
    def _serial(u, exps, nonzero, kmins, max_bits):
        bits: list[int] = []
        for b in range(u.shape[0]):
            _encode_block(
                bits, u[b], int(exps[b]), bool(nonzero[b]),
                int(kmins[b]), max_bits,
            )
        return np.packbits(np.array(bits, dtype=np.uint8)).tobytes(), len(bits)

    @pytest.mark.parametrize("nd", [1, 2, 3])
    @pytest.mark.parametrize("max_bits", [None, 13, 64, 200, 1000])
    def test_matches_reference_coder(self, nd, max_bits, rng):
        data = rng.standard_normal((12,) * nd).cumsum(axis=-1)
        u, exps, nonzero = self._coder_inputs(data, nd)
        kmins = (
            np.zeros(u.shape[0], dtype=np.int64)
            if max_bits is not None
            else np.full(u.shape[0], 40, dtype=np.int64)
        )
        vec = _encode_blocks_vectorized(u, exps, nonzero, kmins, max_bits)
        ref = self._serial(u, exps, nonzero, kmins, max_bits)
        assert vec == ref

    def test_budget_exhaustion_pruning_identical(self, rng):
        # Tight budgets starve most blocks early: the vectorized coder's
        # plane-loop break must not change a single emitted bit.
        data = rng.standard_normal((16, 16)).cumsum(axis=0)
        u, exps, nonzero = self._coder_inputs(data, 2)
        for max_bits in (13, 14, 15, 16, 17, 20, 24, 40, 96):
            kmins = np.zeros(u.shape[0], dtype=np.int64)
            vec = _encode_blocks_vectorized(u, exps, nonzero, kmins, max_bits)
            ref = self._serial(u, exps, nonzero, kmins, max_bits)
            assert vec == ref, f"diverged at max_bits={max_bits}"

    def test_zero_and_live_blocks_mixed(self, rng):
        data = rng.standard_normal((24,)).cumsum()
        data[:8] = 0.0  # two all-zero blocks alongside live ones
        u, exps, nonzero = self._coder_inputs(data, 1)
        kmins = np.full(u.shape[0], 30, dtype=np.int64)
        assert _encode_blocks_vectorized(
            u, exps, nonzero, kmins, None
        ) == self._serial(u, exps, nonzero, kmins, None)


class TestFixedRateHeaderFloor:
    """A fixed-rate block budget is floored at the 13-bit block header
    (nonzero flag + exponent).  A smaller budget once kept the header but
    made the decoder skip to ``start + budget``, decoding garbage and
    NaN; it now codes exactly like 13 bits per block."""

    @staticmethod
    def _without_rate(payload: bytes) -> bytes:
        # magic, rank, mode code | (skip the 8-byte rate) | nbits, shape,
        # block budget and the block payload
        return payload[:6] + payload[14:]

    @pytest.mark.parametrize(
        "shape, bpp",
        [((64,), 2.5), ((64,), 3.0), ((32, 32), 0.25), ((32, 32), 0.75),
         ((16, 16, 16), 0.1), ((16, 16, 16), 0.19)],
    )
    def test_budget_below_header_codes_as_header(self, shape, bpp, rng):
        nd = len(shape)
        assert round(bpp * 4**nd) < _HEADER_BITS
        data = rng.standard_normal(shape).cumsum(axis=-1)
        c = ZfpLikeCompressor()
        low = c.compress(data, SizeMode(bpp=bpp))
        recon = c.decompress(low)
        assert np.all(np.isfinite(recon))
        at_floor = c.compress(data, SizeMode(bpp=_HEADER_BITS / 4**nd))
        assert self._without_rate(low) == self._without_rate(at_floor)
        np.testing.assert_array_equal(recon, c.decompress(at_floor))

    @staticmethod
    def _fixed_rate_stream(block_payload: bytes, n: int, block_bits: int) -> bytes:
        """A hand-built 1-D fixed-rate stream, laid out as ``compress`` does."""
        import struct

        nbits = 8 * len(block_payload)
        head = _MAGIC + struct.pack("<BBdQ", 1, 0, block_bits / 4, nbits)
        return head + struct.pack("<QI", n, block_bits) + block_payload

    def test_nonzero_block_below_header_budget_rejected(self):
        # 16 blocks of 8 bits; block 0 sets its nonzero flag, whose
        # 13-bit header cannot fit the budget
        stream = self._fixed_rate_stream(b"\x80" + b"\x00" * 15, 64, 8)
        with pytest.raises(StreamFormatError, match="13-bit header"):
            ZfpLikeCompressor().decompress(stream)

    def test_all_zero_blocks_below_header_budget_decode(self):
        stream = self._fixed_rate_stream(b"\x00" * 16, 64, 8)
        np.testing.assert_array_equal(
            ZfpLikeCompressor().decompress(stream), np.zeros(64)
        )


class TestThroughputFloors:
    """Encode/decode MB/s of float64 input on the seeded 32^3 field.  No
    benchmark workload runs this codec; the floors are half the speeds
    the vectorized block coder was tuned to."""

    @pytest.mark.parametrize(
        "rate_mode, floor", [("accuracy", 2.0), ("fixed_rate", 1.5)]
    )
    def test_floor(self, miranda, best_of_3, at_least, rate_mode, floor):
        data = miranda((32, 32, 32))
        mode = (
            PweMode(1e-3 * float(data.max() - data.min()))
            if rate_mode == "accuracy"
            else SizeMode(8.0)
        )
        comp = ZfpLikeCompressor()
        payload = comp.compress(data, mode)

        def mbps():
            seconds = best_of_3(
                lambda: comp.compress(data, mode), lambda: comp.decompress(payload)
            )
            return data.nbytes / 1e6 / max(seconds)  # the slower direction

        at_least(mbps, floor, f"zfp {rate_mode} encode/decode MB/s")
