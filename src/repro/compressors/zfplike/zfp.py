"""The ZFP-like compressor: 4^d block transform coding.

Modes:

* :class:`~repro.core.modes.SizeMode` — fixed rate: every block gets
  exactly ``rate * 4**d`` bits (zfp's flagship mode, Sec. III-B of the
  SPERR paper notes both share this ability), rounded and floored at
  the 13-bit block header (nonzero flag + 12-bit exponent), so a rate
  below ``13 / 4**d`` bits per value codes like ``13 / 4**d``;
* :class:`~repro.core.modes.PweMode` — fixed accuracy: bitplanes whose
  contribution falls below the tolerance are dropped.  Like real zfp,
  the bound is enforced with a conservative per-dimension guard factor.

Per block: common exponent → block floating point (int64) → lifted
decorrelating transform → total-sequency reorder → negabinary →
bitplane coding with zfp's group-testing loop.  Encoding is vectorized
across blocks (:func:`_encode_blocks_vectorized`); the decoder's bit
loop is per block (the price of a pure-Python reproduction, noted in
DESIGN.md).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ...core.modes import PweMode, SizeMode
from ...core.plans import zfp_scan_order
from ...errors import InvalidArgumentError, StreamFormatError
from ..base import Compressor, Mode, checked_shape, decode_guard
from .transform import (
    PRECISION,
    block_exponents,
    from_negabinary,
    fwd_lift,
    inv_lift,
    to_negabinary,
)

__all__ = ["ZfpLikeCompressor"]

_MAGIC = b"ZFPL"
_EXP_BITS = 12
_EXP_BIAS = 2048
#: nonzero flag + exponent: a live block's header, and the smallest
#: fixed-rate block budget
_HEADER_BITS = 1 + _EXP_BITS
#: block-float scaling exponent: ints are x * 2**(_SCALE_EXP - e), leaving
#: headroom for transform growth and the extra negabinary bit below the
#: top coded plane (PRECISION - 2)
_SCALE_EXP = PRECISION - 6
#: guard bits per dimension when deriving the accuracy-mode plane cutoff
_ACCURACY_GUARD = 2


def _blockify(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Pad to multiples of 4 (edge-replicated) and gather 4^d blocks."""
    shape = data.shape
    padded_shape = tuple(-(-n // 4) * 4 for n in shape)
    pad = [(0, p - n) for n, p in zip(shape, padded_shape)]
    padded = np.pad(data, pad, mode="edge")
    nd = data.ndim
    grid = tuple(p // 4 for p in padded_shape)
    view = padded.reshape(
        tuple(v for n in grid for v in (n, 4))
    )
    axes = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
    blocks = view.transpose(axes).reshape((-1,) + (4,) * nd)
    return np.ascontiguousarray(blocks), padded_shape, grid


def _unblockify(
    blocks: np.ndarray, shape: tuple[int, ...], padded_shape: tuple[int, ...], grid: tuple[int, ...]
) -> np.ndarray:
    nd = len(shape)
    view = blocks.reshape(grid + (4,) * nd)
    axes_fwd = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
    inv_axes = np.argsort(axes_fwd)
    padded = view.transpose(tuple(inv_axes)).reshape(padded_shape)
    return padded[tuple(slice(0, n) for n in shape)]


def _encode_blocks_vectorized(
    u: np.ndarray,
    exps: np.ndarray,
    nonzero: np.ndarray,
    kmins: np.ndarray,
    max_bits: int | None,
) -> tuple[bytes, int]:
    """zfp's embedded block coding (group testing per bitplane), all blocks at once.

    Returns ``(payload, nbits)``.  ``max_bits`` is the fixed-rate block
    budget (at least :data:`_HEADER_BITS`: every block is clipped or
    zero-padded to it) or ``None`` for fixed accuracy, where block ``b``
    codes planes down to ``kmins[b]``.

    The group-testing emission of one (block, plane) pair has a closed
    positional form: with ``n`` coefficients already significant and ones
    at columns ``p_1 < ... < p_L`` among the rest, the serial walk writes

    * ``n`` verbatim bits (one per significant coefficient), then
    * a single 0 when ``L == 0`` (nothing if ``n == size``), otherwise
    * one bit per column ``n..e`` with ``e = min(p_L, size - 2)`` (the
      final column's 1 is implicit), interleaved with ``L`` group-1 bits
      plus a trailing 0 when ``p_L < size - 1``.

    Every emitted 1 therefore lands at a computable offset — a verbatim 1
    at its column, the leading group bit at ``n``, the 1 for the rank-``r``
    one at ``col + 1 + r``, and the group bit that follows it at
    ``col + r + 2`` — so the whole stream is a zeros array plus one
    scatter of 1-positions and a single :func:`numpy.packbits`.  Output is
    bit-identical to zfp's serial per-block coder, which
    `tests/test_compressor_zfplike.py` keeps as its oracle.
    """
    nb, size = u.shape
    planes = np.arange(PRECISION - 2, int(kmins.min(initial=0)) - 1, -1)
    cols = np.arange(size, dtype=np.int64)

    # Pass 1: per-plane last-one column and emission lengths (the running
    # significance count n is the exclusive running max of lastpos + 1).
    # In fixed-rate mode a block whose flag + exponent + payload so far
    # has reached its budget can emit nothing more — every later 1 would
    # land past ``limits`` and be clipped — so exhausted blocks drop out
    # of ``active`` and the loop stops once no block is live.
    lens = np.zeros((planes.size, nb), dtype=np.int64)
    n_at = np.zeros((planes.size, nb), dtype=np.int64)
    lp_at = np.zeros((planes.size, nb), dtype=np.int64)
    act_at = np.zeros((planes.size, nb), dtype=bool)
    n_cur = np.zeros(nb, dtype=np.int64)
    cum = np.zeros(nb, dtype=np.int64)
    n_planes = planes.size
    for pi, k in enumerate(planes):
        active = nonzero & (k >= kmins)
        if max_bits is not None:
            active &= _HEADER_BITS + cum < max_bits
        if not active.any():
            # Nobody can come back: per-block activity only ever ends
            # (k falls below kmin, or the budget fills up).
            n_planes = pi
            break
        bitk = (u >> np.uint64(k)) & np.uint64(1)
        lp = (bitk.astype(np.int64) * (cols + 1)).max(axis=1) - 1
        n = n_cur
        has = lp >= n
        e = np.minimum(lp, size - 2)
        total_ones = bitk.sum(axis=1).astype(np.int64)
        before = np.take_along_axis(
            np.cumsum(bitk, axis=1, dtype=np.int64),
            np.maximum(n - 1, 0)[:, None],
            axis=1,
        )[:, 0]
        before[n == 0] = 0
        L = total_ones - before
        with_ones = (e + 1) + L + (lp < size - 1)
        empty = n + (n < size)
        lens[pi] = np.where(active, np.where(has, with_ones, empty), 0)
        n_at[pi] = n
        lp_at[pi] = lp
        act_at[pi] = active
        cum += lens[pi]
        n_cur = np.where(active, np.maximum(n, lp + 1), n_cur)

    # Block starts and per-plane offsets within each block.
    if max_bits is not None:
        starts = np.arange(nb, dtype=np.int64) * max_bits
        total = nb * max_bits
        limits = starts + max_bits
    else:
        block_len = np.where(nonzero, _HEADER_BITS + lens.sum(axis=0), 1)
        starts = np.zeros(nb, dtype=np.int64)
        np.cumsum(block_len[:-1], out=starts[1:])
        total = int(block_len.sum())
        limits = None
    plane_start = np.zeros((planes.size, nb), dtype=np.int64)
    np.cumsum(lens[:-1], axis=0, out=plane_start[1:])
    plane_start += starts + _HEADER_BITS

    dests: list[np.ndarray] = []
    drows: list[np.ndarray] = []  # owning block of each scattered 1

    nz_rows = np.flatnonzero(nonzero)
    dests.append(starts[nz_rows])  # nonzero flag bits
    drows.append(nz_rows)
    ev = (exps[nz_rows] + _EXP_BIAS).astype(np.int64)
    erow, ebit = np.nonzero((ev[:, None] >> np.arange(_EXP_BITS - 1, -1, -1)) & 1)
    dests.append(starts[nz_rows][erow] + 1 + ebit)
    drows.append(nz_rows[erow])

    # Pass 2: scatter the plane payload ones.
    for pi in range(n_planes):
        k = planes[pi]
        active = act_at[pi]
        if not active.any():
            continue
        bitk = ((u >> np.uint64(k)) & np.uint64(1)).astype(bool)
        n = n_at[pi]
        lp = lp_at[pi]
        ps = plane_start[pi]
        has = (lp >= n) & active
        verb = bitk & (cols[None, :] < n[:, None]) & active[:, None]
        rows, cs = np.nonzero(verb)
        dests.append(ps[rows] + cs)
        drows.append(rows)
        hrows = np.flatnonzero(has)
        dests.append(ps[hrows] + n[hrows])  # leading group-1 of each run
        drows.append(hrows)
        sel = bitk & (cols[None, :] >= n[:, None]) & has[:, None]
        rank = np.cumsum(sel, axis=1, dtype=np.int64)
        rows, cs = np.nonzero(sel)
        rk = rank[rows, cs] - 1
        pos_one = cs <= np.minimum(lp, size - 2)[rows]
        dests.append(ps[rows[pos_one]] + cs[pos_one] + 1 + rk[pos_one])
        drows.append(rows[pos_one])
        grp = rk <= (rank[:, -1] - 2)[rows]
        dests.append(ps[rows[grp]] + cs[grp] + rk[grp] + 2)
        drows.append(rows[grp])

    dest = np.concatenate(dests)
    if limits is not None:
        # Fixed-rate truncation: the serial coder clips each block's
        # emission at its budget and zero-pads, so ones past the budget
        # simply vanish.
        dest = dest[dest < limits[np.concatenate(drows)]]
    bits = np.zeros(total, dtype=bool)
    bits[dest] = True
    return np.packbits(bits).tobytes(), total


def _decode_block_bits(
    bits: list[int], pos: int, total: int, size: int, kmin: int, max_bits: int | None
) -> tuple[list[int] | None, int, bool, int]:
    """Decode one block of :func:`_encode_blocks_vectorized` from a plain 0/1 list.

    Returns ``(negabinary values | None, e, nonzero, new_pos)``; ``None``
    values mean an all-zero block.  Working on a pre-unpacked bit list
    with an integer cursor keeps the group-testing walk free of reader
    method calls — this loop is the whole cost of ZFP decompression.
    """
    start = pos
    if pos >= total:
        raise StreamFormatError("zfp stream exhausted at block start")
    nonzero = bits[pos]
    pos += 1
    if not nonzero:
        if max_bits is not None:
            # skip the zero-padding up to the fixed block budget
            pos = min(total, max(pos, start + max_bits))
        return None, 0, False, pos
    if max_bits is not None and max_bits < _HEADER_BITS:
        # only encoders predating the 13-bit floor wrote such budgets,
        # and their nonzero blocks overran them
        raise StreamFormatError(
            f"zfp fixed-rate budget of {max_bits} bits cannot hold a "
            f"nonzero block's {_HEADER_BITS}-bit header"
        )
    if pos + _EXP_BITS > total:
        raise StreamFormatError("zfp stream exhausted reading block exponent")
    e = 0
    for _ in range(_EXP_BITS):
        e = (e << 1) | bits[pos]
        pos += 1
    e -= _EXP_BIAS
    vals = [0] * size
    n = 0
    # Every probe consumes exactly one bit, so the budget and stream
    # bounds collapse into a single stop position for the cursor.
    stop_at = total if max_bits is None else min(total, start + max_bits)

    stop = False
    for k in range(PRECISION - 2, kmin - 1, -1):
        # verbatim bits for already-significant coefficients
        for i in range(n):
            if pos >= stop_at:
                stop = True
                break
            if bits[pos]:
                vals[i] |= 1 << k
            pos += 1
        if stop:
            break
        m = n
        while m < size:
            if pos >= stop_at:  # group bit: "another 1 at or beyond m?"
                stop = True
                break
            b = bits[pos]
            pos += 1
            if not b:
                break
            # scan explicit zeros up to the next 1; if the scan reaches the
            # final coefficient, its 1 is implicit (the group bit proved it)
            while m < size - 1:
                if pos >= stop_at:
                    stop = True
                    break
                bit = bits[pos]
                pos += 1
                if bit:
                    break
                m += 1
            if stop:
                break
            vals[m] |= 1 << k  # explicit 1 at m, or implicit 1 at size-1
            m += 1
        if stop:
            break
        n = m if m > n else n
    if max_bits is not None:
        # consume any unread remainder of the fixed block budget
        pos = min(total, start + max_bits)
    return vals, e, True, pos


class ZfpLikeCompressor(Compressor):
    """Fixed-rate / fixed-accuracy block transform compressor (zfp-style)."""

    name = "zfp-like"
    supported_modes = (PweMode, SizeMode)

    def compress(self, data: np.ndarray, mode: Mode) -> bytes:
        """Block-transform and bitplane-code under a rate or accuracy bound."""
        self.check_mode(mode)
        data = np.asarray(data, dtype=np.float64)
        if data.ndim < 1 or data.ndim > 3:
            raise InvalidArgumentError("zfp-like supports 1-D to 3-D arrays")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("input contains NaN or Inf")
        nd = data.ndim
        blocks, padded_shape, grid = _blockify(data)
        nb = blocks.shape[0]
        flat = blocks.reshape(nb, -1)
        maxabs = np.abs(flat).max(axis=1)
        exps = block_exponents(maxabs)
        nonzero = maxabs > 0

        scale = np.exp2((_SCALE_EXP - exps).astype(np.float64))
        ints = np.rint(flat * scale[:, None]).astype(np.int64)
        iblocks = ints.reshape(blocks.shape)
        fwd_lift(iblocks)
        perm, _ = zfp_scan_order(nd)
        coeffs = iblocks.reshape(nb, -1)[:, perm]
        u = to_negabinary(coeffs)

        if isinstance(mode, SizeMode):
            block_bits = max(_HEADER_BITS, int(round(mode.bpp * 4**nd)))
            kmins = np.zeros(nb, dtype=np.int64)
            max_bits: int | None = block_bits
            tol = 0.0
        else:
            tol = mode.tolerance
            # bitplane k of the block's ints represents magnitude
            # 2^(k + e + 2 - PRECISION); drop planes below tolerance with
            # a 2^(ndim * guard) safety factor for transform error growth.
            guard = nd * _ACCURACY_GUARD
            kmins = np.maximum(
                0,
                np.floor(np.log2(tol)).astype(np.int64) + _SCALE_EXP - exps - guard,
            )
            max_bits = None
            block_bits = 0

        payload, nbits = _encode_blocks_vectorized(u, exps, nonzero, kmins, max_bits)
        head = _MAGIC + struct.pack(
            "<BBdQ", nd, 0 if isinstance(mode, SizeMode) else 1,
            mode.bpp if isinstance(mode, SizeMode) else tol,
            nbits,
        )
        head += struct.pack(f"<{nd}Q", *data.shape)
        head += struct.pack("<I", block_bits)
        return head + payload

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decode blocks, invert the transform, crop the padding."""
        if payload[:4] != _MAGIC:
            raise StreamFormatError("not a zfp-like payload")
        with decode_guard(self.name):
            return self._decompress_body(payload)

    def _decompress_body(self, payload: bytes) -> np.ndarray:
        pos = 4
        nd, mode_code, param, nbits = struct.unpack_from("<BBdQ", payload, pos)
        pos += struct.calcsize("<BBdQ")
        if not 1 <= nd <= 3:
            raise StreamFormatError(f"zfp-like payload declares rank {nd}")
        if mode_code not in (0, 1):
            raise StreamFormatError(f"unknown zfp-like mode code {mode_code}")
        if mode_code == 1 and not (math.isfinite(param) and param > 0):
            raise StreamFormatError(f"invalid zfp-like tolerance {param!r}")
        shape = struct.unpack_from(f"<{nd}Q", payload, pos)
        pos += 8 * nd
        (block_bits,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        shape = checked_shape(shape, self.name)

        padded_shape = tuple(-(-n // 4) * 4 for n in shape)
        grid = tuple(p // 4 for p in padded_shape)
        nb = math.prod(grid)
        size = 4**nd
        if nbits > 8 * len(payload):
            raise StreamFormatError(
                f"zfp-like payload declares {nbits} bits in "
                f"{len(payload) - pos} bytes"
            )
        # Every block costs at least its nonzero flag bit, so a stream with
        # fewer bits than blocks is corrupt — reject before sizing the
        # ``(nb, size)`` workspace from the forged shape.
        if nb > max(1, int(nbits)):
            raise StreamFormatError(
                f"zfp-like payload declares {nb} blocks in {nbits} bits"
            )
        total = int(nbits)
        if total > 8 * (len(payload) - pos):
            raise StreamFormatError(
                f"declared {total} bits but buffer holds only "
                f"{8 * (len(payload) - pos)}"
            )
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=pos))[
            :total
        ].tolist()
        max_bits = block_bits if mode_code == 0 else None

        u = np.zeros((nb, size), dtype=np.uint64)
        exps = np.zeros(nb, dtype=np.int64)
        nonzero = np.zeros(nb, dtype=bool)
        if mode_code == 1:
            # fixed-accuracy: the encoder's plane cutoff is kbase - e per
            # block; everything but the exponent is block-independent, so
            # hoist it out of the loop (math.log2 == np.log2 on scalars).
            kbase = math.floor(math.log2(param)) + _SCALE_EXP - nd * _ACCURACY_GUARD
        bpos = 0
        for b in range(nb):
            if mode_code == 1:
                # peek at the flag + exponent to derive kmin, then decode
                # the block normally from its start (a list peek is free —
                # no reader rewind needed).
                if bpos >= total:
                    raise StreamFormatError("zfp stream exhausted")
                kmin = 0
                if bits[bpos]:
                    if bpos + 1 + _EXP_BITS > total:
                        raise StreamFormatError(
                            "zfp stream exhausted reading block exponent"
                        )
                    e = 0
                    for t in range(_EXP_BITS):
                        e = (e << 1) | bits[bpos + 1 + t]
                    kmin = max(0, kbase - (e - _EXP_BIAS))
                vals, e2, nz2, bpos = _decode_block_bits(
                    bits, bpos, total, size, kmin, None
                )
            else:
                vals, e2, nz2, bpos = _decode_block_bits(
                    bits, bpos, total, size, 0, max_bits
                )
            if nz2:
                u[b] = vals
                exps[b] = e2
                nonzero[b] = True

        _, inv_perm = zfp_scan_order(nd)
        coeffs = from_negabinary(u)[:, inv_perm]
        iblocks = coeffs.reshape((nb,) + (4,) * nd).copy()
        inv_lift(iblocks)
        flat = iblocks.reshape(nb, -1).astype(np.float64)
        # a corrupt stream can carry absurd exponents; the values are
        # garbage either way, so let them saturate silently
        with np.errstate(over="ignore"):
            scale = np.exp2((exps - _SCALE_EXP).astype(np.float64))
            flat *= scale[:, None]
        flat[~nonzero] = 0.0
        out = _unblockify(flat.reshape((nb,) + (4,) * nd), shape, padded_shape, grid)
        return out
