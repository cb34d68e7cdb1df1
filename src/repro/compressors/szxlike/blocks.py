"""Vectorized fixed-size block kernels of the SZx-style fast codec.

SZx's design (PAPERS.md) trades a little ratio for an order of magnitude
of speed: split the flattened field into fixed-size blocks, classify
each block with cheap reductions, and spend bits only where the data
demands them.  Every stage here runs as whole-matrix numpy passes over a
``(n_blocks, BLOCK)`` layout — there is no per-block Python loop on
either side.

Per-block classification (all thresholds derive from the PWE bound
``t``, quantization step ``q = 2t``):

* ``constant`` — block range ``<= q``: the midrange alone reconstructs
  every sample within ``t``.  Costs 8 bytes.
* ``linear`` — a least-squares ramp over the flattened index predicts
  the block; residuals are quantized to ``rint(r / q)`` and coded as
  zigzagged bit planes.  Costs 16 bytes + ``width`` planes.
* ``dense`` — no usable ramp: residuals against the midrange are
  quantized the same way.  Costs 8 bytes + ``width`` planes.
* ``raw`` — the escape hatch: quantized codes would overflow the plane
  coder, or a floating-point corner broke the ``<= t`` verification.
  The block is stored verbatim (lossless), so the PWE bound holds
  unconditionally.

Quantized residuals are *bitshuffled*: the ``width`` bit planes of a
block's 256 zigzag codes are emitted plane-major (one 32-byte row per
plane), the SZx trick that groups same-significance bits for any
downstream lossless pass.  The small side tables (2-bit block types,
5-bit plane widths) are fixed-width MSB-first fields; they and the
planes pack with ``np.packbits``, and the decoder reads the tables back
with the :mod:`repro.lossless.bitpack` kernels.

The encoder is *lane-based*: :func:`encode_lanes` concatenates many
chunks' block tables into one matrix, runs every kernel once, and slices
the per-lane streams back out.  A single-chunk encode is literally a
one-lane call, which is what makes the batched and serial paths
byte-identical by construction.
"""

from __future__ import annotations

import struct

import numpy as np

from ...errors import InvalidArgumentError, StreamFormatError
from ...lossless.bitpack import byte_windows, extract_msb

__all__ = [
    "BLOCK",
    "T_CONST",
    "T_LINEAR",
    "T_DENSE",
    "T_RAW",
    "MAX_WIDTH",
    "encode_lanes",
    "decode_lane",
]

#: Samples per block.  A multiple of 8 so every bit plane packs into
#: whole bytes (256 bits -> 32 bytes per plane).
BLOCK = 256

#: Block type codes (2-bit field in the lane's type table).
T_CONST, T_LINEAR, T_DENSE, T_RAW = 0, 1, 2, 3

#: Widest residual plane stack; quantized codes needing more bits (very
#: rough data under a very tight bound) push the block to ``raw``.
MAX_WIDTH = 30

#: Per-lane body prologue: ``u64 n_samples, u32 n_blocks``.
_LANE_HEAD = struct.Struct("<QI")

_PLANE_BYTES = BLOCK // 8

#: Parameter doubles stored per block type (raw blocks store the block).
_PARAM_COUNTS = np.array([1, 2, 1, BLOCK], dtype=np.int64)

#: ``1 << j`` for the eight bits of a byte, one per row.
_BIT_VALUES = (np.uint8(1) << np.arange(8, dtype=np.uint8))[:, None]

# Centered index ramp shared by the linear predictor on both sides.
_IC = np.arange(BLOCK, dtype=np.float64) - (BLOCK - 1) / 2.0
_VAR_IC = float(np.sum(_IC * _IC))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` of ``trunc(x)``: 0 where ``x < 1``
    (NaN included).

    Where ``x >= 1`` it is ``frexp``'s exponent, exact for any finite
    float64 and for the uint32 codes, and cheaper than a float ``log2``.
    """
    return np.where(x >= 1, np.frexp(x)[1], 0)


def _pad_lanes(
    arrays: list[np.ndarray],
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Stack every lane, flattened and padded to whole blocks with its
    last sample, into one ``(n_blocks, BLOCK)`` float64 matrix.

    Each lane is copied once, straight from its (possibly strided or
    float32) view into its rows of the matrix.
    """
    lanes = []
    for a in arrays:
        n = int(np.size(a))
        if n == 0:
            raise InvalidArgumentError("cannot encode an empty array")
        lanes.append((n, -(-n // BLOCK)))
    stacked = np.empty((sum(nb for _, nb in lanes), BLOCK), dtype=np.float64)
    flat = stacked.reshape(-1)
    pos = 0
    for a, (n, nb) in zip(arrays, lanes):
        dst = flat[pos : pos + n]
        np.copyto(dst.reshape(np.shape(a)), a)
        flat[pos + n : pos + nb * BLOCK] = dst[-1]
        pos += nb * BLOCK
    return stacked, lanes


def _field_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Small non-negative ints as rows of ``bits`` MSB-first bits; packing
    any run of rows gives those fields' bytes as
    :func:`~repro.lossless.bitpack.pack_msb` does for one fixed width."""
    return np.unpackbits(values.astype(np.uint8)[:, None], axis=1)[:, 8 - bits :]


#: Blocks one stacked pass of :func:`encode_lanes` takes at most (unless
#: a single lane is larger).  The classification streams its
#: ``(blocks, BLOCK)`` matrix ~15 times, so a batch should stay
#: L2-resident: batches of 256 blocks (two 32³ lanes, 512 KiB of
#: samples) encoded eight 32³ Miranda lanes in 5.8–8.6 ms against
#: 9.3–13.0 ms for all of them in one pass, and 64 16³ lanes in
#: 8.5–8.8 ms against 12.0–13.1 ms; 128 and 512 blocks were slower.
_BATCH_BLOCKS = 256


def encode_lanes(arrays: list[np.ndarray], tolerance: float) -> list[bytes]:
    """Encode one lane body per input array, through shared stacked kernels.

    Every lane's stream is a pure function of its own samples and the
    tolerance — the classification, quantization, and packing of lane
    ``i`` never look at lane ``j`` — so calling this with one array or
    with a batch produces byte-identical per-lane streams.  Consecutive
    lanes are stacked up to :data:`_BATCH_BLOCKS` blocks per pass.
    """
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
    out: list[bytes] = []
    batch: list[np.ndarray] = []
    blocks = 0
    for a in arrays:
        nb = -(-int(np.size(a)) // BLOCK)
        if batch and blocks + nb > _BATCH_BLOCKS:
            out += _encode_batch(batch, tolerance)
            batch, blocks = [], 0
        batch.append(a)
        blocks += nb
    if batch:
        out += _encode_batch(batch, tolerance)
    return out


def _encode_batch(arrays: list[np.ndarray], tolerance: float) -> list[bytes]:
    """:func:`encode_lanes` of one stacked batch of lanes."""
    x, lanes = _pad_lanes(arrays)
    q = 2.0 * tolerance

    # -- classification (whole-matrix reductions) -------------------------
    # Full-size temporaries live in three reused buffers: fresh
    # (n_blocks, BLOCK) arrays cost a page-faulting allocation each.
    bmin = x.min(axis=1)
    bmax = x.max(axis=1)
    mid = 0.5 * (bmin + bmax)
    mean = x.sum(axis=1) / BLOCK  # what x.mean(axis=1) computes
    # Products by the ramp run through einsum, whose stride-0 loops beat
    # a broadcast multiply (the outer product most).  Each entry is
    # one rounded product plus +0.0, which only turns -0.0 into +0.0.  No
    # zero's sign reaches a byte: the slope sum is -0.0 only for an
    # all-zero block, which codes constant, and residuals are only ever
    # divided, rounded to integer codes or taken in absolute value.
    res_lin = np.einsum("ij,j->ij", x, _IC)
    slope = res_lin.sum(axis=1) / _VAR_IC

    tmp = np.empty_like(x)
    np.subtract(x, mean[:, None], out=res_lin)
    np.einsum("i,j->ij", slope, _IC, out=tmp)
    res_lin -= tmp
    res_sel = np.subtract(x, mid[:, None])
    # One abs pass and one reduction beat a max and a min reduction.
    rmax_lin = np.abs(res_lin, out=tmp).max(axis=1)
    # Rounded subtraction of one value is monotone, so the extremes of
    # ``x - mid`` are the row extremes shifted: no pass over res_sel.
    rmax_den = np.maximum(bmax - mid, mid - bmin)

    # Cost model in bytes: params + one 32-byte row per plane.  Width is
    # estimated from the zigzag bound 2*|res|max/q (within one plane of
    # the quantized value); exact widths are recomputed below once the
    # type is fixed and only the winning branch is ever quantized.
    # Linear costs 16 + 32 w and dense 8 + 32 w bytes, so linear wins
    # exactly when its width estimate is the smaller one.
    with np.errstate(invalid="ignore", over="ignore"):
        w_lin_est, w_den_est = _bit_length(
            np.minimum(2.0 * np.stack([rmax_lin, rmax_den]) / q, 2.0**62)
        )
    lin = w_lin_est < w_den_est
    types = np.where(lin, T_LINEAR, T_DENSE)
    # res_sel holds the dense residual; linear blocks take theirs.
    res_sel[lin] = res_lin[lin]
    codes = res_lin
    with np.errstate(invalid="ignore"):
        np.divide(res_sel, q, out=codes)
        np.rint(codes, out=codes)
        # ``rint(r / q)`` is monotone and odd in ``r``: the largest
        # code magnitude is the largest residual magnitude, divided and
        # rounded.
        amax = np.rint(np.where(lin, rmax_lin, rmax_den) / q)
    # Overflow guard: zigzag codes must fit MAX_WIDTH bit planes (the
    # negated test also catches NaN and infinity).
    types[~(amax <= 2.0 ** (MAX_WIDTH - 1) - 1)] = T_RAW
    types[(bmax - bmin) <= q] = T_CONST

    # -- PWE verification (demote floating-point corners to raw) ----------
    coded = (types == T_LINEAR) | (types == T_DENSE)
    if coded.any():
        np.multiply(codes, q, out=tmp)
        np.subtract(res_sel, tmp, out=tmp)
        np.abs(tmp, out=tmp)
        # Demotions are rare: one flat test skips the per-row maxima
        # unless some sample errs past the bound.
        if (tmp > tolerance).any():
            types[coded & (tmp.max(axis=1) > tolerance)] = T_RAW
            coded = (types == T_LINEAR) | (types == T_DENSE)
    cmask = types == T_CONST
    if cmask.any():
        types[cmask & (rmax_den > tolerance)] = T_RAW

    # -- exact widths and zigzag codes for coded blocks -------------------
    # Every row is cast (const and raw rows may hold NaN or huge codes)
    # and then zeroed, which beats gathering and scattering the coded ones.
    with np.errstate(invalid="ignore"):
        c = codes.astype(np.int32)
    u = np.left_shift(c, 1)
    u ^= np.right_shift(c, 31, out=c)
    u = u.view(np.uint32)
    u[~coded] = 0
    widths = _bit_length(u.max(axis=1))

    # -- parameter table (scatter by per-block offsets) -------------------
    counts = _PARAM_COUNTS[types]
    poff = np.concatenate(([0], np.cumsum(counts)))
    params = np.empty(int(poff[-1]), dtype=np.float64)
    # First slot: the midrange (const, dense) or the mean (linear); raw
    # blocks overwrite theirs below.
    lmask = types == T_LINEAR
    params[poff[:-1]] = np.where(lmask, mean, mid)
    params[poff[:-1][lmask] + 1] = slope[lmask]
    rmask = types == T_RAW
    if rmask.any():
        idx = poff[:-1][rmask, None] + np.arange(BLOCK)
        params[idx.ravel()] = x[rmask].ravel()

    # -- bitshuffled planes: one 32-byte row per (block, plane) -----------
    # Every bit level of every block packs in one pass: each byte of the
    # codes is masked by its eight bit values at once, level-major, and
    # the rows under each block's width are then taken in stream order.
    plane_off = np.concatenate(([0], np.cumsum(widths)))
    depth = int(widths.max())
    if depth:
        nb_total = len(u)
        # The cast keeps the low byte, so the first one needs no shift.
        masked = [
            (u >> np.uint32(shift) if shift else u).astype(np.uint8).reshape(1, -1)
            & _BIT_VALUES[: depth - shift]
            for shift in range(0, depth, 8)
        ]
        bits = np.concatenate(masked) if len(masked) > 1 else masked[0]
        levels = np.packbits(bits).reshape(depth * nb_total, _PLANE_BYTES)
        keep = np.arange(depth) < widths[:, None]
        rows = (np.arange(depth) * nb_total + np.arange(nb_total)[:, None])[keep]
        planes = levels.take(rows, axis=0)
    else:
        planes = np.zeros((0, _PLANE_BYTES), dtype=np.uint8)

    # -- slice the shared tables back into per-lane streams ---------------
    type_bits = _field_bits(types, 2)
    width_bits = _field_bits(widths, 5)
    out = []
    start = 0
    for n, nb in lanes:
        end = start + nb
        body = bytearray()
        body += _LANE_HEAD.pack(n, nb)
        body += np.packbits(type_bits[start:end]).tobytes()
        body += np.packbits(width_bits[start:end][coded[start:end]]).tobytes()
        body += params[poff[start] : poff[end]].tobytes()
        body += planes[plane_off[start] : plane_off[end]].tobytes()
        out.append(bytes(body))
        start = end
    return out


def decode_lane(body: bytes, tolerance: float, shape: tuple[int, ...]) -> np.ndarray:
    """Decode one lane body back to its float64 samples in ``shape``
    (which must hold the lane's sample count).

    The body is untrusted: every section length is validated against the
    declared block count before any allocation or slice, and malformed
    framing raises :class:`~repro.errors.StreamFormatError`.  A lane of
    whole blocks decodes straight into an array that owns its memory;
    otherwise the result is a view of the block-padded buffer.
    """
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
    if len(body) < _LANE_HEAD.size:
        raise StreamFormatError("szx lane truncated before its prologue")
    n, nb = _LANE_HEAD.unpack_from(body, 0)
    if n < 1 or nb != -(-n // BLOCK):
        raise StreamFormatError(
            f"szx lane declares {nb} blocks for {n} samples"
        )
    q = 2.0 * tolerance
    pos = _LANE_HEAD.size

    type_nbytes = (2 * nb + 7) >> 3
    if len(body) < pos + type_nbytes:
        raise StreamFormatError("szx lane truncated in its type table")
    tw = byte_windows(body[pos : pos + type_nbytes])
    types = extract_msb(
        tw, np.arange(nb, dtype=np.int64) * 2, 2
    ).astype(np.int64)
    pos += type_nbytes

    coded = (types == T_LINEAR) | (types == T_DENSE)
    nw = int(coded.sum())
    width_nbytes = (5 * nw + 7) >> 3
    if len(body) < pos + width_nbytes:
        raise StreamFormatError("szx lane truncated in its width table")
    ww = byte_windows(body[pos : pos + width_nbytes])
    w_coded = extract_msb(
        ww, np.arange(nw, dtype=np.int64) * 5, 5
    ).astype(np.int64)
    pos += width_nbytes
    if nw and int(w_coded.max()) > MAX_WIDTH:
        raise StreamFormatError("szx lane declares an over-wide plane stack")
    widths = np.zeros(nb, dtype=np.int64)
    widths[coded] = w_coded

    counts = _PARAM_COUNTS[types]
    poff = np.concatenate(([0], np.cumsum(counts)))
    param_nbytes = int(poff[-1]) * 8
    if len(body) < pos + param_nbytes:
        raise StreamFormatError("szx lane truncated in its parameter table")
    params = np.frombuffer(body, dtype="<f8", count=int(poff[-1]), offset=pos)
    pos += param_nbytes

    plane_off = np.concatenate(([0], np.cumsum(widths)))
    total_planes = int(plane_off[-1])
    if len(body) != pos + total_planes * _PLANE_BYTES:
        raise StreamFormatError(
            f"szx lane has {len(body) - pos} plane bytes, expected "
            f"{total_planes * _PLANE_BYTES}"
        )

    if int(np.prod(shape)) != n:
        raise StreamFormatError(f"szx lane decodes {n} samples for shape {shape}")
    if n == nb * BLOCK:
        out = np.empty(shape, dtype=np.float64)
        recon = out.reshape(nb, BLOCK)
    else:
        recon = np.empty((nb, BLOCK), dtype=np.float64)
        out = recon.reshape(-1)[:n].reshape(shape)
    cmask = types == T_CONST
    dmask = types == T_DENSE
    offmask = cmask | dmask
    if np.any(offmask):
        recon[offmask] = params[poff[:-1][offmask], None]
    lmask = types == T_LINEAR
    if np.any(lmask):
        recon[lmask] = (
            params[poff[:-1][lmask], None]
            + params[poff[:-1][lmask] + 1, None] * _IC
        )
    rmask = types == T_RAW
    if np.any(rmask):
        idx = poff[:-1][rmask, None] + np.arange(BLOCK)
        recon[rmask] = params[idx.ravel()].reshape(-1, BLOCK)

    if total_planes:
        raw_planes = np.frombuffer(
            body, dtype=np.uint8, count=total_planes * _PLANE_BYTES, offset=pos
        ).reshape(total_planes, _PLANE_BYTES)
        bits = np.unpackbits(raw_planes, axis=1).astype(np.uint32)
        k = (
            np.arange(total_planes) - np.repeat(plane_off[:-1], widths)
        ).astype(np.uint32)
        contrib = bits << k[:, None]
        planed = widths > 0
        starts = plane_off[:-1][planed]
        u = np.add.reduceat(contrib, starts, axis=0)
        codes = (u >> np.uint32(1)).astype(np.int32) ^ -(
            (u & np.uint32(1)).astype(np.int32)
        )
        recon[planed] += codes.astype(np.float64) * q

    return out
