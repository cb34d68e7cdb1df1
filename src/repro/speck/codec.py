"""Batched SPECK encoder / decoder.

This implements the improved SPECK of the paper (Sec. III-B/III-C):
bitplane-by-bitplane set-partitioning coding of quantized wavelet
coefficients, generalized to arbitrary quantization steps ``q`` by running
the integer machinery on pre-scaled magnitudes ``m = floor(|c| / q)``.

Faithfulness and the one deliberate deviation
---------------------------------------------
Canonical SPECK interleaves significance, sign, and refinement bits one at
a time while walking the recursion.  A pure-Python per-bit walk is three
orders of magnitude too slow, so this implementation processes each batch
of same-depth sets *together*: one vectorized significance gather emits
(or consumes) the whole batch's bits consecutively, then sign bits for the
batch's newly significant pixels, then recursion into the concatenated
children of the batch's significant sets.  Both sides replay the identical
deterministic traversal, so the stream stays prefix-decodable; truncating
it anywhere still yields a valid (less accurate) reconstruction — the
*embedded* property the paper's future-work section highlights.  Rate
behaviour is that of SPECK; only the intra-bitplane bit order differs.

Stream layout: ``[nmax+1 as 8 bits][pass for n=nmax][pass for nmax-1]...``
where each pass is a sorting pass followed by a refinement pass
(Listings 1–3 structure, shared with the outlier coder).  Magnitudes are
uint64, so the header never exceeds 64 planes.

Decoding
--------
:func:`decode_lsp` is the one decoder, for coefficient and outlier
streams alike.  It unpacks the stream once into a bool array and walks
it with an integer cursor.  Per plane, the sorting pass runs each start
depth's chain (test the batch, keep the insignificant sets for the next
plane, descend into the children of the significant ones) in a plain
loop down to single pixels.  Newly significant pixels are appended to
preallocated arrays in LSP (discovery) order — position, integer
magnitude, sign — so the refinement pass is one contiguous update of
the first ``k`` magnitudes.  No volume-sized array is written until
the caller scatters the result:
:func:`repro.speck.decode_coefficients` applies the step and sign to
the significant pixels and scatters once, and the outlier coder adds
them at their positions as they come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..bitstream import BitWriter
from ..errors import InvalidArgumentError, StreamFormatError
from .geometry import Geometry, MaxPyramid

__all__ = ["SpeckEncoder", "SpeckStats", "encode", "decode", "decode_lsp", "scatter"]


def _shared_geometry(shape: tuple[int, ...]) -> Geometry:
    """Geometry for ``shape`` from the plan cache (shared across chunks).

    Imported lazily to keep the package import graph acyclic.
    """
    from ..core.plans import speck_geometry

    return speck_geometry(shape)


@dataclass
class SpeckStats:
    """Per-bitplane bit accounting (used by the evaluation benches)."""

    planes: list[int] = field(default_factory=list)
    sorting_bits: list[int] = field(default_factory=list)
    sign_bits: list[int] = field(default_factory=list)
    refinement_bits: list[int] = field(default_factory=list)

    def total_bits(self) -> int:
        """All pass bits across every plane (excludes the 8-bit header)."""
        return sum(self.sorting_bits) + sum(self.sign_bits) + sum(self.refinement_bits)


class _Lists:
    """Encoder LIS (per-depth) and LSP state."""

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        d = geometry.max_depth
        # LIS: per-depth list of index-array chunks (consolidated lazily).
        self.lis: list[list[np.ndarray]] = [[] for _ in range(d + 1)]
        self.lis[0].append(np.zeros(1, dtype=np.int64))
        # LSP: pixels found significant, in discovery order.
        self.lsp_idx: list[np.ndarray] = []
        self.n_lsp_old = 0  # entries that predate the current pass

    def lis_batch(self, depth: int) -> np.ndarray:
        chunks = self.lis[depth]
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        batch = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return batch

    def lsp_count(self) -> int:
        return sum(c.size for c in self.lsp_idx)


class SpeckEncoder:
    """Encode integer magnitudes + signs into a SPECK bitstream."""

    def __init__(self, mags: np.ndarray, negative: np.ndarray) -> None:
        mags = np.asarray(mags, dtype=np.uint64)
        self.geometry = _shared_geometry(mags.shape)
        self.pyramid = MaxPyramid(self.geometry, mags)
        padded = np.zeros(self.geometry.padded_shape, dtype=np.uint64)
        padded[tuple(slice(0, n) for n in mags.shape)] = mags
        self._mags_flat = padded.reshape(-1)
        neg = np.zeros(self.geometry.padded_shape, dtype=bool)
        neg[tuple(slice(0, n) for n in mags.shape)] = np.asarray(negative, dtype=bool)
        self._neg_flat = neg.reshape(-1)
        self.stats = SpeckStats()

    def encode(self, max_bits: int | None = None) -> tuple[bytes, int]:
        """Produce the bitstream; returns ``(packed_bytes, nbits)``.

        ``max_bits`` enables size-bounded termination: encoding stops once
        the budget is reached and the stream is truncated to exactly the
        budget (any prefix of a SPECK stream is decodable).
        """
        writer = BitWriter()
        gmax = self.pyramid.global_max
        nmax = gmax.bit_length() - 1 if gmax > 0 else -1
        writer.write_uint(nmax + 1, 8)
        lists = _Lists(self.geometry)
        budget_hit = False
        for n in range(nmax, -1, -1):
            s0 = writer.nbits
            self._sorting_pass(writer, lists, n)
            s1 = writer.nbits
            self._refinement_pass(writer, lists, n)
            s2 = writer.nbits
            self.stats.planes.append(n)
            self.stats.refinement_bits.append(s2 - s1)
            if max_bits is not None and writer.nbits >= max_bits:
                budget_hit = True
                break
        nbits = writer.nbits if not budget_hit else min(writer.nbits, max_bits)
        return writer.getvalue(max_bits=max_bits), nbits

    # -- passes ---------------------------------------------------------

    def _sorting_pass(self, writer: BitWriter, lists: _Lists, n: int) -> None:
        threshold = np.uint64(1) << np.uint64(n)
        geometry = lists.geometry
        new_lis: list[list[np.ndarray]] = [[] for _ in range(geometry.max_depth + 1)]
        sort_bits = 0
        sign_bits = 0
        new_lsp: list[np.ndarray] = []

        def process(depth: int, idx: np.ndarray) -> None:
            nonlocal sort_bits, sign_bits
            if idx.size == 0:
                return
            sig = self.pyramid.block_max(depth, idx) >= threshold
            writer.write_bits(sig)
            sort_bits += idx.size
            insig = idx[~sig]
            if insig.size:
                new_lis[depth].append(insig)
            sig_idx = idx[sig]
            if sig_idx.size == 0:
                return
            if depth == geometry.max_depth:
                writer.write_bits(self._neg_flat[sig_idx])
                sign_bits += sig_idx.size
                new_lsp.append(sig_idx)
            else:
                process(depth + 1, geometry.children(depth, sig_idx))

        # Smallest sets first (paper: "in increasing order of their sizes").
        for depth in range(geometry.max_depth, -1, -1):
            process(depth, lists.lis_batch(depth))

        lists.lis = new_lis
        lists.n_lsp_old = lists.lsp_count()
        lists.lsp_idx.extend(new_lsp)
        self.stats.sorting_bits.append(sort_bits)
        self.stats.sign_bits.append(sign_bits)

    def _refinement_pass(self, writer: BitWriter, lists: _Lists, n: int) -> None:
        if lists.lsp_idx:
            # Consolidate so repeated passes stay cheap.
            lists.lsp_idx = [np.concatenate(lists.lsp_idx)]
        if lists.n_lsp_old == 0:
            return
        old = lists.lsp_idx[0][: lists.n_lsp_old]
        bit = (self._mags_flat[old] & (np.uint64(1) << np.uint64(n))) != 0
        writer.write_bits(bit)


def decode_lsp(
    data: bytes, shape: tuple[int, ...], nbits: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a SPECK stream to its significant pixels in discovery order.

    Returns ``(positions, rec, negative)``: flat indices into the padded
    grid of ``shape``, reconstructed scaled magnitudes (float64, already
    centered in their uncertainty intervals, i.e. multiply by ``q`` to
    obtain coefficient values) and signs.  Every other pixel decodes to
    zero.  Positions are unique; a forged stream may mark padding cells
    significant, which callers drop.

    A truncated stream (embedded property) decodes whatever its bits
    determine; missing bits leave the remaining pixels untouched.
    """
    geometry = _shared_geometry(shape)
    buf = np.frombuffer(data, dtype=np.uint8)
    if nbits is None:
        nbits = 8 * buf.size
    elif nbits > 8 * buf.size:
        raise StreamFormatError(
            f"declared {nbits} bits but buffer holds only {8 * buf.size}"
        )
    if nbits < 8:
        raise InvalidArgumentError("SPECK stream shorter than its header")
    nplanes = int(buf[0])
    if nplanes > 64:
        # Magnitudes are uint64: no encoder writes a plane above 63.
        raise StreamFormatError(f"SPECK header declares {nplanes} bitplanes (max 64)")
    bits = np.unpackbits(buf, count=nbits).view(np.bool_)
    cur = 8

    # LSP state in discovery order: the first ``k`` slots are in use.
    npix = math.prod(geometry.padded_shape) if nplanes else 0
    pos = np.empty(npix, dtype=np.int64)
    mag = np.empty(npix, dtype=np.uint64)
    neg = np.empty(npix, dtype=np.bool_)
    k = 0

    max_depth = geometry.max_depth
    tables = [geometry.child_table(d) for d in range(max_depth)]
    lis: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
    lis[0].append(np.zeros(1, dtype=np.int64))
    exhausted = False
    n = k_old = refined = 0
    for n in range(nplanes - 1, -1, -1):
        k_old, refined = k, 0
        new_lis: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
        # Sorting pass, smallest sets first: each start depth's
        # significant sets split and are retested down to single pixels.
        for start in range(max_depth, -1, -1):
            sets = lis[start]
            if not sets:
                continue
            idx = sets[0] if len(sets) == 1 else np.concatenate(sets)
            depth = start
            while True:
                sig = bits[cur : cur + idx.size]
                cur += sig.size
                if sig.size < idx.size:
                    exhausted = True
                    break
                nsig = np.count_nonzero(sig)
                if nsig == 0:
                    new_lis[depth].append(idx)
                    break
                if nsig < idx.size:
                    new_lis[depth].append(idx.compress(~sig))
                    idx = idx.compress(sig)
                if depth == max_depth:
                    signs = bits[cur : cur + idx.size]
                    cur += signs.size
                    end = k + signs.size
                    pos[k:end] = idx[: signs.size]
                    neg[k:end] = signs
                    mag[k:end] = 1 << n
                    k = end
                    exhausted = signs.size < idx.size
                    break
                idx = tables[depth].take(idx, axis=0).ravel()
                depth += 1
            if exhausted:
                break
        if exhausted:
            break
        lis = new_lis
        # Refinement pass over the pixels that predate this plane.
        refine = bits[cur : cur + k_old]
        cur += refine.size
        refined = refine.size
        mag[:refined] |= np.left_shift(refine, n, dtype=np.uint64)
        if refined < k_old:
            break

    # Mid-riser reconstruction: add half of the last plane each pixel
    # was coded at.  That is plane ``n`` (where decoding stopped) for the
    # pixels refined or found there, and ``n + 1`` for the pixels a
    # truncated refinement pass did not reach.
    half = 0.5 * 2.0**n
    rec = mag[:k].astype(np.float64)
    rec[:refined] += half
    rec[refined:k_old] += 2 * half
    rec[k_old:] += half
    return pos[:k], rec, neg[:k]


def scatter(
    shape: tuple[int, ...], positions: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Place :func:`decode_lsp`-order values into a zeroed ``shape`` array."""
    geometry = _shared_geometry(shape)
    out = np.zeros(math.prod(geometry.padded_shape), dtype=values.dtype)
    out[positions] = values
    out = out.reshape(geometry.padded_shape)
    if geometry.padded_shape != geometry.shape:
        out = np.ascontiguousarray(out[tuple(slice(0, n) for n in geometry.shape)])
    return out


def encode(
    mags: np.ndarray,
    negative: np.ndarray,
    max_bits: int | None = None,
) -> tuple[bytes, int, SpeckStats]:
    """One-shot SPECK encode; see :class:`SpeckEncoder`."""
    enc = SpeckEncoder(mags, negative)
    data, nbits = enc.encode(max_bits=max_bits)
    return data, nbits, enc.stats


def decode(
    data: bytes, shape: tuple[int, ...], nbits: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode to ``(approx_mags, negative)`` arrays of ``shape``; see
    :func:`decode_lsp`."""
    positions, rec, neg = decode_lsp(data, shape, nbits=nbits)
    return scatter(shape, positions, rec), scatter(shape, positions, neg)
