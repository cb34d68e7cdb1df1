"""SPECK encoder and decoder: one walk, run from either side.

This implements the improved SPECK of the paper (Sec. III-B/III-C):
bitplane-by-bitplane set-partitioning coding of quantized wavelet
coefficients, generalized to arbitrary quantization steps ``q`` by running
the integer machinery on pre-scaled magnitudes ``m = floor(|c| / q)``.
:func:`encode` is the one encoder and :func:`decode_lsp` the one decoder,
for coefficient and outlier streams alike; stacked callers run them lane
by lane.

Faithfulness and the one deliberate deviation
---------------------------------------------
Canonical SPECK interleaves significance, sign, and refinement bits one at
a time while walking the recursion.  A pure-Python per-bit walk is three
orders of magnitude too slow, so this implementation processes each batch
of same-depth sets *together*: one vectorized significance gather emits
(or consumes) the whole batch's bits consecutively, then sign bits for the
batch's newly significant pixels, then descent into the concatenated
children of the batch's significant sets.  Both sides replay the identical
deterministic traversal, so the stream stays prefix-decodable; truncating
it anywhere still yields a valid (less accurate) reconstruction — the
*embedded* property the paper's future-work section highlights.  Rate
behaviour is that of SPECK; only the intra-bitplane bit order differs.

Stream layout: ``[nmax+1 as 8 bits][pass for n=nmax][pass for nmax-1]...``
where each pass is a sorting pass followed by a refinement pass
(Listings 1–3 structure, shared with the outlier coder).  Magnitudes are
uint64, so the header never exceeds 64 planes.

The walk
--------
Per plane, the sorting pass runs each start depth's chain, smallest
sets first, in a plain loop: test the batch, keep its insignificant sets
in the next plane's LIS, split the significant ones through
``Geometry.child_table`` and retest the children, down to single pixels.
Newly significant pixels are appended to a preallocated LSP in discovery
order, so the refinement pass covers the first ``k_old`` entries (the
pixels that predate the plane) in one step.

The encoder answers each test with a gather from the max-magnitude
pyramid, collects the emitted bit arrays in a list and packs them once
at the end; a bit budget stops it after the first plane that reaches
the budget.  The decoder unpacks the stream once into a bool array and
reads the same tests back with an integer cursor.  Both sides keep
the LIS the same way.  A step does not compact its batch: it appends
the batch and its significance bits (emitted or read) to its depth's
pending list and descends into the significant sets, taken by their
``nonzero`` positions.  When the next plane reaches a depth, it
concatenates the pending batches and drops their significant sets
with one ``compress``, which keeps the LIS order and so the bits.  The
walk costs time per step, not per set, so one compaction per depth
and plane instead of one per step is what this saves.  When nothing
pads (32³ chunks, 32768-long outlier lanes), the encoder reads the
caller's magnitudes and signs in place; it never writes them.  The
decoder's LSP holds position, integer magnitude and sign, so
refinement is one contiguous update of the first ``k_old``
magnitudes.  No volume-sized array is written until the caller
scatters the result:
:func:`repro.speck.decode_coefficients` applies the step and sign to
the significant pixels and scatters once, and the outlier coder adds
them at their positions as they come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from .geometry import Geometry, MaxPyramid

__all__ = ["SpeckStats", "encode", "decode", "decode_lsp", "scatter"]


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


def encode(
    mags: np.ndarray,
    negative: np.ndarray,
    max_bits: int | None = None,
) -> tuple[bytes, int, SpeckStats]:
    """Encode integer magnitudes and signs; returns ``(stream, nbits, stats)``.

    ``max_bits`` enables size-bounded termination: encoding stops after
    the first plane that reaches the budget and the stream is cut to
    exactly ``max_bits`` bits (any prefix of a SPECK stream decodes).
    The budget must hold the 8-bit header.
    """
    if max_bits is not None and max_bits < 8:
        raise InvalidArgumentError(
            f"max_bits={max_bits} cannot hold the 8-bit SPECK header"
        )
    mags = np.asarray(mags, dtype=np.uint64)
    geometry = _shared_geometry(mags.shape)
    pyramid = MaxPyramid(geometry, mags)
    levels = pyramid.levels
    max_depth = geometry.max_depth
    if geometry.padded_shape == geometry.shape:
        neg = np.asarray(negative, dtype=np.bool_).reshape(-1)
    else:
        neg = np.zeros(geometry.padded_shape, dtype=np.bool_)
        neg[tuple(slice(0, n) for n in mags.shape)] = negative
        neg = neg.reshape(-1)

    nplanes = pyramid.global_max.bit_length()
    parts = [np.unpackbits(np.array([nplanes], dtype=np.uint8)).view(np.bool_)]
    total = 8
    stats = SpeckStats()

    # LSP positions in discovery order: the first ``k`` slots are in use.
    pos = np.empty(math.prod(geometry.padded_shape) if nplanes else 0, dtype=np.int64)
    k = 0

    tables = [geometry.child_table(d) for d in range(max_depth)]
    # The LIS is kept as :func:`decode_lsp` keeps it: per depth, the
    # batches its steps tested, their significance bits and how many of
    # them were significant.
    sets: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
    sigs: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
    drops = [0] * (max_depth + 1)
    sets[0].append(np.zeros(1, dtype=np.int64))
    for n in range(nplanes - 1, -1, -1):
        threshold = np.uint64(1 << n)
        k_old = k
        sort_bits = 0
        new_sets: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
        new_sigs: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
        new_drops = [0] * (max_depth + 1)
        # Sorting pass, smallest sets first: each start depth's
        # significant sets split and are retested down to single pixels.
        for start in range(max_depth, -1, -1):
            batches = sets[start]
            if not batches:
                continue
            idx = batches[0] if len(batches) == 1 else np.concatenate(batches)
            if drops[start]:
                tested = sigs[start]
                sig = tested[0] if len(tested) == 1 else np.concatenate(tested)
                idx = idx.compress(~sig)
            depth = start
            while True:
                sig = levels[depth].take(idx) >= threshold
                parts.append(sig)
                sort_bits += idx.size
                hits = sig.nonzero()[0]
                if hits.size < idx.size:
                    new_sets[depth].append(idx)
                    new_sigs[depth].append(sig)
                    new_drops[depth] += hits.size
                    if hits.size == 0:
                        break
                    idx = idx.take(hits)
                if depth == max_depth:
                    parts.append(neg.take(idx))
                    pos[k : k + idx.size] = idx
                    k += idx.size
                    break
                idx = tables[depth].take(idx, axis=0).ravel()
                depth += 1
        sets, sigs, drops = new_sets, new_sigs, new_drops
        # Refinement pass over the pixels that predate this plane.
        parts.append((levels[max_depth].take(pos[:k_old]) & threshold) != 0)
        stats.planes.append(n)
        stats.sorting_bits.append(sort_bits)
        stats.sign_bits.append(k - k_old)
        stats.refinement_bits.append(k_old)
        total += sort_bits + (k - k_old) + k_old
        if max_bits is not None and total >= max_bits:
            break

    nbits = total if max_bits is None else min(total, max_bits)
    bits = np.concatenate(parts)[:nbits]
    return np.packbits(bits).tobytes(), nbits, stats


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
    # Each depth's LIS is kept as the batches its steps tested, their
    # significance bits and how many of them were significant; the next
    # plane drops the significant sets with one compress per depth.
    sets: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
    sigs: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
    drops = [0] * (max_depth + 1)
    sets[0].append(np.zeros(1, dtype=np.int64))
    exhausted = False
    n = k_old = refined = 0
    for n in range(nplanes - 1, -1, -1):
        k_old, refined = k, 0
        new_sets: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
        new_sigs: list[list[np.ndarray]] = [[] for _ in range(max_depth + 1)]
        new_drops = [0] * (max_depth + 1)
        # Sorting pass, smallest sets first: each start depth's
        # significant sets split and are retested down to single pixels.
        for start in range(max_depth, -1, -1):
            batches = sets[start]
            if not batches:
                continue
            idx = batches[0] if len(batches) == 1 else np.concatenate(batches)
            if drops[start]:
                tested = sigs[start]
                sig = tested[0] if len(tested) == 1 else np.concatenate(tested)
                idx = idx.compress(~sig)
            depth = start
            while True:
                sig = bits[cur : cur + idx.size]
                cur += sig.size
                if sig.size < idx.size:
                    exhausted = True
                    break
                hits = sig.nonzero()[0]
                if hits.size < idx.size:
                    new_sets[depth].append(idx)
                    new_sigs[depth].append(sig)
                    new_drops[depth] += hits.size
                    if hits.size == 0:
                        break
                    idx = idx.take(hits)
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
        sets, sigs, drops = new_sets, new_sigs, new_drops
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


def decode(
    data: bytes, shape: tuple[int, ...], nbits: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode to ``(approx_mags, negative)`` arrays of ``shape``; see
    :func:`decode_lsp`."""
    positions, rec, neg = decode_lsp(data, shape, nbits=nbits)
    return scatter(shape, positions, rec), scatter(shape, positions, neg)
