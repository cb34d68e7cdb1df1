"""Canonical Huffman coding over byte (or small-integer) alphabets.

This is the entropy-coding substrate used in three places:

* the final lossless pass over concatenated SPERR streams (the paper uses
  ZSTD there; see DESIGN.md for the substitution),
* the SZ-like baseline's quantization-bin codec, and
* the QCAT ``compressQuantBins`` equivalent used by the Fig. 11 outlier
  coding comparison.

Both directions are table-driven and vectorized (docs/lossless.md has the
kernel design).  Encoding gathers each symbol's (code, length) pair and
batch-packs the fields with :func:`repro.lossless.bitpack.pack_msb`.
Decoding looks the next-``max_len``-bits window at every bit offset up in
a flat ``2**max_len`` table.  Symbol boundaries are data-dependent, so
the chain of code-word starts still needs a sequential walk; pointer
jumping over one block of bit offsets at a time shortens it to one
Python step per ``2**_JUMP_DEPTH`` symbols, and vectorized gathers fill
in the starts it skips.  Every code book is canonical, so codes and the
decode table are computed from the length table alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from . import bitpack

__all__ = [
    "HuffmanCode",
    "build_code",
    "encode",
    "decode",
    "decode_segmented",
    "segment_bits",
    "encoded_nbits",
    "SEGMENT_SYMBOLS",
]

_MAX_CODE_LEN = 24  # encoder clamps to this; the decode window table is 2**max_len entries

#: Symbols per segment in the indexed stream layout (see
#: ``backend._huffman_pack``).  512 symbols of at most ``_MAX_CODE_LEN``
#: bits keep every segment's bit length within a ``uint16`` index entry.
SEGMENT_SYMBOLS = 512

#: Doublings of the next-code-word table in :func:`decode`: its chain
#: walk takes one Python step per ``2**_JUMP_DEPTH`` symbols, and each
#: doubling adds one gather over every bit offset.  Chosen by
#: measurement over the 64 sections of a 128³ SPERR compress
#: (EXPERIMENTS.md, "Huffman chain walk"): depths 1 and 2 were slower,
#: 3 and 4 tied within the spread, and 3 needs one row less.
_JUMP_DEPTH = 3

#: Bit offsets per block of :func:`decode`'s jump tables.  One block's
#: ``_JUMP_DEPTH + 1`` ``int64`` rows take 2 MiB, so the gathers stay in
#: cache and a large bin stream (3.4 M bits in one 64³ mgard-like
#: chunk) no longer needs 32 bytes per bit; chosen by measurement
#: (EXPERIMENTS.md, "Huffman chain walk").  A block starts at the byte
#: holding the next code word, so it must span at least 8 bits.
_JUMP_BLOCK = 1 << 16


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code book.

    Attributes
    ----------
    lengths:
        ``uint8`` array of code lengths indexed by symbol; zero for unused
        symbols.
    codes:
        ``uint32`` array of canonical code values (MSB-first) per symbol.
    """

    lengths: np.ndarray
    codes: np.ndarray

    @property
    def nsymbols(self) -> int:
        return int(self.lengths.size)


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Compute Huffman code lengths from symbol frequencies.

    Uses the two-queue construction (the same merges as the standard
    heap one, see below); lengths are then limited to
    :data:`_MAX_CODE_LEN` by the simple "push down" adjustment, preserving
    Kraft validity.
    """
    n = freqs.size
    lengths = np.zeros(n, dtype=np.uint8)
    used = np.flatnonzero(freqs > 0)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths

    # Two-queue merge: leaves sorted by (freq, symbol); merged nodes come
    # out in creation order with non-decreasing frequency, so a FIFO holds
    # them sorted.  A heap of (freq, tiebreak) nodes — leaf tiebreaks being
    # symbols in [0, n), merged tiebreaks counting up from n — pops the
    # same sequence: a leaf beats a merged node of equal frequency and
    # equal-frequency merged nodes pop in creation order.  Tracking parent
    # pointers instead of merging leaf lists keeps each step O(1).
    order = used[np.argsort(freqs[used], kind="stable")]
    leaf_freqs = freqs[order].tolist()
    n_leaves = len(leaf_freqs)
    node_freqs: list[int] = []
    parent = [0] * (2 * n_leaves - 1)
    li = 0
    mi = 0
    for k in range(n_leaves - 1):
        # ``k`` merged nodes exist so far; take the two smallest fronts.
        if mi >= k or (li < n_leaves and leaf_freqs[li] <= node_freqs[mi]):
            fa = leaf_freqs[li]
            a = li
            li += 1
        else:
            fa = node_freqs[mi]
            a = n_leaves + mi
            mi += 1
        if mi >= k or (li < n_leaves and leaf_freqs[li] <= node_freqs[mi]):
            fb = leaf_freqs[li]
            b = li
            li += 1
        else:
            fb = node_freqs[mi]
            b = n_leaves + mi
            mi += 1
        parent[a] = n_leaves + k
        parent[b] = n_leaves + k
        node_freqs.append(fa + fb)

    # Depth of each node = 1 + depth of its parent; parents always have
    # higher indices, so one reverse sweep resolves every leaf.
    depth = [0] * (2 * n_leaves - 1)
    root = 2 * n_leaves - 2
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[order] = np.asarray(depth[:n_leaves], dtype=np.int64).astype(np.uint8)

    if lengths.max() > _MAX_CODE_LEN:
        lengths = _limit_lengths(lengths, _MAX_CODE_LEN)
    return lengths


def _limit_lengths(lengths: np.ndarray, limit: int) -> np.ndarray:
    """Clamp code lengths to ``limit`` while keeping the Kraft sum <= 1."""
    lengths = lengths.copy()
    lengths[lengths > limit] = limit
    # Repair Kraft inequality: increase lengths of the shortest over-budget
    # codes until sum(2^-len) <= 1.
    used = lengths > 0
    kraft = np.sum(2.0 ** -lengths[used].astype(np.float64))
    while kraft > 1.0 + 1e-12:
        # Lengthen the currently shortest code below the limit.
        candidates = np.flatnonzero(used & (lengths < limit))
        if candidates.size == 0:
            raise InvalidArgumentError("cannot satisfy Kraft inequality")
        shortest = candidates[np.argmin(lengths[candidates])]
        kraft -= 2.0 ** -float(lengths[shortest])
        lengths[shortest] += 1
        kraft += 2.0 ** -float(lengths[shortest])
    return lengths


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Used symbols in canonical order (code length, then symbol) and
    their lengths as ``int64``."""
    used = np.flatnonzero(lengths)
    syms = used[np.argsort(lengths[used], kind="stable")]
    return syms, lengths[syms].astype(np.int64)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values from code lengths.

    Codes of one length are consecutive in symbol order, starting at that
    length's first code; the first code of length ``l`` is one past the
    last code of length ``l - 1``, shifted left a bit.  So the only loop
    runs over code lengths, not symbols.
    """
    codes = np.zeros(lengths.size, dtype=np.uint32)
    syms, lens = _canonical_order(lengths)
    if syms.size == 0:
        return codes
    count = np.bincount(lens)
    first = np.zeros(count.size, dtype=np.int64)
    for length in range(1, count.size):
        first[length] = (first[length - 1] + count[length - 1]) << 1
    # Position of each length's first symbol in canonical order.
    start = np.cumsum(count) - count
    rank = np.arange(syms.size) - start[lens]
    # An over-subscribed (forged) book can run past 32 bits; its values
    # wrap here and its decode table is rejected in build_window_table.
    codes[syms] = (first[lens] + rank).astype(np.uint32)
    return codes


def build_code(freqs: np.ndarray) -> HuffmanCode:
    """Build a canonical Huffman code from a frequency table."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise InvalidArgumentError("freqs must be a 1-D array")
    lengths = _huffman_lengths(freqs)
    return HuffmanCode(lengths=lengths, codes=_canonical_codes(lengths))


def encoded_nbits(freqs: np.ndarray, code: HuffmanCode) -> int:
    """Exact bit count :func:`encode` would produce for this histogram.

    Lets the ``auto`` selector price a Huffman candidate from the
    frequency table alone and skip packing when it cannot win.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    return int((freqs * code.lengths.astype(np.int64)).sum())


def encode(symbols: np.ndarray, code: HuffmanCode) -> tuple[bytes, int]:
    """Encode a symbol array; returns ``(packed_bytes, nbits)``.

    Two table gathers (code value, code length) followed by one batched
    :func:`~repro.lossless.bitpack.pack_msb` pass.
    """
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return b"", 0
    lens = code.lengths[symbols].astype(np.int64)
    if not lens.all():
        raise InvalidArgumentError("symbol without a code encountered")
    return bitpack.pack_msb(code.codes[symbols], lens)


def build_window_table(code: HuffmanCode) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat decode table: next ``max_len`` bits -> (symbol, code length).

    Returns ``(table_sym, table_len, max_len)`` where invalid windows map
    to symbol ``-1`` / length ``0``; ``table_len`` is ``uint8``.  In
    canonical order each code word of length ``l`` owns the next
    ``2**(max_len - l)`` windows, so the table is two ``np.repeat`` calls.
    Spans summing past ``2**max_len`` mean the code book breaks the Kraft
    inequality (no prefix code has those lengths): it is rejected.
    """
    syms, lens = _canonical_order(code.lengths)
    if syms.size == 0:
        raise StreamFormatError("empty code book")
    max_len = int(lens[-1])
    if max_len > _MAX_CODE_LEN:
        # The encoder never emits codes past _MAX_CODE_LEN; a longer length
        # can only come from a forged code book, and would size the window
        # table at 2**max_len entries.
        raise StreamFormatError(
            f"huffman code length {max_len} exceeds the {_MAX_CODE_LEN}-bit limit"
        )
    spans = np.left_shift(1, max_len - lens)
    filled = int(spans.sum())
    if filled > 1 << max_len:
        raise StreamFormatError("over-subscribed huffman code book")
    table_sym = np.full(1 << max_len, -1, dtype=np.int32)
    table_len = np.zeros(1 << max_len, dtype=np.uint8)
    table_sym[:filled] = np.repeat(syms, spans)
    table_len[:filled] = np.repeat(lens, spans)
    return table_sym, table_len, max_len


def _padded_stream(
    data: bytes, nbits: int, code: HuffmanCode
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The decoders' shared prologue: ``(buf, table_sym, table_len,
    max_len)``, where ``buf`` is a copy of the stream's bytes with the
    tail bits past ``nbits`` zeroed, so windows near the end read zero
    padding, and the rest is :func:`build_window_table`."""
    table_sym, table_len, max_len = build_window_table(code)
    nbytes = (nbits + 7) >> 3
    buf = np.frombuffer(data, dtype=np.uint8, count=nbytes).copy()
    if nbits & 7:
        buf[-1] &= 0xFF << (8 - (nbits & 7)) & 0xFF
    return buf, table_sym, table_len, max_len


def decode(data: bytes, nbits: int, nsymbols: int, code: HuffmanCode) -> np.ndarray:
    """Decode ``nsymbols`` symbols from a packed Huffman bit stream.

    The code words must cover exactly ``nbits`` bits: a stream that runs
    out, holds an invalid code word, or has bits left after the last
    symbol raises :class:`StreamFormatError`.

    The code-word starts form a chain ``p -> p + len(window at p)``.
    The stream is walked in blocks of :data:`_JUMP_BLOCK` bit offsets.
    Doubling a block's chain table :data:`_JUMP_DEPTH` times gives the
    offset ``2**_JUMP_DEPTH`` symbols ahead, so the sequential walk takes
    one ``memoryview`` index per ``2**_JUMP_DEPTH`` symbols; one gather
    per doubling then fills in the starts between.  The tables never
    outgrow a block, so the working memory is about 3 MiB plus 20–30
    bytes per symbol, however many bits the stream declares.
    """
    if nsymbols == 0:
        return np.zeros(0, dtype=np.int64)
    if nbits > len(data) * 8:
        raise StreamFormatError("huffman stream shorter than declared")
    if nsymbols > nbits:
        # Every code word spends at least one bit.
        raise StreamFormatError("huffman stream exhausted mid-symbol")
    buf, table_sym, table_len, max_len = _padded_stream(data, nbits, code)
    stride = 1 << _JUMP_DEPTH
    bits_per_row = stride * nbits / nsymbols
    # The window at every code-word start, filled block by block.
    words = np.empty(nsymbols, dtype=np.intp)
    # jumps[k][q]: the block offset 2**k code words after block offset
    # q, so row 0 is the offset after the code word at q.  A code word
    # starting in the block ends less than ``max_len`` bits past it; from
    # there, and from an invalid window (length 0), the chain loops on
    # itself, so a walk that left the block or stalled stops moving and
    # every index stays in range: ``mode="clip"`` never clips, it only
    # spares ``take`` the staging copy of ``out`` that the default mode
    # makes.  All levels share one allocation, reused by every block:
    # separate level arrays were paged in afresh at every section
    # (EXPERIMENTS.md, "Huffman chain walk").
    span = min(_JUMP_BLOCK, nbits) + max_len
    jumps = np.empty((_JUMP_DEPTH + 1, span), dtype=np.int64)
    offsets = np.arange(span)
    done = last = pos = 0
    while done < nsymbols and pos < nbits:
        # The block starts at the byte holding the next code word.
        lo = pos & ~7
        n = min(_JUMP_BLOCK, nbits - lo)
        block = buf[lo >> 3 : (lo + n + max_len + 7) >> 3]
        win = bitpack.bit_windows(block, n, max_len)
        levels = jumps[:, : n + max_len]
        np.add(offsets[:n], table_len.take(win), out=levels[0, :n])
        levels[0, n:] = offsets[n : n + max_len]
        for k in range(_JUMP_DEPTH):
            levels[k].take(levels[k], out=levels[k + 1], mode="clip")

        # One stop per ``stride`` symbols until the walk leaves the block
        # or has every row it needs, in batches sized by the stream's
        # mean code length.  A stalled walk repeats its offset to the end.
        hop = memoryview(levels[-1])
        q = pos - lo
        stops = [q]
        rows = -(-(nsymbols - done) // stride)
        while len(stops) < rows and q < n:
            batch = min(rows - len(stops), int((n - q) / bits_per_row) + 1)
            stops += [q := hop[q] for _ in range(batch)]

        # Row r of the grid holds the starts of symbols r*stride onwards
        # at column r: the walk fills row 0, and each doubling level
        # copies the known rows one jump of its width ahead.
        grid = np.empty((stride, len(stops)), dtype=np.int64)
        grid[0] = stops
        width = 1
        for level in levels[:-1]:
            level.take(grid[:width], out=grid[width : 2 * width], mode="clip")
            width *= 2
        found = grid.T.reshape(-1)
        count = min(int(np.searchsorted(found, n)), nsymbols - done)
        words[done : done + count] = win[found[:count]]
        done += count
        last = lo + int(found[count - 1])
        if done < nsymbols:
            # The walk left the block: its first start past the block
            # opens the next one.
            pos = lo + int(found[count])

    # Positions never decrease, so symbols are missing only when the
    # stream ran out; a stall shows as an invalid code word.
    if done < nsymbols:
        raise StreamFormatError("huffman stream exhausted mid-symbol")
    out = table_sym[words]
    if out.min() < 0:
        raise StreamFormatError("invalid huffman code word")
    if last + int(table_len[words[-1]]) != nbits:
        raise StreamFormatError("huffman stream length mismatch")
    return out.astype(np.int64)


def segment_bits(symbols: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """Encoded bit length of each :data:`SEGMENT_SYMBOLS`-symbol block.

    This is the segment index the decoder uses to start every segment as
    an independent lane; it prices to two bytes per segment in the packed
    stream.
    """
    lens = code.lengths[symbols].astype(np.int64)
    starts = np.arange(0, symbols.size, SEGMENT_SYMBOLS, dtype=np.int64)
    return np.add.reduceat(lens, starts)


def decode_segmented(
    data: bytes, nbits: int, nsymbols: int, code: HuffmanCode, seg_bits: np.ndarray
) -> np.ndarray:
    """Decode a segment-indexed Huffman stream (see ``backend``).

    ``seg_bits`` holds the bit length of every segment but the last, so
    each segment's start offset is known up front and all segments decode
    together as parallel lanes: the data-dependent chain walk becomes
    :data:`SEGMENT_SYMBOLS` vectorized table-gather steps across every
    lane instead of one Python step per symbol.
    """
    if nsymbols == 0:
        return np.zeros(0, dtype=np.int64)
    if nbits > len(data) * 8 or nbits <= 0:
        raise StreamFormatError("huffman stream shorter than declared")
    nseg = -(-nsymbols // SEGMENT_SYMBOLS)
    seg_bits = np.asarray(seg_bits, dtype=np.int64)
    if seg_bits.size != nseg - 1:
        raise StreamFormatError("huffman segment index has wrong length")
    # Every full segment holds SEGMENT_SYMBOLS codes of 1..max bits.
    if seg_bits.size and (
        (seg_bits < SEGMENT_SYMBOLS).any()
        or (seg_bits > SEGMENT_SYMBOLS * _MAX_CODE_LEN).any()
    ):
        raise StreamFormatError("corrupt huffman segment index")
    starts = np.zeros(nseg, dtype=np.int64)
    np.cumsum(seg_bits, out=starts[1:])
    if int(starts[-1]) >= nbits:
        raise StreamFormatError("huffman segment index past stream end")
    buf, table_sym, table_len, max_len = _padded_stream(data, nbits, code)
    windows = bitpack.byte_windows(buf)

    # March all lanes one code word at a time.  Lanes that finish early
    # (only the last segment is partial) keep reading clamped windows;
    # their surplus outputs are discarded below, and the end-position
    # check would expose any lane that drifted.
    last_count = nsymbols - SEGMENT_SYMBOLS * (nseg - 1)
    pos = starts.copy()
    sym_out = np.empty((SEGMENT_SYMBOLS, nseg), dtype=np.int32)
    end_last = -1
    for i in range(SEGMENT_SYMBOLS):
        if i == last_count:
            end_last = int(pos[-1])
        cp = np.minimum(pos, nbits - 1)
        win = bitpack.extract_msb(windows, cp, max_len)
        sym_out[i] = table_sym[win]
        pos += table_len[win]
    if end_last < 0:
        end_last = int(pos[-1])

    # A well-formed stream has every lane stopping exactly where the next
    # one starts (and the last at ``nbits``); a stalled lane (invalid
    # window, length 0) or a drifted one cannot satisfy this.
    if nseg > 1 and not np.array_equal(pos[:-1], starts[1:]):
        raise StreamFormatError("huffman segment lanes misaligned")
    if end_last != nbits:
        raise StreamFormatError("huffman stream length mismatch")
    out = sym_out.T.ravel()[:nsymbols]
    if out.min(initial=0) < 0:
        raise StreamFormatError("invalid huffman code word")
    return out.astype(np.int64)


def serialize_code(code: HuffmanCode) -> bytes:
    """Serialize a code book as (nsymbols: u32, lengths: u8 array, RLE'd)."""
    lengths = code.lengths.astype(np.uint8)
    head = struct.pack("<I", lengths.size)
    if not lengths.size:
        return head
    # Run-length the length table as (len, run) pairs, each run split
    # into pieces of at most 255 symbols.
    starts = np.flatnonzero(np.r_[True, lengths[1:] != lengths[:-1]])
    runs = np.diff(np.r_[starts, lengths.size])
    pieces = (runs + 254) // 255
    pairs = np.full((int(pieces.sum()), 2), 255, dtype=np.uint8)
    pairs[:, 0] = np.repeat(lengths[starts], pieces)
    pairs[np.cumsum(pieces) - 1, 1] = runs - 255 * (pieces - 1)
    return head + pairs.tobytes()


def deserialize_code(data: bytes) -> tuple[HuffmanCode, int]:
    """Inverse of :func:`serialize_code`; returns (code, bytes_consumed).

    The last run may reach past the declared symbol count; its surplus is
    dropped.
    """
    if len(data) < 4:
        raise StreamFormatError("truncated code book")
    (nsym,) = struct.unpack_from("<I", data)
    # Each 2-byte (value, run) pair covers at most 255 symbols, so the
    # remaining bytes bound any honest symbol count — check before sizing
    # the length table from the untrusted field.
    if nsym > 255 * ((len(data) - 4) // 2):
        raise StreamFormatError(
            f"code book declares {nsym} symbols in {len(data)} bytes"
        )
    # Every valid run covers at least one symbol, so no more than ``nsym``
    # pairs are ever read.
    npairs = min((len(data) - 4) // 2, nsym)
    pairs = np.frombuffer(data, dtype=np.uint8, count=2 * npairs, offset=4)
    vals, runs = pairs[0::2], pairs[1::2]
    # Pairs read: up to and including the one whose run reaches ``nsym``
    # (one past the end when the data runs out first).
    used = 0
    if nsym:
        used = int(np.searchsorted(np.cumsum(runs, dtype=np.int64), nsym)) + 1
    bad = np.flatnonzero((runs[:used] == 0) | (vals[:used] > _MAX_CODE_LEN))
    if bad.size:
        i = int(bad[0])
        if runs[i] == 0:
            raise StreamFormatError("zero-length run in code book")
        raise StreamFormatError(
            f"huffman code length {vals[i]} exceeds the {_MAX_CODE_LEN}-bit limit"
        )
    if used > npairs:
        raise StreamFormatError("truncated code book run")
    lengths = np.repeat(vals[:used], runs[:used])[:nsym]
    return HuffmanCode(lengths=lengths, codes=_canonical_codes(lengths)), 4 + 2 * used
