"""Golden ``decode_lsp`` digests at the lane sizes the pipeline decodes.

``tests/data/decode_lsp_digests.json`` holds sha256 digests of the
``(positions, rec, negative)`` triple :func:`repro.speck.codec.decode_lsp`
returns for SPECK streams of production size:

* 32³ coefficient lanes whose magnitudes span 15 bitplanes, and
* 32768-long outlier lanes with about 12% of the points nonzero, the
  outlier density of a 128³ field compressed at PWE ``1e-3 * range``.

Each stream is decoded complete and cut at named points of its layout:
after the header, between two significance bits of a sorting pass,
between two sign bits, between two refinement bits, at the end of a
plane, and one bit short.  The cut points come from :func:`bit_kinds`,
which replays the encoder's walk and labels every bit by kind; its
per-plane counts are checked against :class:`~repro.speck.SpeckStats`.
The digests pin the discovery order as well as the values, so a change
to how the decoder keeps its lists of insignificant sets must read the
same bits in the same order.  The inputs are integer-seeded PCG64 draws
encoded at test time.

Regenerate (only after an intentional decoder change) with::

    PYTHONPATH=src python - <<'PY'
    import json, sys; sys.path.insert(0, "tests")
    from test_decode_lsp_golden import DIGESTS, compute_digests
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\\n")
    PY
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.speck.codec import decode_lsp, encode
from repro.speck.geometry import Geometry, MaxPyramid

DIGESTS = Path(__file__).parent / "data" / "decode_lsp_digests.json"

#: name -> (shape, seed, percent of nonzero cells, smallest and largest
#: magnitude exponent)
CASES = {
    "coeff32-a": ((32, 32, 32), 71, 85, (0, 14)),
    "coeff32-b": ((32, 32, 32), 72, 40, (0, 13)),
    "outlier32768-a": ((32768,), 73, 12, (0, 2)),
    "outlier32768-b": ((32768,), 74, 12, (0, 3)),
}

#: Bit kinds: the 8 header bits, then significance, sign and refinement.
HEADER, SIG, SIGN, REFINE = 0, 1, 2, 3

#: Interior cuts per kind, drawn from the qualifying positions.
CUTS_PER_KIND = 2


def lane(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Seeded magnitudes (in ``[2**lo, 2**(hi+1))`` where nonzero) and signs."""
    shape, seed, pct, (lo, hi) = CASES[name]
    g = np.random.default_rng(seed)
    exps = g.integers(lo, hi + 1, size=shape)
    mags = (g.integers(1 << 30, 1 << 31, size=shape) >> (30 - exps)).astype(np.uint64)
    mags[g.integers(0, 100, size=shape) >= pct] = 0
    neg = g.integers(0, 2, size=shape).astype(bool)
    return mags, neg


def bit_kinds(mags: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Kind of every stream bit and the bit offset where each plane ends.

    Replays the encoder's batched walk on the max-magnitude pyramid:
    per plane, each start depth's sets are tested (significance bits),
    significant ones split down to pixels (one sign bit per newly
    significant pixel), then every pixel found in earlier planes gets a
    refinement bit.  Bit counts do not depend on the order of the sets
    within a depth, so this needs no list bookkeeping beyond membership.
    """
    geometry = Geometry(mags.shape)
    levels = MaxPyramid(geometry, mags).levels
    top = geometry.max_depth
    kinds = [np.full(8, HEADER, dtype=np.uint8)]
    ends: list[int] = []
    found = 0
    lis = {0: np.zeros(1, dtype=np.int64)}
    for n in range(int(mags.max()).bit_length() - 1, -1, -1):
        old = found
        nxt: dict[int, list[np.ndarray]] = {}
        for start in sorted(lis, reverse=True):
            idx, depth = lis[start], start
            while idx.size:
                sig = levels[depth][idx] >= np.uint64(1 << n)
                kinds.append(np.full(idx.size, SIG, dtype=np.uint8))
                nxt.setdefault(depth, []).append(idx[~sig])
                idx = idx[sig]
                if depth == top:
                    kinds.append(np.full(idx.size, SIGN, dtype=np.uint8))
                    found += idx.size
                    break
                idx = geometry.child_table(depth)[idx].ravel()
                depth += 1
        kinds.append(np.full(old, REFINE, dtype=np.uint8))
        lis = {d: np.concatenate(v) for d, v in nxt.items()}
        lis = {d: v for d, v in lis.items() if v.size}
        ends.append(sum(k.size for k in kinds))
    return np.concatenate(kinds), ends


def cuts(name: str, kinds: np.ndarray, ends: list[int]) -> dict[str, int]:
    """Named prefix lengths: header, interior cuts of each kind, plane
    ends, one bit short and complete."""
    g = np.random.default_rng(1000 + CASES[name][1])
    nbits = kinds.size
    out = {"header": 8, "one-short": nbits - 1, "complete": nbits}
    for label, kind in (("sorting", SIG), ("sign", SIGN), ("refinement", REFINE)):
        # A cut of length p keeps bits [0, p): both neighbours of the cut
        # are of this kind, so it falls strictly inside a run.
        inside = np.flatnonzero((kinds[:-1] == kind) & (kinds[1:] == kind)) + 1
        for i, p in enumerate(sorted(g.choice(inside, CUTS_PER_KIND, replace=False))):
            out[f"{label}-{i}"] = int(p)
    interior_ends = ends[:-1]
    for i, p in enumerate(sorted(g.choice(interior_ends, CUTS_PER_KIND, replace=False))):
        out[f"plane-{i}"] = int(p)
    return out


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def case_digests(name: str) -> dict:
    mags, neg = lane(name)
    stream, nbits, stats = encode(mags, neg)
    kinds, ends = bit_kinds(mags)
    assert kinds.size == nbits
    per_plane = np.split(kinds[8:], np.asarray(ends[:-1]) - 8)
    assert [int(np.count_nonzero(p == SIG)) for p in per_plane] == stats.sorting_bits
    assert [int(np.count_nonzero(p == SIGN)) for p in per_plane] == stats.sign_bits
    assert [int(np.count_nonzero(p == REFINE)) for p in per_plane] == stats.refinement_bits
    shape = CASES[name][0]
    named = cuts(name, kinds, ends)
    decodes = {}
    for label, k in named.items():
        pos, rec, negative = decode_lsp(stream, shape, nbits=k)
        decodes[label] = [int(pos.size), _sha(pos), _sha(rec), _sha(negative)]
    return {
        "stream": hashlib.sha256(stream).hexdigest(),
        "nbits": nbits,
        "planes": len(ends),
        "cuts": named,
        "decodes": decodes,
    }


def compute_digests() -> dict:
    return {name: case_digests(name) for name in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_has_digests(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_reach_production_size(name, golden):
    """Coefficient lanes span 14-15 planes, outlier lanes about 12% density."""
    mags, _ = lane(name)
    if mags.ndim == 3:
        assert golden[name]["planes"] >= 14
    else:
        assert 0.11 < np.count_nonzero(mags) / mags.size < 0.13
    assert {"header", "one-short", "complete"} <= set(golden[name]["cuts"])
    for label in ("sorting", "sign", "refinement", "plane"):
        assert f"{label}-0" in golden[name]["cuts"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decode_lsp_matches_golden(name, golden):
    want = golden[name]
    got = case_digests(name)
    assert (got["stream"], got["nbits"]) == (want["stream"], want["nbits"]), (
        "encoder output drifted; the decode digests no longer apply"
    )
    assert got["cuts"] == want["cuts"]
    assert got["decodes"] == want["decodes"]
