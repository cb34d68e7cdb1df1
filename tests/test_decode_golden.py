"""Golden decode digests: decoder output pinned on disk.

``tests/data/decode_digests.json`` holds sha256 digests of

* the decoded array of every ``tests/data/encode_*.sperr`` fixture, and
* the ``(rec, neg)`` pair :func:`repro.speck.decode` returns for fixed
  SPECK streams — a 32³ coefficient-like volume, a 32768-point outlier
  domain, and ragged 1-D/2-D/3-D shapes — at a dozen prefix lengths
  each (header only, seeded interior cuts, one bit short, complete).

The reference decoder only covers complete streams; these digests also
pin what every truncated prefix decodes to, so a decoder rewrite must
reproduce the old output bit for bit, not merely round-trip.  The
stream inputs are integer-seeded PCG64 draws, and each stream's own
digest is recorded so an encoder change shows up as such rather than as
a decode mismatch.

Regenerate (only after an intentional decoder change) with::

    PYTHONPATH=src python - <<'PY'
    import json, sys; sys.path.insert(0, "tests")
    from test_decode_golden import DIGESTS, compute_digests
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\\n")
    PY
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.speck import decode, encode

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "decode_digests.json"

#: name -> (shape, seed, percent of nonzero cells, largest magnitude exponent)
SPECK_CASES = {
    "coeff32": ((32, 32, 32), 1, 60, 16),
    "outlier32768": ((32768,), 2, 1, 6),
    "ragged17": ((17,), 3, 70, 9),
    "ragged5x7": ((5, 7), 4, 50, 10),
    "ragged9x13x6": ((9, 13, 6), 5, 40, 12),
}

N_PREFIXES = 12


def speck_case(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Seeded magnitudes (each below ``2**e`` for a random ``e``) and signs."""
    shape, seed, pct, emax = SPECK_CASES[name]
    g = np.random.default_rng(seed)
    exps = g.integers(0, emax + 1, size=shape)
    mags = g.integers(0, 1 << 30, size=shape) >> (30 - exps)
    mags[g.integers(0, 100, size=shape) >= pct] = 0
    neg = g.integers(0, 2, size=shape).astype(bool)
    return mags.astype(np.uint64), neg


def prefix_lengths(name: str, nbits: int) -> list[int]:
    """Header only, seeded interior cuts, one bit short, and complete."""
    g = np.random.default_rng(1000 + SPECK_CASES[name][1])
    inner = g.integers(9, nbits - 1, size=N_PREFIXES - 3)
    return sorted({8, nbits - 1, nbits, *(int(k) for k in inner)})


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def speck_digests(name: str) -> dict:
    stream, nbits, _ = encode(*speck_case(name))
    shape = SPECK_CASES[name][0]
    prefixes = {}
    for k in prefix_lengths(name, nbits):
        rec, neg = decode(stream, shape, nbits=k)
        prefixes[str(k)] = [_sha(rec), _sha(neg)]
    return {
        "stream": hashlib.sha256(stream).hexdigest(),
        "nbits": nbits,
        "prefixes": prefixes,
    }


def sperr_digest(path: Path) -> dict:
    out = repro.decompress(path.read_bytes())
    return {"dtype": str(out.dtype), "shape": list(out.shape), "sha256": _sha(out)}


def compute_digests() -> dict:
    return {
        "speck": {name: speck_digests(name) for name in SPECK_CASES},
        "sperr": {p.name: sperr_digest(p) for p in sorted(DATA.glob("encode_*.sperr"))},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_fixture_has_a_digest(golden):
    assert sorted(golden["sperr"]) == sorted(p.name for p in DATA.glob("encode_*.sperr"))
    assert sorted(golden["speck"]) == sorted(SPECK_CASES)


@pytest.mark.parametrize("name", sorted(SPECK_CASES))
def test_speck_prefix_decodes_match(name, golden):
    want = golden["speck"][name]
    got = speck_digests(name)
    assert (got["stream"], got["nbits"]) == (want["stream"], want["nbits"]), (
        "encoder output drifted; the decode digests no longer apply"
    )
    assert len(got["prefixes"]) >= N_PREFIXES - 1
    assert got["prefixes"] == want["prefixes"]


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in DATA.glob("encode_*.sperr"))
)
def test_sperr_fixture_decodes_match(fixture, golden):
    assert sperr_digest(DATA / fixture) == golden["sperr"][fixture]
