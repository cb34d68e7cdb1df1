"""Golden SPECK encoder output pinned on disk.

``tests/data/speck_encode_digests.json`` holds, for every lane of every
case below, the sha256 of the stream :func:`repro.speck.codec.encode`
produces, its ``nbits`` and its :class:`~repro.speck.SpeckStats`.  The
cases cover 1-D, 2-D and 3-D lanes (ragged ones included), lanes whose
largest magnitudes span 30 bitplanes, an all-zero lane, and bit budgets
that are absent, shared by all lanes or set per lane.  The encoder must
reproduce these bytes exactly: the container goldens only reach the
chunk shapes the pipeline produces, these reach budgets and shapes it
does not.  The inputs are integer-seeded PCG64 draws.

Regenerate (only after an intentional encoder change) with::

    PYTHONPATH=src python - <<'PY'
    import sys; sys.path.insert(0, "tests")
    from test_speck_encode_golden import DIGESTS, compute_digests, dump
    DIGESTS.write_text(dump(compute_digests()))
    PY
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.speck.codec import encode

DIGESTS = Path(__file__).parent / "data" / "speck_encode_digests.json"

_SHAPES = {
    "8": (8,),
    "16": (16,),
    "37": (37,),
    "4x4": (4, 4),
    "8x8": (8, 8),
    "3x5": (3, 5),
    "4x4x4": (4, 4, 4),
    "3x3x3": (3, 3, 3),
    "13x11x9": (13, 11, 9),
}
_BUDGETS = {"none": None, "b64": 64, "b300": 300, "per-lane": "per-lane"}


def _grid() -> dict:
    cases = {}
    for i, (sname, shape) in enumerate(_SHAPES.items()):
        for j, (bname, budget) in enumerate(_BUDGETS.items()):
            seed = 100 + 10 * i + j
            cases[f"{sname}-{bname}"] = dict(
                shape=shape, seed=seed, lanes=4 + (seed % 6), budget=budget
            )
    return cases


#: name -> lane generator arguments (see :func:`lanes`)
CASES = {
    **_grid(),
    # lanes whose nmax differ by up to 30 planes
    "spread-planes": dict(shape=(4, 4), seed=3, lanes=6, spread=True),
    "spread-planes-3d": dict(shape=(8, 8, 8), seed=13, lanes=4, spread=True),
    "all-zero-lane": dict(shape=(4, 4), seed=4, lanes=5, zero_lane=2),
    # one lane starved at 96 bits, the rest coded to plane 0
    "budget-96": dict(
        shape=(8, 8), seed=5, lanes=4, budget=[96, 100_000, 100_000, 100_000]
    ),
    # every lane but one stops at 80 bits
    "budget-80-one-survivor": dict(
        shape=(8, 8), seed=6, lanes=8, budget=[80] * 5 + [10**9] + [80] * 2
    ),
    "16x16x16": dict(shape=(16, 16, 16), seed=7, lanes=4),
}


def lanes(name: str) -> tuple[np.ndarray, np.ndarray, list]:
    """Seeded ``(mags, negative, budgets)`` stacks for case ``name``."""
    c = CASES[name]
    shape, n_lanes = c["shape"], c["lanes"]
    rng = np.random.default_rng(c["seed"])
    mags = rng.integers(0, 1 << 12, size=(n_lanes, *shape)).astype(np.uint64)
    if c.get("spread"):
        shifts = rng.integers(0, 30, size=n_lanes).astype(np.uint64)
        mags <<= shifts.reshape((-1,) + (1,) * len(shape))
    if "zero_lane" in c:
        mags[c["zero_lane"]] = 0
    neg = rng.random(size=(n_lanes, *shape)) < 0.5
    budget = c.get("budget")
    if budget == "per-lane":
        budget = np.random.default_rng(c["seed"] + 1).integers(32, 2000, n_lanes)
    if budget is None or np.ndim(budget) == 0:
        budget = [budget] * n_lanes
    return mags, neg, [None if b is None else int(b) for b in budget]


def case_digests(name: str) -> list[dict]:
    mags, neg, budgets = lanes(name)
    out = []
    for m, s, b in zip(mags, neg, budgets):
        stream, nbits, stats = encode(m, s, max_bits=b)
        out.append(
            {
                "sha256": hashlib.sha256(stream).hexdigest(),
                "nbits": nbits,
                "stats": dataclasses.asdict(stats),
            }
        )
    return out


def compute_digests() -> dict:
    return {name: case_digests(name) for name in CASES}


def dump(digests: dict) -> str:
    """JSON with one lane per line, so a diff names the lane that moved."""
    cases = []
    for name in sorted(digests):
        rows = ",\n".join(f"  {json.dumps(r, sort_keys=True)}" for r in digests[name])
        cases.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(cases) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encode_matches_digest(golden, name):
    got = case_digests(name)
    assert len(got) == len(golden[name])
    for lane, (have, want) in enumerate(zip(got, golden[name])):
        assert have == want, f"{name} lane {lane} diverges"
