"""Golden SZx fast-tier output pinned on disk.

``tests/data/szx_encode_digests.json`` holds, for three 64³ synthetic
fields (a smooth field on a ramp, plateaus with steep fronts, and
heavy-tailed clumps) cut into eight 32³ chunks, at four PWE tolerances:

* the sha256 of every lane body
  :func:`~repro.compressors.szxlike.blocks.encode_lanes` returns for the
  eight chunks plus one ragged 13x11x9 lane (1,287 samples, not a whole
  number of 256-sample blocks), encoded in one stacked call;
* the block-type histogram of each lane, so the cases provably reach
  the ``const``, ``linear``, ``dense`` and ``raw`` block types;
* the :func:`~repro.core.adaptive.choose_codecs` tags of the eight
  chunks under the ``fast`` and ``adaptive`` policies.

The encoder and the router must reproduce these exactly.  The inputs
are built from host-stable arithmetic only (seeded uniform draws,
``+ - * /``, ``clip`` and cumulative sums): numpy's ``exp``, ``log``,
``tanh`` and ``power`` loops give different bits depending on the SIMD
extensions the host offers, and the spectral stand-in fields use them.
Each field's own digest is recorded too: an input drift shows up as
such rather than as an encoder mismatch.

Regenerate (only after an intentional fast-tier format change) with::

    PYTHONPATH=src python - <<'PY'
    import sys; sys.path.insert(0, "tests")
    from test_szx_encode_golden import DIGESTS, compute_digests, dump
    DIGESTS.write_text(dump(compute_digests()))
    PY
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compressors.szxlike.blocks import BLOCK, encode_lanes
from repro.core.adaptive import choose_codecs
from repro.core.modes import PweMode
from repro.lossless.bitpack import byte_windows, extract_msb

DIGESTS = Path(__file__).parent / "data" / "szx_encode_digests.json"

FIELDS = ("smooth_ramp", "plateau_fronts", "clumps")

#: Tolerances as fractions of each field's range: a loose bound (const
#: blocks), two working bounds (linear and dense blocks) and one so tight
#: that the quantized codes overflow the plane coder (raw blocks).
REL_TOLERANCES = {"1e-1": 1e-1, "1e-3": 1e-3, "1e-6": 1e-6, "1e-10": 1e-10}

RAGGED = (13, 11, 9)

BLOCK_TYPES = ("const", "linear", "dense", "raw")


def _sha(buf) -> str:
    return hashlib.sha256(buf).hexdigest()


def _box_smooth(x: np.ndarray, width: int = 16, passes: int = 3) -> np.ndarray:
    """Periodic moving average of ``width`` samples, ``passes`` times
    along every axis, as differences of cumulative sums."""
    for ax, n in enumerate(x.shape):
        for _ in range(passes):
            wrap = np.concatenate([x, x.take(range(width), axis=ax)], axis=ax)
            c = np.cumsum(wrap, axis=ax)
            x = c.take(range(width, width + n), axis=ax) - c.take(range(n), axis=ax)
            x /= width
    return x


def stable_field(name: str, shape=(64, 64, 64), seed: int = 7) -> np.ndarray:
    """One of the :data:`FIELDS`, bit-identical on every host."""
    g = np.random.default_rng(seed)
    s = _box_smooth(g.random(shape)) - 0.5
    s /= np.abs(s).max()
    if name == "smooth_ramp":
        i, j, k = np.indices(shape) / 64.0
        return 0.5 * s + (i + 0.5 * j) * (1.0 - 0.25 * k)
    if name == "plateau_fronts":
        return np.clip(4.0 * s, -1.0, 1.0) * 300.0 + 1200.0
    u = (s + 1.0) * (s + 1.0)
    u = u * u
    return u * u + 1e-3 * g.random(shape)


def field_lanes(full: np.ndarray) -> list[np.ndarray]:
    """Eight 32³ chunks of a 64³ field, then one ragged lane."""
    chunks = [
        full[i : i + 32, j : j + 32, k : k + 32]
        for i in (0, 32)
        for j in (0, 32)
        for k in (0, 32)
    ]
    return chunks + [
        full[5 : 5 + RAGGED[0], 7 : 7 + RAGGED[1], 3 : 3 + RAGGED[2]]
    ]


def block_types(body: bytes) -> list[int]:
    """Per-type block counts read back from a lane body's 2-bit table."""
    nb = int.from_bytes(body[8:12], "little")
    table = body[12 : 12 + ((2 * nb + 7) >> 3)]
    types = extract_msb(byte_windows(table), np.arange(nb, dtype=np.int64) * 2, 2)
    return np.bincount(types.astype(np.int64), minlength=4).tolist()


def field_digests(name: str) -> dict:
    full = stable_field(name)
    lanes = field_lanes(full)
    span = float(full.max() - full.min())
    out: dict = {"input": _sha(np.ascontiguousarray(full).tobytes()), "cases": {}}
    for key, rel in REL_TOLERANCES.items():
        t = rel * span
        bodies = encode_lanes(lanes, t)
        mode = PweMode(t)
        out["cases"][key] = {
            "lanes": [_sha(b) for b in bodies],
            "block_types": [block_types(b) for b in bodies],
            "tags": {
                policy: choose_codecs(lanes[:8], mode, policy).tolist()
                for policy in ("fast", "adaptive")
            },
        }
    return out


def compute_digests() -> dict:
    return {name: field_digests(name) for name in FIELDS}


def dump(digests: dict) -> str:
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_cases_cover_every_block_type(golden):
    totals = np.zeros(4, dtype=np.int64)
    for entry in golden.values():
        for case in entry["cases"].values():
            totals += np.sum(case["block_types"], axis=0)
    assert (totals > 0).all(), dict(zip(BLOCK_TYPES, totals.tolist()))


def test_ragged_lane_is_not_whole_blocks():
    assert np.prod(RAGGED) % BLOCK != 0


@pytest.mark.parametrize("name", FIELDS)
def test_encode_lanes_and_routing_match(name, golden):
    want = golden[name]
    got = field_digests(name)
    assert got["input"] == want["input"], (
        "input field drifted; the szx digests no longer apply"
    )
    assert got["cases"] == want["cases"]
