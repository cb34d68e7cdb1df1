"""Golden bytes of the coders that pack bit fields outside the SPERR chunk.

``tests/data/bit_packing_digests.json`` holds the sha256 and length of:

* ``csr_encode`` and ``bitmap_encode`` of ``tests/outlier_designs.py``
  on the outlier lists of the Sec.-II ablation's three cases
  (``benchmarks/bench_ablation_outlier_designs.py``: 24³ Visc-20,
  Temp-20 and Nyx-20), plus one CSR case whose positions and codes are
  wider than 32 bits;
* ``gamma_encode`` and ``delta_encode`` (same module) streams of seeded
  integer sets, two of them wider than 32 bits;
* :class:`~repro.compressors.zfplike.ZfpLikeCompressor` payloads of
  seeded 1-D/2-D/3-D cumulative sums in accuracy mode and at fixed-rate
  budgets of 13 bits per block (the block header) and more.

The ablation's outlier lists are stored in
``tests/data/outlier_alt_cases.npz`` rather than rebuilt: the synthetic
fields they come from use numpy's ``exp``/``tanh``/``power`` loops,
whose last bits depend on the SIMD extensions of the host.  They were
written once with :func:`build_outlier_cases`; the other inputs are
seeded draws and cumulative sums, the same on every host.

Regenerate the digests (only after an intentional format change) with::

    PYTHONPATH=src python - <<'PY'
    import sys; sys.path.insert(0, "tests")
    from test_bit_packing_golden import DIGESTS, compute_digests, dump
    DIGESTS.write_text(dump(compute_digests()))
    PY
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compressors.zfplike import ZfpLikeCompressor
from repro.core.modes import PweMode, SizeMode
from outlier_designs import (
    bitmap_encode,
    csr_encode,
    delta_encode,
    gamma_encode,
    zigzag,
)

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "bit_packing_digests.json"
OUTLIER_CASES = DATA / "outlier_alt_cases.npz"

#: The ablation's cases: npz key prefix -> label.
ABLATION = {"visc": "Visc-20", "temp": "Temp-20", "nyx": "Nyx-20"}

ZFP_SHAPES = {1: (64,), 2: (32, 32), 3: (16, 16, 16)}
#: Accuracy-mode tolerances as powers of two of the field's range.
ZFP_TOLERANCE_EXPONENTS = (8, 16, 24)
#: Fixed-rate budgets in bits per block.
ZFP_BLOCK_BITS = (13, 14, 15, 17, 20, 64, 200)


def build_outlier_cases() -> dict[str, np.ndarray]:
    """The ablation's outlier lists, as stored in :data:`OUTLIER_CASES`."""
    from repro.analysis.outliers import _intercept_outliers
    from repro.datasets import (
        miranda_viscosity,
        nyx_dark_matter_density,
        s3d_temperature,
    )

    fields = {
        "visc": miranda_viscosity,
        "temp": s3d_temperature,
        "nyx": nyx_dark_matter_density,
    }
    out = {}
    for key, field in fields.items():
        data = field((24, 24, 24))
        t = float(data.max() - data.min()) / 2**20
        pos, corr = _intercept_outliers(data, t, 1.5)
        out.update(
            {
                f"{key}_pos": pos.astype(np.int64),
                f"{key}_corr": corr.astype(np.float64),
                f"{key}_t": np.float64(t),
                f"{key}_n": np.int64(data.size),
            }
        )
    return out


def outlier_inputs() -> dict[str, tuple[np.ndarray, np.ndarray, int, float]]:
    """``label -> (positions, corrections, n, tolerance)``."""
    stored = np.load(OUTLIER_CASES)
    cases = {
        label: (
            stored[f"{key}_pos"],
            stored[f"{key}_corr"],
            int(stored[f"{key}_n"]),
            float(stored[f"{key}_t"]),
        )
        for key, label in ABLATION.items()
    }
    g = np.random.default_rng(11)
    pos = np.unique(g.integers(0, 2**40, size=64))
    corr = g.uniform(-(2.0**35), 2.0**35, size=pos.size)
    cases["wide"] = (pos, corr, 2**40, 0.5)
    return cases


def elias_inputs() -> dict[str, np.ndarray]:
    return {
        "1-64": np.arange(1, 65),
        "zigzag": zigzag(np.random.default_rng(24).integers(-1000, 1000, size=300)),
        "30-bit": np.random.default_rng(21).integers(1, 2**30, size=200),
        "50-bit": np.random.default_rng(22).integers(1, 2**50, size=200),
        "63-bit": np.random.default_rng(23).integers(1, 2**63 - 1, size=100),
    }


def zfp_inputs() -> dict[str, tuple[np.ndarray, object]]:
    """``name -> (field, mode)``."""
    cases = {}
    for nd, shape in ZFP_SHAPES.items():
        data = np.random.default_rng(30 + nd).standard_normal(shape).cumsum(axis=-1)
        span = float(data.max() - data.min())
        for k in ZFP_TOLERANCE_EXPONENTS:
            cases[f"{nd}d/accuracy-2^-{k}"] = (data, PweMode(span * 2.0**-k))
        for bits in ZFP_BLOCK_BITS:
            cases[f"{nd}d/rate-{bits}"] = (data, SizeMode(bpp=bits / 4**nd))
    return cases


def _sha(buf: bytes) -> str:
    return hashlib.sha256(buf).hexdigest()


def _bytes_record(buf: bytes) -> dict:
    return {"sha256": _sha(buf), "nbytes": len(buf)}


def _stream_record(stream: tuple[bytes, int]) -> dict:
    buf, nbits = stream
    return {"sha256": _sha(buf), "nbits": nbits}


def _compute_case(group: str, name: str) -> dict:
    if group == "outliers":
        pos, corr, n, t = outlier_inputs()[name]
        record = {"csr": _bytes_record(csr_encode(pos, corr, n, t))}
        if name != "wide":
            record["bitmap"] = _bytes_record(bitmap_encode(pos, corr, n, t))
        return record
    if group == "elias":
        values = elias_inputs()[name]
        return {
            "gamma": _stream_record(gamma_encode(values)),
            "delta": _stream_record(delta_encode(values)),
        }
    data, mode = zfp_inputs()[name]
    return _bytes_record(ZfpLikeCompressor().compress(data, mode))


def _case_names() -> dict[str, list[str]]:
    return {
        "outliers": list(outlier_inputs()),
        "elias": list(elias_inputs()),
        "zfp": list(zfp_inputs()),
    }


def compute_digests() -> dict:
    return {
        group: {name: _compute_case(group, name) for name in names}
        for group, names in _case_names().items()
    }


def dump(digests: dict) -> str:
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


# An absent file leaves GOLDEN empty, which the case-set test reports.
GOLDEN = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_case_set_matches_golden():
    assert {g: sorted(n) for g, n in _case_names().items()} == {
        g: sorted(cases) for g, cases in GOLDEN.items()
    }


@pytest.mark.parametrize(
    "group, name",
    [(g, n) for g, cases in sorted(GOLDEN.items()) for n in sorted(cases)],
)
def test_bytes_match_golden(group, name):
    assert _compute_case(group, name) == GOLDEN[group][name]
