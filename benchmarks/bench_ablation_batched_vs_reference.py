"""Ablation: batched (vectorized) SPECK vs the canonical reference coder.

DESIGN.md's one deliberate deviation from the textbook algorithm is
batch processing of each depth level.  This bench quantifies the two
facts that justify it: the bit cost is *identical* (batching only
reorders bits inside deterministic windows) and the vectorized codec is
orders of magnitude faster in Python.  The reference coder is a test
oracle and lives in ``tests/speck_oracle.py``, so this bench puts
``tests/`` on ``sys.path`` to import it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from common import emit, quick_mode
from repro.analysis import banner, format_table
from repro.datasets import spectral_field
from repro.quant import integerize
from repro.speck import codec as speck_codec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from speck_oracle import reference_encode  # noqa: E402


def test_ablation_batched_vs_reference(benchmark):
    shape = (12, 12, 12) if quick_mode() else (16, 16, 16)
    field = spectral_field(shape, slope=3.0, seed=9)
    q = float(field.max() - field.min()) / 2**12
    mags, neg = integerize(field, q)

    rows = []

    def run():
        t0 = time.perf_counter()
        _, bits_batched, _ = speck_codec.encode(mags, neg)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, bits_reference = reference_encode(mags, neg)
        t_reference = time.perf_counter() - t0
        rows.append(
            [
                f"{shape}",
                bits_batched,
                bits_reference,
                t_batched,
                t_reference,
                f"{t_reference / max(t_batched, 1e-9):.0f}x",
            ]
        )
        return bits_batched, bits_reference

    bits_batched, bits_reference = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bits_batched == bits_reference, "batching changed the bit cost"

    emit(
        "ablation_batched",
        banner("Ablation: batched vs canonical SPECK")
        + "\n"
        + format_table(
            ["volume", "batched bits", "reference bits", "batched s", "reference s", "speedup"],
            rows,
        )
        + "\n(identical bit cost by construction; the batching exists purely "
        "for numpy vectorization)",
    )
