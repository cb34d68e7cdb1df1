"""Ablation: the Sec. II outlier-coding design space, measured.

The paper motivates its SPECK-inspired outlier coder by arguing the
natural alternatives are worse:

* CSR/CSC sparse storage — "far from optimal ... naive storage to record
  element positions and values";
* bitmap-coded positions + universal-coded values;
* SZ's dense quantization-bin scheme (Huffman over all points).

This bench intercepts real SPERR outlier lists (positions clustered
nowhere, corrections concentrated just above t) and codes the *same*
lists with all four designs.  The CSR and bitmap coders are ablation
code, not part of the package: they live in ``tests/outlier_designs.py``,
so this bench puts ``tests/`` on ``sys.path`` to import them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from common import emit
from repro.analysis import banner, format_table
from repro.analysis.outliers import _intercept_outliers
from repro.compressors.szlike import codec as sz_codec
from repro.datasets import miranda_viscosity, nyx_dark_matter_density, s3d_temperature
from repro.outlier import encode_outliers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from outlier_designs import bitmap_encode, csr_encode  # noqa: E402


def test_ablation_outlier_design_space(benchmark):
    # The quick pass runs the full size too (tens of milliseconds): at
    # 16^3 a 4096-point bitmap costs ~65 raw bits per outlier before the
    # lossless pass, which breaks the ordering the paper's claim is about.
    shape = (24, 24, 24)
    cases = {
        "Visc-20": (miranda_viscosity(shape), 20),
        "Temp-20": (s3d_temperature(shape), 20),
        "Nyx-20": (nyx_dark_matter_density(shape), 20),
    }

    rows = []

    def run():
        for label, (data, idx) in cases.items():
            t = float(data.max() - data.min()) / 2**idx
            pos, corr = _intercept_outliers(data, t, 1.5)
            k = pos.size
            if k == 0:
                continue
            n = data.size
            sperr_bits = encode_outliers(pos, corr, n, t).nbits / k
            csr_bits = 8 * len(csr_encode(pos, corr, n, t)) / k
            bitmap_bits = 8 * len(bitmap_encode(pos, corr, n, t)) / k
            dense = np.zeros(n)
            dense[pos] = corr
            codes, esc = sz_codec.quantize_residuals(dense, t)
            sz_bits = 8 * len(sz_codec.encode_bins(codes, esc)) / k
            rows.append([label, k, sperr_bits, bitmap_bits, sz_bits, csr_bits])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert rows, "no outliers intercepted"

    sperr_best = 0
    for row in rows:
        label, k, sperr_bits, bitmap_bits, sz_bits, csr_bits = row
        # CSR's naive position storage is the worst of the bunch
        assert csr_bits >= max(sperr_bits, bitmap_bits) - 0.5, row
        if sperr_bits <= min(bitmap_bits, sz_bits, csr_bits) + 1e-9:
            sperr_best += 1
    assert sperr_best >= (len(rows) + 1) // 2

    emit(
        "ablation_outlier_designs",
        banner(f"Ablation: outlier coder design space, bits/outlier ({shape})")
        + "\n"
        + format_table(
            ["case", "outliers", "SPERR", "bitmap+Elias", "SZ bins", "CSR"], rows
        )
        + "\n(paper Sec. II: the unified SPECK-style coder beats naive sparse "
        "storage and the bitmap/universal-code split)",
    )
