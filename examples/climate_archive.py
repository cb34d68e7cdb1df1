"""Archiving a multi-variable climate-like data set under error control.

This mirrors the paper's motivating scenario (Sec. I): large community
data sets — e.g. the 500 TB CESM LENS archive — are written once and
read for years, so rate matters more than speed, and every variable
needs a quality guarantee that downstream scientists can rely on.

The script compresses several variables with per-variable tolerances,
verifies the guarantee on every one, and prints an archive manifest.

Run: python examples/climate_archive.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.analysis import format_table
from repro.datasets import (
    miranda_density,
    miranda_pressure,
    miranda_velocity_x,
    s3d_temperature,
)
from repro.metrics import max_pwe, psnr, ssim

#: variable name -> (generator, tolerance label idx)
VARIABLES = {
    "pressure": (miranda_pressure, 20),
    "temperature": (s3d_temperature, 20),
    "density": (miranda_density, 24),
    "u_velocity": (miranda_velocity_x, 16),
}

SHAPE = (48, 48, 48)
CHUNK = 24  # chunked for parallel decompression by downstream readers


def main() -> None:
    rows = []
    total_in = 0
    total_out = 0
    for name, (gen, idx) in VARIABLES.items():
        data = gen(SHAPE)
        tolerance = repro.tolerance_from_idx(data, idx)
        result = repro.compress(
            data, repro.PweMode(tolerance), chunk_shape=CHUNK, workers=2
        )
        recon = repro.decompress(result.payload)
        err = max_pwe(data, recon)
        assert err <= tolerance, f"guarantee violated for {name}"
        rows.append(
            [
                name,
                idx,
                f"{data.nbytes / result.nbytes:.1f}x",
                f"{result.bpp:.2f}",
                f"{psnr(data, recon):.1f}",
                f"{ssim(data, recon, window=5):.5f}",
                result.n_outliers,
            ]
        )
        total_in += data.nbytes
        total_out += result.nbytes

    print("archive manifest (every variable satisfies its PWE tolerance):\n")
    print(
        format_table(
            ["variable", "idx", "ratio", "bpp", "PSNR dB", "SSIM", "outliers"], rows
        )
    )
    print(
        f"\narchive total: {total_in / 1e6:.1f} MB -> {total_out / 1e6:.2f} MB "
        f"({total_in / total_out:.1f}x reduction)"
    )


if __name__ == "__main__":
    main()
