"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one table or figure of the paper:
it regenerates the figure's data series (workload, sweep, baselines),
prints them in the layout the paper plots, and stores a copy under
``benchmarks/results/`` so EXPERIMENTS.md can cite the measured values.
A quick pass (``REPRO_BENCH_QUICK=1``) writes its smaller series to the
git-ignored ``benchmarks/results_quick/`` instead, so a smoke run never
rewrites a committed result.

Volume sizes are scaled down from the paper's testbed (up to 3072^3) to
laptop-scale (24^3-64^3); DESIGN.md documents why the rate-distortion
*shape* survives the scaling.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
QUICK_RESULTS_DIR = Path(__file__).resolve().parent / "results_quick"

#: Default volume for the heavier sweeps.
BENCH_SHAPE = (32, 32, 32)
#: Smaller volume for the per-compressor grids.
GRID_SHAPE = (24, 24, 24)


def emit(name: str, text: str) -> None:
    """Print a bench's series and persist them under results/
    (results_quick/ in a quick pass)."""
    print(text)
    directory = QUICK_RESULTS_DIR if quick_mode() else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    with open(directory / f"{name}.txt", "w") as f:
        f.write(text + "\n")


def quick_mode() -> bool:
    """Honour REPRO_BENCH_QUICK=1 for a fast smoke pass."""
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"
