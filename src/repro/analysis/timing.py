"""Timing studies: the Fig. 6 stage breakdown (the Fig. 10 runtime grid
times ``repro.compress`` directly in its bench)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.modes import PweMode
from ..core.pipeline import compress_chunk

__all__ = [
    "StageBreakdown",
    "time_breakdown",
    "STAGE_SPANS",
]

#: Fig. 6 stage -> the obs span names whose wall time it aggregates.
#: ``locate`` includes the PWE-path inverse transform because the paper
#: counts reconstruction as part of outlier detection.
STAGE_SPANS: dict[str, tuple[str, ...]] = {
    "transform": ("wavelet.forward",),
    "speck": ("speck.encode",),
    "locate": ("outlier.locate", "wavelet.inverse"),
    "outlier_code": ("outlier.encode",),
}


@dataclass(frozen=True)
class StageBreakdown:
    """Serial per-stage compression time for one tolerance level (Fig. 6)."""

    idx: int
    transform: float
    speck: float
    locate: float
    outlier_code: float

    @property
    def total(self) -> float:
        return self.transform + self.speck + self.locate + self.outlier_code


def time_breakdown(
    data: np.ndarray, idx_values: list[int], *, repeats: int = 3
) -> list[StageBreakdown]:
    """Measure the four pipeline stages at each tolerance level.

    Each level runs ``repeats`` serial :func:`compress_chunk` passes
    under an :class:`~repro.obs.trace` and keeps the per-stage minimum
    (the classic noise-rejecting estimator), aggregating span wall time
    per :data:`STAGE_SPANS` — the same collector the CLI's ``--trace``
    and the benchmark's traced pass (``perfbench/run.py --trace 1``)
    consume.
    """
    data = np.asarray(data, dtype=np.float64)
    rng = float(data.max() - data.min())
    if idx_values:
        # Untraced warm-up so the first measured level does not absorb
        # plan-cache misses and lazy numpy initialisation.
        compress_chunk(data, PweMode(rng / float(2 ** idx_values[0])))
    out: list[StageBreakdown] = []
    for idx in idx_values:
        best: dict[str, float] = {}
        for _ in range(max(1, repeats)):
            with obs.trace("fig6.breakdown") as tracer:
                compress_chunk(data, PweMode(rng / float(2**idx)))
            totals = tracer.report().stage_totals()
            for stage, names in STAGE_SPANS.items():
                wall = sum(totals.get(name, 0.0) for name in names)
                best[stage] = min(best.get(stage, wall), wall)
        out.append(StageBreakdown(idx=idx, **best))
    return out
