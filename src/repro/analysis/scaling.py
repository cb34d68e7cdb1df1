"""Strong-scaling study (Fig. 7) of the chunk-parallel compressor.

The paper measures OpenMP speedups on a 128-core node.  This container
exposes a single core, so — per the documented substitution in DESIGN.md
— the speedup curve is *modelled* from measured per-chunk serial times:

* each chunk's compression time is measured individually (serial);
* a P-worker schedule is simulated with longest-processing-time-first
  assignment (what a work-stealing OpenMP loop approximates);
* speedup(P) = serial_total / (makespan(P) + serial_overhead).

This reproduces exactly the phenomenology of Fig. 7: near-linear scaling
while chunks >> workers, a bend as the chunk count stops dividing
evenly, and a plateau at the chunk-count limit that the paper's
Sec. III-D concedes.  On a machine with more cores, real process-pool
timings come from ``repro.compress(..., workers=P)``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..core.chunking import plan_chunks, split
from ..core.modes import PweMode
from ..core.pipeline import compress_chunk
from ..errors import InvalidArgumentError

__all__ = ["ScalingStudy", "measure_chunk_times", "simulated_speedups", "lpt_makespan"]


@dataclass(frozen=True)
class ScalingStudy:
    """Measured per-chunk times plus the modelled speedup curve."""

    idx: int
    chunk_times: tuple[float, ...]
    overhead_seconds: float
    workers: tuple[int, ...]
    speedups: tuple[float, ...]


def measure_chunk_times(
    data: np.ndarray,
    idx: int,
    chunk_shape: int | tuple[int, ...],
) -> tuple[list[float], float]:
    """Per-chunk serial compression times and the serial setup overhead."""
    data = np.asarray(data, dtype=np.float64)
    rng = float(data.max() - data.min())
    mode = PweMode(rng / float(2**idx))
    t0 = time.perf_counter()
    chunks = plan_chunks(data.shape, chunk_shape)
    parts = split(data, chunks)
    overhead = time.perf_counter() - t0
    times = []
    for part in parts:
        t1 = time.perf_counter()
        compress_chunk(part, mode)
        times.append(time.perf_counter() - t1)
    return times, overhead


def lpt_makespan(times: list[float], workers: int) -> float:
    """Makespan of a longest-processing-time-first schedule on P workers."""
    if workers < 1:
        raise InvalidArgumentError("workers must be positive")
    loads = [0.0] * min(workers, max(1, len(times)))
    heap = list(loads)
    heapq.heapify(heap)
    for t in sorted(times, reverse=True):
        least = heapq.heappop(heap)
        heapq.heappush(heap, least + t)
    return max(heap) if heap else 0.0


def simulated_speedups(
    times: list[float],
    overhead: float,
    workers: list[int],
) -> list[float]:
    """Amdahl-style speedup model from measured chunk times."""
    serial = sum(times) + overhead
    out = []
    for p in workers:
        makespan = lpt_makespan(times, p)
        out.append(serial / (makespan + overhead) if makespan + overhead > 0 else 1.0)
    return out


def scaling_study(
    data: np.ndarray,
    idx: int,
    chunk_shape: int | tuple[int, ...],
    workers: list[int],
) -> ScalingStudy:
    """Full Fig. 7 measurement for one tolerance level."""
    times, overhead = measure_chunk_times(data, idx, chunk_shape)
    return ScalingStudy(
        idx=idx,
        chunk_times=tuple(times),
        overhead_seconds=overhead,
        workers=tuple(workers),
        speedups=tuple(simulated_speedups(times, overhead, workers)),
    )
