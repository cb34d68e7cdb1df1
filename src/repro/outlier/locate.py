"""Outlier location: step 3 of the SPERR pipeline (paper Sec. V-C).

Compares the wavelet reconstruction against the original input and
returns every point whose absolute error exceeds the PWE tolerance,
together with the exact correction value ``corr = x - x̃``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from ..obs import span

__all__ = ["locate_outliers", "locate_outliers_batch"]


def locate_outliers(
    original: np.ndarray, reconstruction: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Find points violating the tolerance; returns flat ``(positions, corrections)``.

    This is :func:`locate_outliers_batch` on a stack of one.
    """
    _, positions, corrections = locate_outliers_batch(
        np.asarray(original)[None], np.asarray(reconstruction)[None], tolerance
    )
    return positions, corrections


def locate_outliers_batch(
    original: np.ndarray, reconstruction: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outliers of a ``(lanes, ...)`` stack: ``(lanes, positions, corrections)``.

    ``positions`` are flat indices within each lane.  ``np.nonzero``
    walks the mask in C order, so each lane's positions come out
    ascending, grouped by lane.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if original.shape != reconstruction.shape:
        raise InvalidArgumentError("original and reconstruction shapes differ")
    if not np.isfinite(tolerance) or tolerance <= 0:
        raise InvalidArgumentError("PWE tolerance must be positive")
    n_lanes = original.shape[0]
    with span("outlier.locate", tolerance=tolerance, lanes=n_lanes) as sp:
        err = original.reshape(n_lanes, -1) - reconstruction.reshape(n_lanes, -1)
        lanes, positions = np.nonzero(np.abs(err) > tolerance)
        sp.set(n_outliers=int(lanes.size))
    return lanes, positions, err[lanes, positions]
