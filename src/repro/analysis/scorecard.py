"""Codec × scenario robustness matrix.

Runs every codec of the comparison study over the robustness scenarios
(:mod:`repro.datasets.scenarios`) and scores each cell: compression
ratio, max point-wise error and PSNR on the *valid* samples, wall time,
and a pass/fail verdict.  The verdict is the robustness envelope in
one bit per cell:

* the roundtrip must not raise;
* the output dtype must equal the input dtype bit-for-bit;
* NaN/±Inf positions (and their kinds) must be restored exactly;
* for PWE-mode codecs, ``|x - x'| <= tolerance`` on every valid sample.

Every row is one :func:`repro.core.compress` call: the baselines run
under their container codec tags, ``sperr`` and ``szx-like`` are the
``quality`` and ``fast`` tiers, so masks and dtype are the container's
in every row.  The ``adaptive`` row — the chunked pipeline under
per-chunk codec dispatch — reports the chunk-routing counts read back
from the container's chunk table.  4-D scenarios compress
frame-by-frame along the leading axis, matching the paper's time-series
treatment.

``run_scorecard(smoke_only=True)`` is the tier-1 subset
(``tests/test_scenarios.py``); the full matrix backs the opt-in CI
sweep and the ``sperr scorecard --full`` CLI command.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..compressors.base import psnr_target_for_idx
from ..core.adaptive import CODEC_NAMES
from ..core.container import compress, decompress, parse_container
from ..core.modes import PsnrMode, PweMode
from ..datasets.scenarios import SCENARIOS, Scenario
from ..errors import InvalidArgumentError
from ..metrics import max_pwe, psnr
from .report import format_table

__all__ = ["ScorecardCell", "Scorecard", "run_scorecard", "format_scorecard"]

#: PWE tolerance as a fraction of the valid-sample data range.
_TOL_FRACTION = 2.0**-10

#: Fallback absolute tolerance for zero-range (constant) scenarios.
_TOL_FLOOR = 1e-6

#: PSNR target for the PSNR-only codec (the paper's idx-16 operating point).
_PSNR_IDX = 16


@dataclass(frozen=True)
class ScorecardCell:
    """One codec × scenario result."""

    codec: str
    scenario: str
    passed: bool
    ratio: float | None = None
    max_pwe: float | None = None
    psnr_db: float | None = None
    seconds: float | None = None
    error: str | None = None
    notes: tuple[str, ...] = ()
    #: Per-chunk codec routing counts (adaptive rows only), e.g.
    #: ``{"sperr": 4, "szx": 4}``.
    routing: dict | None = None


@dataclass
class Scorecard:
    """The full matrix plus summary accounting."""

    cells: list[ScorecardCell] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        """Number of failing cells."""
        return sum(not c.passed for c in self.cells)

    def failures(self) -> list[ScorecardCell]:
        """The failing cells, for gate output."""
        return [c for c in self.cells if not c.passed]

    def to_dict(self) -> dict:
        """JSON-ready form (the CI artifact)."""
        return {
            "n_cells": len(self.cells),
            "n_failed": self.n_failed,
            "cells": [asdict(c) for c in self.cells],
        }


def _tolerance(data: np.ndarray) -> float:
    """PWE tolerance for a scenario: range/2^10 over the valid samples."""
    valid = data[np.isfinite(data)]
    if valid.size == 0:
        return _TOL_FLOOR
    rng = float(valid.max() - valid.min())
    return max(rng * _TOL_FRACTION, _TOL_FLOOR)


def _check_cell(
    data: np.ndarray, out: np.ndarray, mode, tol: float
) -> tuple[bool, str | None, float | None, float | None]:
    """Verdict plus valid-sample metrics for one finished roundtrip."""
    if out.dtype != data.dtype:
        return False, f"dtype {out.dtype} != input {data.dtype}", None, None
    if out.shape != data.shape:
        return False, f"shape {out.shape} != input {data.shape}", None, None
    for kind, pred in (
        ("NaN", np.isnan),
        ("+Inf", np.isposinf),
        ("-Inf", np.isneginf),
    ):
        if not np.array_equal(pred(data), pred(out)):
            return False, f"{kind} positions not restored exactly", None, None
    valid = np.isfinite(data)
    if not valid.any():
        return True, None, None, None
    err = max_pwe(data, out, mask=valid)
    quality = psnr(data, out, mask=valid)
    if isinstance(mode, PweMode) and err > tol * (1.0 + 1e-9):
        return False, f"PWE {err:.3e} exceeds tolerance {tol:.3e}", err, quality
    return True, None, err, quality


#: Container ``codec=`` value and chunking behind each matrix row.  The
#: registry baselines run under their own tags; ``sperr`` and
#: ``szx-like`` are the quality and fast tiers, and ``adaptive`` is the
#: per-chunk dispatcher on a chunked grid.
_ROWS = {
    "sperr": ("quality", None),
    "sz-like": ("sz-like", None),
    "szx-like": ("fast", None),
    "zfp-like": ("zfp-like", None),
    "tthresh-like": ("tthresh-like", None),
    "mgard-like": ("mgard-like", None),
    "adaptive": ("adaptive", 16),
}


def _roundtrip_frame(
    name: str, frame: np.ndarray, mode, routing: dict[str, int]
) -> tuple[np.ndarray, int, list]:
    """One container roundtrip; adaptive rows count their chunk routing."""
    codec, chunk = _ROWS[name]
    result = compress(frame, mode, chunk_shape=chunk, codec=codec)
    if name == "adaptive":
        for tag in parse_container(result.payload).codec_tags:
            key = CODEC_NAMES[tag]
            routing[key] = routing.get(key, 0) + 1
    return decompress(result.payload), result.nbytes, result.notes


def run_scorecard(
    *,
    smoke_only: bool = True,
    codecs: list[str] | None = None,
    scenarios: list[Scenario] | None = None,
) -> Scorecard:
    """Run the matrix and return the populated :class:`Scorecard`."""
    if scenarios is None:
        scenarios = [
            s for s in SCENARIOS.values() if s.smoke or not smoke_only
        ]
    known = set(_ROWS)
    names = codecs if codecs is not None else list(_ROWS)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise InvalidArgumentError(
            f"unknown codec(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(known))}"
        )
    card = Scorecard()
    for scenario in scenarios:
        data = scenario.build()
        tol = _tolerance(data)
        for name in names:
            mode = (
                PsnrMode(psnr_target_for_idx(_PSNR_IDX))
                if name == "tthresh-like"
                else PweMode(tol)
            )
            routing: dict[str, int] = {}
            start = time.perf_counter()
            try:
                payload_bytes = 0
                outs = []
                for frame in data if data.ndim > 3 else [data]:
                    out, nbytes, notes = _roundtrip_frame(
                        name, frame, mode, routing
                    )
                    payload_bytes += nbytes
                    outs.append(out)
                out = np.stack(outs) if data.ndim > 3 else outs[0]
            except Exception as exc:  # noqa: BLE001 - the verdict boundary
                card.cells.append(
                    ScorecardCell(
                        codec=name,
                        scenario=scenario.name,
                        passed=False,
                        seconds=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            elapsed = time.perf_counter() - start
            passed, error, err, quality = _check_cell(data, out, mode, tol)
            card.cells.append(
                ScorecardCell(
                    codec=name,
                    scenario=scenario.name,
                    passed=passed,
                    ratio=data.nbytes / payload_bytes if payload_bytes else None,
                    max_pwe=err,
                    psnr_db=quality,
                    seconds=elapsed,
                    error=error,
                    notes=tuple(str(n) for n in notes),
                    routing=routing or None,
                )
            )
    return card


def format_scorecard(card: Scorecard) -> str:
    """ASCII matrix table plus a one-line verdict."""
    rows = []
    for c in card.cells:
        rows.append(
            [
                c.scenario,
                c.codec,
                "pass" if c.passed else "FAIL",
                "-" if c.ratio is None else f"{c.ratio:.1f}",
                "-" if c.max_pwe is None else f"{c.max_pwe:.2e}",
                "-" if c.psnr_db is None else f"{c.psnr_db:.1f}",
                "-" if c.seconds is None else f"{c.seconds:.2f}",
                "-"
                if not c.routing
                else " ".join(f"{k}:{v}" for k, v in sorted(c.routing.items())),
                c.error or "",
            ]
        )
    table = format_table(
        [
            "scenario",
            "codec",
            "verdict",
            "ratio",
            "max_pwe",
            "psnr",
            "sec",
            "routing",
            "error",
        ],
        rows,
    )
    verdict = (
        f"{len(card.cells)} cells, {card.n_failed} failed"
        if card.n_failed
        else f"{len(card.cells)} cells, all passing"
    )
    return f"{table}\n{verdict}"
