"""Seeded, composable corruption operators and a decoder-fuzz driver.

The fault model covers what real storage and transport actually do to
bitstreams: single/multi bit flips, tail truncation, forged section
tables, chunk swap/duplication, and inflated length fields.  Every
operator is a pure function ``(payload, rng) -> bytes`` wrapped in a
:class:`FaultOperator`, so corruption campaigns are reproducible from a
single integer seed.

The contract the fuzz driver enforces (:func:`fuzz_decoder`): feeding any
corrupted payload to a decoder must either

* decode to *something* (damage landed in a don't-care region or was
  salvaged), or
* raise a :class:`~repro.errors.ReproError` subclass.

A raw ``struct.error`` / ``IndexError`` / ``KeyError`` escaping, an
unbounded allocation, or a hang is a decoder bug; the driver records
each as a :class:`FuzzViolation` with the seed that reproduces it.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ReproError

__all__ = [
    "FaultOperator",
    "CorruptionResult",
    "FuzzViolation",
    "FuzzReport",
    "FAULT_OPERATORS",
    "ARRAY_FAULT_OPERATORS",
    "corrupt",
    "inject_nonfinite",
    "fuzz_decoder",
    "fuzz_codec_inputs",
]


@dataclass(frozen=True)
class FaultOperator:
    """A named, seeded corruption of a byte payload."""

    name: str
    fn: Callable[[bytes, np.random.Generator], bytes]

    def __call__(self, payload: bytes, rng: np.random.Generator) -> bytes:
        """Apply the operator; always returns a new ``bytes`` object."""
        return self.fn(payload, rng)


def _bit_flip(payload: bytes, rng: np.random.Generator) -> bytes:
    """Flip 1-8 random bits anywhere in the payload."""
    if not payload:
        return payload
    buf = bytearray(payload)
    for _ in range(int(rng.integers(1, 9))):
        pos = int(rng.integers(0, len(buf)))
        buf[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def _truncate(payload: bytes, rng: np.random.Generator) -> bytes:
    """Cut the payload at a random point (including down to nothing)."""
    if not payload:
        return payload
    return payload[: int(rng.integers(0, len(payload)))]


def _forge_section_table(payload: bytes, rng: np.random.Generator) -> bytes:
    """Overwrite 8 aligned bytes in the header region with random garbage.

    Container headers (magic, shape, chunk bounds, size table) live at
    the front; damaging them exercises every framing validation path.
    """
    if len(payload) < 16:
        return _bit_flip(payload, rng)
    head_span = min(len(payload) - 8, 256)
    pos = int(rng.integers(0, head_span // 8 + 1)) * 8
    buf = bytearray(payload)
    buf[pos : pos + 8] = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
    return bytes(buf)


def _inflate_length_field(payload: bytes, rng: np.random.Generator) -> bytes:
    """Replace an aligned u32/u64 with a huge value.

    Simulates a corrupted length/count field; the decoder must reject it
    (or cap the allocation) rather than call ``np.empty`` on terabytes.
    """
    width = 8 if rng.integers(0, 2) else 4
    if len(payload) < width + 4:
        return _bit_flip(payload, rng)
    span = min(len(payload) - width, 512)
    pos = int(rng.integers(0, span // 4 + 1)) * 4
    huge = int(rng.integers(2**30, 2**62)) if width == 8 else int(rng.integers(2**28, 2**31))
    buf = bytearray(payload)
    buf[pos : pos + width] = huge.to_bytes(width, "little")
    return bytes(buf)


def _swap_segments(payload: bytes, rng: np.random.Generator) -> bytes:
    """Swap two equal-length interior segments (chunk-swap stand-in).

    On a multi-chunk container this transplants stream bytes between
    chunks; on a single-stream payload it scrambles section contents.
    Either way the total length is preserved, so only content checks
    (CRCs, shape cross-checks) can catch it.
    """
    if len(payload) < 32:
        return _bit_flip(payload, rng)
    seg = int(rng.integers(4, min(64, len(payload) // 4)))
    a = int(rng.integers(0, len(payload) - 2 * seg))
    b = int(rng.integers(a + seg, len(payload) - seg + 1))
    buf = bytearray(payload)
    buf[a : a + seg], buf[b : b + seg] = buf[b : b + seg], buf[a : a + seg]
    return bytes(buf)


def _duplicate_segment(payload: bytes, rng: np.random.Generator) -> bytes:
    """Duplicate an interior segment in place (chunk-duplication stand-in).

    Grows the payload, so section tables no longer match the bytes that
    are actually present — decoders must notice the trailing surplus.
    """
    if len(payload) < 16:
        return payload + payload
    seg = int(rng.integers(4, min(128, len(payload) // 2)))
    a = int(rng.integers(0, len(payload) - seg))
    insert_at = int(rng.integers(0, len(payload)))
    piece = payload[a : a + seg]
    return payload[:insert_at] + piece + payload[insert_at:]


#: The composable fault model, keyed by operator name.
FAULT_OPERATORS: dict[str, FaultOperator] = {
    op.name: op
    for op in (
        FaultOperator("bit_flip", _bit_flip),
        FaultOperator("truncate", _truncate),
        FaultOperator("forge_section_table", _forge_section_table),
        FaultOperator("inflate_length_field", _inflate_length_field),
        FaultOperator("swap_segments", _swap_segments),
        FaultOperator("duplicate_segment", _duplicate_segment),
    )
}


# -- input-array fault model ---------------------------------------------
#
# Bitstream corruption (above) models what storage does to *payloads*;
# these operators model what simulations do to *inputs*: NaN land
# masks, ±Inf overflow points, and fully-invalid frames.  Each is a
# pure function ``(array, rng) -> array`` returning a modified copy.


def _inject_scattered_nan(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Poke NaN into a random 0.1-10% of the samples."""
    out = np.array(data, copy=True)
    flat = out.reshape(-1)
    n = max(1, int(flat.size * float(rng.uniform(0.001, 0.1))))
    flat[rng.choice(flat.size, size=n, replace=False)] = np.nan
    return out


def _inject_scattered_inf(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Poke ±Inf overflow points into a random handful of samples."""
    out = np.array(data, copy=True)
    flat = out.reshape(-1)
    n = max(2, int(flat.size * float(rng.uniform(0.0005, 0.02))))
    idx = rng.choice(flat.size, size=n, replace=False)
    flat[idx[: n // 2]] = np.inf
    flat[idx[n // 2 :]] = -np.inf
    return out


def _inject_nan_block(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """NaN out a contiguous corner block (ocean land-mask style)."""
    out = np.array(data, copy=True)
    sel = tuple(
        slice(0, int(rng.integers(1, max(2, n // 2)))) for n in out.shape
    )
    out[sel] = np.nan
    return out


def _inject_all_nan(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Invalidate the entire frame (a fully-masked region of a run)."""
    return np.full_like(data, np.nan)


#: The input-array fault model, keyed by operator name.
ARRAY_FAULT_OPERATORS: dict[str, FaultOperator] = {
    op.name: op
    for op in (
        FaultOperator("scattered_nan", _inject_scattered_nan),
        FaultOperator("scattered_inf", _inject_scattered_inf),
        FaultOperator("nan_block", _inject_nan_block),
        FaultOperator("all_nan", _inject_all_nan),
    )
}


@dataclass(frozen=True)
class CorruptionResult:
    """A corrupted payload plus the operators that produced it."""

    payload: bytes
    applied: tuple[str, ...]
    seed: int


def corrupt(
    payload: bytes,
    seed: int,
    operators: list[str] | None = None,
    n_ops: int = 1,
) -> CorruptionResult:
    """Apply ``n_ops`` seeded operators (composed left to right).

    ``operators=None`` draws from the full :data:`FAULT_OPERATORS` set;
    a list of names restricts the pool.  The same ``(payload, seed,
    operators, n_ops)`` always produces the same corruption.
    """
    rng = np.random.default_rng(seed)
    pool = list(operators) if operators is not None else sorted(FAULT_OPERATORS)
    applied = []
    out = payload
    for _ in range(n_ops):
        name = pool[int(rng.integers(0, len(pool)))]
        out = FAULT_OPERATORS[name](out, rng)
        applied.append(name)
    return CorruptionResult(payload=out, applied=tuple(applied), seed=seed)


def inject_nonfinite(
    data: np.ndarray,
    seed: int,
    operators: list[str] | None = None,
    n_ops: int = 1,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Apply ``n_ops`` seeded input-array operators (composed in order).

    The array analogue of :func:`corrupt`: ``operators=None`` draws from
    the full :data:`ARRAY_FAULT_OPERATORS` set.  Returns the corrupted
    copy plus the applied chain; the input is never modified.
    """
    rng = np.random.default_rng(seed)
    pool = (
        list(operators) if operators is not None else sorted(ARRAY_FAULT_OPERATORS)
    )
    applied = []
    out = np.asarray(data)
    for _ in range(n_ops):
        name = pool[int(rng.integers(0, len(pool)))]
        out = ARRAY_FAULT_OPERATORS[name](out, rng)
        applied.append(name)
    return out, tuple(applied)


@dataclass(frozen=True)
class FuzzViolation:
    """One fuzz case that broke the decoder contract."""

    seed: int
    applied: tuple[str, ...]
    kind: str  # "exception" | "hang" | "operator" | "contract"
    detail: str


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign over one decoder."""

    n_runs: int = 0
    n_decoded: int = 0
    n_rejected: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)
    slowest_seconds: float = 0.0
    #: Campaign parameters, recorded so every violation is replayable
    #: without hunting through the test that launched it.  ``operators``
    #: is the *pool* the campaign drew from (None = all operators) — a
    #: replay must pass the same pool, not the applied chain, because
    #: :func:`corrupt` draws names from the pool with the seeded rng.
    operators: tuple[str, ...] | None = None
    n_ops: int = 1

    @property
    def ok(self) -> bool:
        """True when no corruption escaped the error contract."""
        return not self.violations

    def summary(self) -> str:
        """One-line digest for assertion messages."""
        head = (
            f"{self.n_runs} corruptions: {self.n_decoded} decoded, "
            f"{self.n_rejected} rejected cleanly, "
            f"{len(self.violations)} contract violations"
        )
        if self.violations:
            pool = list(self.operators) if self.operators is not None else None
            worst = self.violations[:5]
            lines = [
                f"  seed={v.seed} ops={'+'.join(v.applied)} [{v.kind}] {v.detail}"
                f"\n    replay: corrupt(payload, seed={v.seed}, "
                f"operators={pool!r}, n_ops={self.n_ops})"
                for v in worst
            ]
            head += "\n" + "\n".join(lines)
        return head


def fuzz_decoder(
    decode: Callable[[bytes], object],
    payload: bytes,
    *,
    n: int = 500,
    operators: list[str] | None = None,
    n_ops: int = 1,
    seed: int = 0,
    time_limit: float = 20.0,
) -> FuzzReport:
    """Run ``n`` seeded corruptions of ``payload`` through ``decode``.

    ``decode`` may return anything (the result is discarded); it must
    either succeed or raise a :class:`~repro.errors.ReproError`.  Any
    other exception, or a single decode slower than ``time_limit``
    seconds (the in-process stand-in for a hang), is recorded as a
    violation.  Seeds are ``seed .. seed+n-1``; the report records the
    operator pool and ``n_ops``, and :meth:`FuzzReport.summary` prints a
    ready-to-paste ``corrupt(...)`` replay line for each violation.
    """
    report = FuzzReport(
        operators=tuple(operators) if operators is not None else None,
        n_ops=n_ops,
    )
    for s in range(seed, seed + n):
        report.n_runs += 1
        try:
            case = corrupt(payload, s, operators=operators, n_ops=n_ops)
        except Exception as exc:  # noqa: BLE001 - operators must not raise
            report.violations.append(
                FuzzViolation(
                    seed=s,
                    applied=(),
                    kind="operator",
                    detail=f"corrupt() itself raised {type(exc).__name__}: {exc}",
                )
            )
            continue
        t0 = time.perf_counter()
        try:
            decode(case.payload)
            report.n_decoded += 1
        except ReproError:
            report.n_rejected += 1
        except Exception as exc:  # noqa: BLE001 - the contract under test
            report.violations.append(
                FuzzViolation(
                    seed=s,
                    applied=case.applied,
                    kind="exception",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
        elapsed = time.perf_counter() - t0
        report.slowest_seconds = max(report.slowest_seconds, elapsed)
        if elapsed > time_limit:
            report.violations.append(
                FuzzViolation(
                    seed=s,
                    applied=case.applied,
                    kind="hang",
                    detail=f"decode took {elapsed:.1f}s (> {time_limit}s limit)",
                )
            )
    return report


def fuzz_codec_inputs(
    roundtrip: Callable[[np.ndarray], np.ndarray],
    data: np.ndarray,
    *,
    n: int = 50,
    operators: list[str] | None = None,
    n_ops: int = 1,
    seed: int = 0,
) -> FuzzReport:
    """Fuzz a codec with NaN/Inf-damaged *inputs* instead of payloads.

    For each seed the input is damaged through
    :data:`ARRAY_FAULT_OPERATORS` and pushed through ``roundtrip``
    (compress + decompress).  The contract: the roundtrip either raises
    a :class:`~repro.errors.ReproError` or returns an array that

    * keeps the input's dtype and shape,
    * reproduces the NaN/+Inf/-Inf pattern of the damaged input
      *exactly* (no unflagged garbage, no leaked fill values),
    * is finite everywhere the damaged input was finite.

    Anything else is recorded as a violation with a replayable seed.
    """
    report = FuzzReport(
        operators=tuple(operators) if operators is not None else None,
        n_ops=n_ops,
    )
    for s in range(seed, seed + n):
        report.n_runs += 1
        damaged, applied = inject_nonfinite(
            data, s, operators=operators, n_ops=n_ops
        )
        try:
            out = roundtrip(damaged)
        except ReproError:
            report.n_rejected += 1
            continue
        except Exception as exc:  # noqa: BLE001 - the contract under test
            report.violations.append(
                FuzzViolation(
                    seed=s,
                    applied=applied,
                    kind="exception",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        problem = _check_masked_roundtrip(damaged, out)
        if problem is None:
            report.n_decoded += 1
        else:
            report.violations.append(
                FuzzViolation(
                    seed=s, applied=applied, kind="contract", detail=problem
                )
            )
    return report


def _check_masked_roundtrip(data: np.ndarray, out: np.ndarray) -> str | None:
    """The unflagged-garbage check behind :func:`fuzz_codec_inputs`."""
    if not isinstance(out, np.ndarray):
        return f"roundtrip returned {type(out).__name__}, not an ndarray"
    if out.dtype != data.dtype:
        return f"dtype changed: {data.dtype} -> {out.dtype}"
    if out.shape != data.shape:
        return f"shape changed: {data.shape} -> {out.shape}"
    for kind, pred in (
        ("NaN", np.isnan),
        ("+Inf", np.isposinf),
        ("-Inf", np.isneginf),
    ):
        want, got = pred(data), pred(out)
        if not np.array_equal(want, got):
            extra = int(np.count_nonzero(got & ~want))
            lost = int(np.count_nonzero(want & ~got))
            return f"{kind} pattern mismatch ({extra} unflagged, {lost} lost)"
    return None
