"""Mask-aware input hardening: NaN/Inf detection, fill, and mask coding.

Real simulation output is not a clean float cube: SDRBench-style ocean
fields carry land masks stored as NaN, diagnostics overflow to ±Inf, and
restart dumps mix float32 and float64.  The wavelet/SPECK pipeline is
defined only on finite values, so non-finite samples are handled at the
container boundary:

1. :func:`classify_nonfinite` labels every sample with a 2-bit code
   (valid / NaN / +Inf / -Inf);
2. :func:`fill_masked` replaces the non-finite samples with a smooth
   neighbor-aware value (iterative neighbor-mean diffusion) so the DWT
   sees a field without artificial discontinuities at mask boundaries;
3. :func:`encode_mask` stores the code array as a run-length stream
   compressed through the lossless backend — ocean-land masks are large
   contiguous regions, so the blob is typically a few hundred bytes;
4. on decode, :func:`decode_mask` + :func:`apply_mask` restore the exact
   NaN/±Inf pattern, so masked positions round-trip bit-for-bit.

The PWE guarantee applies to the *valid* samples; filled positions are
overwritten on decode and carry no error contract.  Conditions that the
pipeline absorbs rather than rejects (all-masked input, constant fields,
denormal-heavy data) are reported as structured :class:`DegradationNote`
records on the compression result instead of being raised.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .. import lossless
from ..errors import StreamFormatError, decode_guard

__all__ = [
    "MASK_VALID",
    "MASK_NAN",
    "MASK_POSINF",
    "MASK_NEGINF",
    "DegradationNote",
    "classify_nonfinite",
    "fill_masked",
    "encode_mask",
    "decode_mask",
    "apply_mask",
    "mask_summary",
    "sanitize_array",
]

#: Sample classification codes stored in the mask blob.
MASK_VALID = 0
MASK_NAN = 1
MASK_POSINF = 2
MASK_NEGINF = 3

_MASK_MAGIC = b"MSK1"

#: Diffusion sweeps before falling back to the global mean for samples
#: deep inside a masked region.  Each sweep grows the filled rim by one
#: cell, so 32 sweeps cover any mask lobe up to 32 cells thick.
_MAX_FILL_SWEEPS = 32

#: Fraction of nonzero finite samples below the dtype's smallest normal
#: magnitude above which the input is flagged as denormal-heavy.
_DENORMAL_NOTE_FRACTION = 0.25


@dataclass(frozen=True)
class DegradationNote:
    """A condition the pipeline absorbed instead of raising.

    ``kind`` is a stable machine-readable tag (``masked_input``,
    ``all_masked``, ``constant_field``, ``denormal_heavy``,
    ``fill_fallback``, ...); ``detail`` is the human-readable account.
    """

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def classify_nonfinite(data: np.ndarray) -> np.ndarray | None:
    """Label each sample of ``data`` with a mask code.

    Returns ``None`` when every sample is finite (the common case pays
    one vectorized ``isfinite`` and allocates nothing), otherwise a
    ``uint8`` array of :data:`MASK_VALID`/:data:`MASK_NAN`/
    :data:`MASK_POSINF`/:data:`MASK_NEGINF` codes.
    """
    finite = np.isfinite(data)
    if finite.all():
        return None
    codes = np.zeros(data.shape, dtype=np.uint8)
    codes[np.isnan(data)] = MASK_NAN
    codes[np.isposinf(data)] = MASK_POSINF
    codes[np.isneginf(data)] = MASK_NEGINF
    return codes


def _neighbor_mean(a: np.ndarray) -> np.ndarray:
    """Mean of each cell's finite face neighbors (NaN where none exist)."""
    sums = np.zeros(a.shape, dtype=np.float64)
    counts = np.zeros(a.shape, dtype=np.int64)
    for ax in range(a.ndim):
        for direction in (1, -1):
            shifted = np.full(a.shape, np.nan)
            dst = [slice(None)] * a.ndim
            src = [slice(None)] * a.ndim
            if direction == 1:
                dst[ax], src[ax] = slice(1, None), slice(None, -1)
            else:
                dst[ax], src[ax] = slice(None, -1), slice(1, None)
            shifted[tuple(dst)] = a[tuple(src)]
            good = ~np.isnan(shifted)
            sums[good] += shifted[good]
            counts[good] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def fill_masked(
    data: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, list[DegradationNote]]:
    """Replace masked samples with smooth neighbor-aware values.

    Masked cells take the mean of their already-valid face neighbors;
    the fill front advances one cell per sweep (Jacobi diffusion), which
    keeps mask boundaries free of artificial jumps that would cost
    wavelet bits.  Cells still unfilled after :data:`_MAX_FILL_SWEEPS`
    sweeps (deep inside a large mask) take the global mean of the valid
    samples.  An all-masked input fills with zero and is reported via a
    :class:`DegradationNote` instead of raised.

    Returns a float64 copy plus any degradation notes.
    """
    notes: list[DegradationNote] = []
    mask = codes != MASK_VALID
    out = np.array(data, dtype=np.float64)
    if mask.all():
        out[...] = 0.0
        notes.append(
            DegradationNote(
                "all_masked",
                f"every one of {out.size} samples is non-finite; "
                "compressing a zero fill (mask restores them on decode)",
            )
        )
        return out, notes
    out[mask] = np.nan
    for _ in range(_MAX_FILL_SWEEPS):
        holes = np.isnan(out)
        if not holes.any():
            break
        candidate = _neighbor_mean(out)
        out[holes] = candidate[holes]
    holes = np.isnan(out)
    if holes.any():
        fallback = float(np.mean(out[~holes]))
        out[holes] = fallback
        notes.append(
            DegradationNote(
                "fill_fallback",
                f"{int(holes.sum())} masked samples deeper than "
                f"{_MAX_FILL_SWEEPS} cells filled with the field mean "
                f"({fallback:g})",
            )
        )
    return out, notes


def encode_mask(codes: np.ndarray) -> bytes:
    """Serialize a mask-code array as an RLE + lossless-backend blob.

    The flattened (C-order) codes are split into value runs — ocean-land
    masks are contiguous, so there are few — packed as ``u8`` values and
    ``u32`` lengths, and the whole record is handed to the lossless
    backend for a final squeeze.
    """
    flat = np.ascontiguousarray(codes, dtype=np.uint8).ravel()
    if flat.size == 0:
        raise StreamFormatError("cannot encode an empty mask")
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [flat.size])))
    values = flat[starts]
    raw = (
        _MASK_MAGIC
        + struct.pack("<QI", flat.size, len(values))
        + values.astype(np.uint8).tobytes()
        + lengths.astype("<u4").tobytes()
    )
    return lossless.compress(raw, method="auto")


def decode_mask(blob: bytes, npoints: int) -> np.ndarray:
    """Decode a mask blob back to the flat ``uint8`` code array.

    ``npoints`` is the trusted sample count from the already-validated
    container shape; a blob that declares anything else, overlong runs,
    or out-of-range codes is rejected as malformed.
    """
    with decode_guard("mask"):
        raw = lossless.decompress(blob)
        if raw[:4] != _MASK_MAGIC:
            raise StreamFormatError("mask blob has a bad magic")
        declared, n_runs = struct.unpack_from("<QI", raw, 4)
        if declared != npoints:
            raise StreamFormatError(
                f"mask declares {declared} samples for a {npoints}-point volume"
            )
        if n_runs < 1 or n_runs > npoints:
            raise StreamFormatError(f"mask declares {n_runs} runs")
        pos = 4 + 12
        if len(raw) != pos + n_runs + 4 * n_runs:
            raise StreamFormatError("mask blob length disagrees with its run count")
        values = np.frombuffer(raw, dtype=np.uint8, count=n_runs, offset=pos)
        lengths = np.frombuffer(raw, dtype="<u4", count=n_runs, offset=pos + n_runs)
        if values.max() > MASK_NEGINF:
            raise StreamFormatError("mask blob contains an unknown sample code")
        if lengths.min() < 1 or int(lengths.sum()) != npoints:
            raise StreamFormatError("mask run lengths do not tile the volume")
        return np.repeat(values, lengths)


def apply_mask(out: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Restore the exact NaN/±Inf pattern onto a decoded array (in place).

    ``codes`` may be flat or shaped; it must cover ``out`` exactly.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size != out.size:
        raise StreamFormatError(
            f"mask covers {codes.size} samples, volume has {out.size}"
        )
    codes = codes.reshape(out.shape)
    out[codes == MASK_NAN] = np.nan
    out[codes == MASK_POSINF] = np.inf
    out[codes == MASK_NEGINF] = -np.inf
    return out


def mask_summary(codes: np.ndarray) -> dict[str, int]:
    """Count mask codes (for ``repro info`` and store introspection)."""
    flat = np.asarray(codes).ravel()
    return {
        "masked": int(np.count_nonzero(flat)),
        "nan": int(np.count_nonzero(flat == MASK_NAN)),
        "pos_inf": int(np.count_nonzero(flat == MASK_POSINF)),
        "neg_inf": int(np.count_nonzero(flat == MASK_NEGINF)),
    }


def tighten_pwe_for_dtype(mode, data: np.ndarray):
    """Tighten a PWE tolerance so it survives the cast back to float32.

    The reconstruction of a float32 input is rounded back to float32 on
    decode, which can add up to half a single-precision ULP on top of
    the codec's error.  Compressing against ``tolerance - 0.5 ulp``
    keeps the user-visible bound exact on the float32 output.  Mirrors
    the paper's idx caps for single-precision fields (Sec. VI-C); a
    tolerance at or below the ULP scale cannot survive the rounding at
    all and is rejected.  Non-float32 data and non-PWE modes pass
    through unchanged.
    """
    from ..errors import InvalidArgumentError
    from .modes import PweMode

    if data.dtype != np.float32 or not isinstance(mode, PweMode) or not data.size:
        return mode
    # Only finite samples matter: non-finite positions are mask-restored
    # exactly, and a stray Inf must not disable the guard entirely.
    finite = np.abs(data[np.isfinite(data)])
    if not finite.size:
        return mode
    ulp = float(finite.max()) * 2.0**-23
    if mode.tolerance <= 0.5 * ulp:
        raise InvalidArgumentError(
            f"tolerance {mode.tolerance:g} is below float32 precision "
            f"(~{ulp:g}) for this data; use float64 input or a looser "
            "tolerance"
        )
    return PweMode(mode.tolerance - 0.5 * ulp, q_factor=mode.q_factor)


def sanitize_array(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, list[DegradationNote]]:
    """Harden one input array at the pipeline boundary.

    Returns ``(clean, codes, notes)`` where ``clean`` is finite
    everywhere and keeps ``data``'s dtype (float32 fills are re-rounded
    to float32 so PWE semantics stay defined on the stored precision),
    ``codes`` is the mask-code array (``None`` when the input was fully
    finite), and ``notes`` records every absorbed degradation: masked
    input, constant fields, and denormal-heavy data.
    """
    notes: list[DegradationNote] = []
    codes = None
    clean = data
    lo = hi = 0.0
    if data.size:
        # NaN propagates through min and max, and an infinity is one of
        # them, so two reductions tell whether any sample is non-finite.
        lo, hi = float(data.min()), float(data.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        codes = classify_nonfinite(data)
        counts = mask_summary(codes)
        notes.append(
            DegradationNote(
                "masked_input",
                f"{counts['masked']}/{data.size} samples non-finite "
                f"(NaN {counts['nan']}, +Inf {counts['pos_inf']}, "
                f"-Inf {counts['neg_inf']}); filled before transform",
            )
        )
        filled, fill_notes = fill_masked(data, codes)
        notes.extend(fill_notes)
        # Round the fill back to the input's precision so the values the
        # codec sees are exactly the values a same-dtype decode returns.
        clean = filled.astype(data.dtype) if data.dtype == np.float32 else filled
        lo, hi = float(clean.min()), float(clean.max())

    if clean.size:
        if hi == lo:
            notes.append(
                DegradationNote(
                    "constant_field",
                    f"input is constant ({hi:g}); rate-only coding, PSNR "
                    "is undefined",
                )
            )
        tiny = float(np.finfo(data.dtype if data.dtype == np.float32 else np.float64).tiny)
        # A field whose range stays clear of (-tiny, tiny) has no
        # denormal sample; only a range that reaches it needs the count.
        if lo < tiny and hi > -tiny:
            magnitudes = np.abs(np.asarray(clean, dtype=np.float64))
            nonzero = magnitudes > 0.0
            n_nonzero = int(np.count_nonzero(nonzero))
            if n_nonzero:
                n_denormal = int(np.count_nonzero(nonzero & (magnitudes < tiny)))
                if n_denormal / n_nonzero > _DENORMAL_NOTE_FRACTION:
                    notes.append(
                        DegradationNote(
                            "denormal_heavy",
                            f"{n_denormal}/{n_nonzero} nonzero samples are "
                            "denormal; absolute tolerances near the subnormal "
                            "range lose precision",
                        )
                    )
    return clean, codes, notes
