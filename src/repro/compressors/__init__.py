"""The five compressors of the paper's comparison study (Sec. VI-A):
SPERR plus reimplemented SZ3-, ZFP-, TTHRESH-, and MGARD-like baselines.

Chunking, NaN/Inf masks and dtype are not wrapper concerns: the
baselines run chunk by chunk inside the SPERR container via
``repro.compress(data, mode, codec=<registry name>, chunk_shape=...)``.
"""

from .base import Compressor, Mode, PsnrMode, psnr_target_for_idx
from .mgardlike import MgardLikeCompressor
from .sperr import SperrCompressor
from .szlike import SzLikeCompressor
from .szxlike import SzxLikeCompressor
from .tthreshlike import TthreshLikeCompressor
from .zfplike import ZfpLikeCompressor

#: Registry used by the analysis harness and CLI.
ALL_COMPRESSORS = {
    "sperr": SperrCompressor,
    "sz-like": SzLikeCompressor,
    "szx-like": SzxLikeCompressor,
    "zfp-like": ZfpLikeCompressor,
    "tthresh-like": TthreshLikeCompressor,
    "mgard-like": MgardLikeCompressor,
}

__all__ = [
    "ALL_COMPRESSORS",
    "Compressor",
    "Mode",
    "PsnrMode",
    "psnr_target_for_idx",
    "SperrCompressor",
    "SzLikeCompressor",
    "SzxLikeCompressor",
    "ZfpLikeCompressor",
    "TthreshLikeCompressor",
    "MgardLikeCompressor",
]
