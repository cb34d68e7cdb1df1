"""Outlier location and coding — the machinery that turns size-bounded
SPECK into the PWE-bounded SPERR (paper Sec. IV)."""

from .coder import (
    OutlierCoder,
    OutlierEncoding,
    decode_outliers,
    encode_outliers,
    encode_outliers_batch,
)
from .locate import locate_outliers, locate_outliers_batch

__all__ = [
    "OutlierCoder",
    "OutlierEncoding",
    "encode_outliers",
    "encode_outliers_batch",
    "decode_outliers",
    "locate_outliers",
    "locate_outliers_batch",
]
