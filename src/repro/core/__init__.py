"""SPERR core: modes, chunking, per-chunk pipeline, parallel chunk map,
and the container-level compress/decompress API."""

from .adaptive import (
    CODEC_NAMES,
    CODEC_POLICIES,
    CODEC_SPERR,
    CODEC_STORED,
    CODEC_SZX,
    choose_codecs,
    chunk_proxies,
)
from .chunking import DEFAULT_CHUNK, Chunk, ChunkGrid, plan_chunks, split
from .container import (
    CONTAINER_VERSION,
    ChunkDecodeStatus,
    CompressionResult,
    DecodeReport,
    DecodeResult,
    ParsedContainer,
    compress,
    decode_tagged_chunk,
    decompress,
    parse_container,
)
from .mask import (
    DegradationNote,
    apply_mask,
    classify_nonfinite,
    decode_mask,
    encode_mask,
    fill_masked,
    mask_summary,
    sanitize_array,
)
from .modes import Q_FACTOR, PsnrMode, PweMode, SizeMode, data_range, tolerance_from_idx
from .parallel import map_chunk_arrays, robust_chunk_map, shutdown_pools
from .plans import cache_stats, clear_plan_caches
from .progressive import decompress_multires, truncate
from .timeseries import compress_frames, decompress_frame, decompress_frames, frame_count
from .pipeline import ChunkReport, compress_chunk, decompress_chunk

__all__ = [
    "CODEC_NAMES",
    "CODEC_POLICIES",
    "CODEC_SPERR",
    "CODEC_STORED",
    "CODEC_SZX",
    "CONTAINER_VERSION",
    "Chunk",
    "ChunkGrid",
    "choose_codecs",
    "chunk_proxies",
    "decode_tagged_chunk",
    "ChunkDecodeStatus",
    "ChunkReport",
    "CompressionResult",
    "DegradationNote",
    "apply_mask",
    "classify_nonfinite",
    "decode_mask",
    "encode_mask",
    "fill_masked",
    "mask_summary",
    "sanitize_array",
    "DEFAULT_CHUNK",
    "DecodeReport",
    "DecodeResult",
    "ParsedContainer",
    "parse_container",
    "robust_chunk_map",
    "PweMode",
    "PsnrMode",
    "Q_FACTOR",
    "SizeMode",
    "cache_stats",
    "clear_plan_caches",
    "map_chunk_arrays",
    "shutdown_pools",
    "compress",
    "compress_chunk",
    "data_range",
    "decompress",
    "decompress_multires",
    "truncate",
    "compress_frames",
    "decompress_frame",
    "decompress_frames",
    "frame_count",
    "decompress_chunk",
    "plan_chunks",
    "split",
    "tolerance_from_idx",
]
