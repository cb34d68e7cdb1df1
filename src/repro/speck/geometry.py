"""Set-partitioning geometry and max-magnitude pyramids for SPECK.

SPECK "zooms in" from the full volume to individual significant
coefficients by recursive spatial division — octrees for 3-D, quadtrees
for 2-D, binary splits for 1-D (the outlier coder).  To vectorize the
significance tests we:

* pad each axis to the next power of two (padding magnitudes are zero and
  can never test significant, so the decoder stays in lock-step),
* precompute, for every partition depth ``d``, the maximum magnitude of
  every block at that depth (:class:`MaxPyramid`), turning a set
  significance test into a single gather, and
* represent the lists of insignificant sets as flat-index arrays per
  depth so whole batches are tested/split with numpy arithmetic.

At depth ``d`` a block spans ``2**max(e_ax - d, 0)`` cells along the axis
whose padded extent is ``2**e_ax``; every axis longer than one cell is
halved at each split (the canonical SPECK octree/quadtree division).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import InvalidArgumentError

__all__ = ["Geometry", "MaxPyramid"]


class Geometry:
    """Partition schedule for one (possibly non power-of-two) shape."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        if len(shape) < 1 or len(shape) > 3:
            raise InvalidArgumentError("SPECK supports 1-D, 2-D, and 3-D arrays")
        if any(n < 1 for n in shape):
            raise InvalidArgumentError(f"invalid shape {shape}")
        self.shape = tuple(int(n) for n in shape)
        self.ndim = len(shape)
        #: per-axis exponent of the padded extent
        self.exponents = tuple(int(np.ceil(np.log2(n))) if n > 1 else 0 for n in self.shape)
        self.padded_shape = tuple(1 << e for e in self.exponents)
        #: depth at which blocks shrink to single cells
        self.max_depth = max(self.exponents)

        # Grid shape (number of blocks per axis) at each depth.
        self.grids: list[tuple[int, ...]] = [
            tuple(1 << min(d, e) for e in self.exponents)
            for d in range(self.max_depth + 1)
        ]
        # Which axes split when going from depth d to d+1, and the
        # corresponding child coordinate offsets in deterministic
        # (lexicographic) order.
        self._splits: list[tuple[bool, ...]] = []
        self._offsets: list[np.ndarray] = []
        for d in range(self.max_depth):
            split = tuple(e > d for e in self.exponents)
            self._splits.append(split)
            ranges = [np.arange(2) if s else np.arange(1) for s in split]
            mesh = np.meshgrid(*ranges, indexing="ij")
            offs = np.stack([m.ravel() for m in mesh], axis=-1)
            self._offsets.append(offs.astype(np.int64))
        # Partition tables: per-depth (n_blocks, n_children) child-index
        # arrays, built lazily on first use.  A geometry instance is shared
        # across chunks via the plan cache, so each table amortizes over
        # every same-shaped chunk; the lock keeps the lazy build safe when
        # service request threads share a geometry.
        self._child_tables: list[np.ndarray | None] = [None] * self.max_depth
        self._table_lock = threading.Lock()

    def child_table(self, depth: int) -> np.ndarray:
        """Full child-index table for ``depth``: row ``i`` lists the
        (depth+1)-grid flat indices of block ``i``'s children in the
        deterministic lexicographic order."""
        table = self._child_tables[depth]
        if table is None:
            with self._table_lock:
                table = self._child_tables[depth]
                if table is None:
                    table = self._build_child_table(depth)
                    self._child_tables[depth] = table
        return table

    def _build_child_table(self, depth: int) -> np.ndarray:
        grid = self.grids[depth]
        grid2 = self.grids[depth + 1]
        split = self._splits[depth]
        offs = self._offsets[depth]  # (nchildren, ndim)
        parents = np.arange(int(np.prod(grid)), dtype=np.int64)
        coords = np.unravel_index(parents, grid)
        child_coords = []
        for ax in range(self.ndim):
            base = coords[ax][:, None] * (2 if split[ax] else 1)
            child_coords.append(base + offs[None, :, ax])
        flat = np.ravel_multi_index(tuple(c.ravel() for c in child_coords), grid2)
        table = flat.astype(np.int64).reshape(parents.size, offs.shape[0])
        table.setflags(write=False)
        return table

    def children(self, depth: int, flat_idx: np.ndarray) -> np.ndarray:
        """Flat indices (depth+1 grid) of all children of the given blocks.

        Children of one parent are contiguous in the output, parents keep
        their input order — the deterministic traversal order both the
        encoder and the decoder rely on.  The lookup is a single gather
        into the precomputed per-depth partition table.
        """
        return self.child_table(depth)[flat_idx].reshape(-1)

    def pixel_flat_to_array_flat(self, flat_idx: np.ndarray) -> np.ndarray:
        """Map padded-space pixel indices to flat indices in the original
        (unpadded) array.  Indices that fall in the padding map to -1."""
        coords = np.unravel_index(flat_idx, self.padded_shape)
        valid = np.ones(flat_idx.shape, dtype=bool)
        for ax, n in enumerate(self.shape):
            valid &= coords[ax] < n
        out = np.full(flat_idx.shape, -1, dtype=np.int64)
        if valid.any():
            clipped = tuple(c[valid] for c in coords)
            out[valid] = np.ravel_multi_index(clipped, self.shape)
        return out


class MaxPyramid:
    """Per-depth maxima of integer magnitudes over every SPECK block."""

    def __init__(self, geometry: Geometry, mags: np.ndarray) -> None:
        mags = np.asarray(mags, dtype=np.uint64)
        if mags.shape != geometry.shape:
            raise InvalidArgumentError(
                f"magnitude shape {mags.shape} does not match geometry {geometry.shape}"
            )
        self.geometry = geometry
        padded = np.zeros(geometry.padded_shape, dtype=np.uint64)
        padded[tuple(slice(0, n) for n in geometry.shape)] = mags

        levels: list[np.ndarray] = [None] * (geometry.max_depth + 1)  # type: ignore[list-item]
        levels[geometry.max_depth] = padded
        cur = padded
        for d in range(geometry.max_depth - 1, -1, -1):
            split = geometry._splits[d]
            for ax in range(geometry.ndim):
                if split[ax]:
                    shape = list(cur.shape)
                    shape[ax] //= 2
                    shape.insert(ax + 1, 2)
                    cur = cur.reshape(shape).max(axis=ax + 1)
            levels[d] = cur
        #: flattened max array per depth, indexed by grid flat index
        self.levels: list[np.ndarray] = [lvl.reshape(-1) for lvl in levels]

    @property
    def global_max(self) -> int:
        return int(self.levels[0][0]) if self.levels[0].size == 1 else int(self.levels[0].max())
