"""Pillar encoding: point cloud -> sparse BEV pillars -> pseudo-image.

PointPillars aggregates the points falling into each BEV cell (a *pillar*)
into a C-element feature vector via a small PointNet, then scatters the
active pillar vectors into a dense ``C x H x W`` pseudo-image.  This module
implements the voxelization / decoration / scatter steps; the learned
PointNet lives in :mod:`repro.nn.pointnet`.

:func:`voxelize` bins points into pillars eagerly: the active
coordinates and per-pillar point counts are all the engine's
simulators read.  The ``(P, max_points, 9)`` decorated point features
only the functional networks read are built, vectorized, on the first
access to :attr:`PillarBatch.point_features`.  :func:`decorate_reference`
keeps the original per-pillar loop as the oracle the lazy path is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .pointcloud import PointCloud

#: Per-point decorated feature layout used by PointPillars:
#: (x, y, z, intensity, xc, yc, zc, xp, yp) where *c is the offset from the
#: pillar's point centroid and *p the offset from the pillar center.
DECORATED_DIM = 9


@dataclass(eq=False)
class PillarBatch:
    """Active pillars extracted from one sweep.

    Attributes:
        coords: (P, 2) int32 array of (row, col) pillar coordinates sorted
            in CPR (row-major) order.
        point_counts: (P,) int32 number of real points per pillar.
        grid: The grid the coordinates refer to.
        points: (N, 3) float32 points of the active pillars, grouped by
            pillar in CPR order (stable within a pillar).
        intensity: (N,) float32 intensities, aligned with ``points``.
        first_index: (P,) offset of each pillar's first point in
            ``points``.
        raw_counts: (P,) points per pillar before the
            ``max_points_per_pillar`` cap; the centroid uses all of them.
        max_points_per_pillar: Padded point slots per pillar.
    """

    coords: np.ndarray
    point_counts: np.ndarray
    grid: GridSpec
    points: np.ndarray = field(repr=False)
    intensity: np.ndarray = field(repr=False)
    first_index: np.ndarray = field(repr=False)
    raw_counts: np.ndarray = field(repr=False)
    max_points_per_pillar: int
    _point_features: np.ndarray = field(default=None, init=False,
                                        repr=False)

    @property
    def point_features(self) -> np.ndarray:
        """(P, max_points, 9) float32 decorated point features, zero
        padded; built on first access and cached on the batch."""
        if self._point_features is None:
            self._point_features = _decorate(self)
        return self._point_features

    @property
    def num_active(self) -> int:
        """Number of active (non-empty) pillars."""
        return len(self.coords)

    @property
    def occupancy(self) -> float:
        """Fraction of grid cells that are active."""
        return self.num_active / self.grid.num_pillars


def voxelize(
    cloud: PointCloud,
    grid: GridSpec,
    max_points_per_pillar: int = 32,
    max_pillars: int = None,
) -> PillarBatch:
    """Bin a point cloud into active pillars.

    Coordinates and point counts are computed here; the decorated point
    features are built on the first read of
    :attr:`PillarBatch.point_features`.

    Args:
        cloud: Input sweep (will be cropped to the grid range).
        grid: Target BEV grid.
        max_points_per_pillar: Points beyond this per pillar are dropped
            (random subsampling would need an RNG; we keep the first K,
            which matches the deterministic OpenPCDet fast path).
        max_pillars: Optional cap on the number of pillars (densest first
            is *not* used; we keep CPR order and truncate, as the CUDA
            voxelizer does).

    Returns:
        A :class:`PillarBatch` with coordinates in CPR order.
    """
    cloud = cloud.crop(grid)
    cols = ((cloud.points[:, 0] - grid.x_range[0]) / grid.pillar_size).astype(np.int64)
    rows = ((cloud.points[:, 1] - grid.y_range[0]) / grid.pillar_size).astype(np.int64)
    cols = np.clip(cols, 0, grid.nx - 1)
    rows = np.clip(rows, 0, grid.ny - 1)
    flat = rows * grid.nx + cols

    order = np.argsort(flat, kind="stable")
    unique_flat, first_index, counts = np.unique(
        flat[order], return_index=True, return_counts=True
    )
    if max_pillars is not None and len(unique_flat) > max_pillars:
        unique_flat = unique_flat[:max_pillars]
        first_index = first_index[:max_pillars]
        counts = counts[:max_pillars]
    # Pillars are contiguous in sorted order, so the kept pillars own
    # exactly the first ``counts.sum()`` sorted points.
    order = order[: int(counts.sum())]
    return PillarBatch(
        coords=np.stack(
            [unique_flat // grid.nx, unique_flat % grid.nx], axis=1
        ).astype(np.int32),
        point_counts=np.minimum(
            counts, max_points_per_pillar).astype(np.int32),
        grid=grid,
        points=cloud.points[order],
        intensity=cloud.intensity[order],
        first_index=first_index,
        raw_counts=counts,
        max_points_per_pillar=max_points_per_pillar,
    )


def _decorate(batch: PillarBatch) -> np.ndarray:
    """Vectorized decoration of every kept point of ``batch``."""
    num_pillars, counts = batch.num_active, batch.raw_counts
    features = np.zeros(
        (num_pillars, batch.max_points_per_pillar, DECORATED_DIM),
        dtype=np.float32,
    )
    if num_pillars == 0:
        return features
    points, grid, coords = batch.points, batch.grid, batch.coords
    pillar = np.repeat(np.arange(num_pillars), counts)
    rank = np.arange(len(points)) - np.repeat(batch.first_index, counts)
    # Centroid over every point of the pillar, before the cap.
    centroid = (np.add.reduceat(points, batch.first_index, axis=0,
                                dtype=np.float64)
                / counts[:, None]).astype(np.float32)
    keep = rank < batch.max_points_per_pillar
    pillar, rank, pts = pillar[keep], rank[keep], points[keep]
    center_x = grid.x_range[0] + (coords[:, 1] + 0.5) * grid.pillar_size
    center_y = grid.y_range[0] + (coords[:, 0] + 0.5) * grid.pillar_size
    features[pillar, rank, 0:3] = pts
    features[pillar, rank, 3] = batch.intensity[keep]
    features[pillar, rank, 4:7] = pts - centroid[pillar]
    features[pillar, rank, 7] = pts[:, 0] - center_x[pillar]
    features[pillar, rank, 8] = pts[:, 1] - center_y[pillar]
    return features


def decorate_reference(
    cloud: PointCloud,
    grid: GridSpec,
    max_points_per_pillar: int = 32,
    max_pillars: int = None,
) -> tuple:
    """The original eager voxelization, one decoration loop per pillar.

    Kept as the oracle :func:`voxelize` and the lazy vectorized
    :attr:`PillarBatch.point_features` are asserted against; only tests
    call it.  Returns ``(coords, point_features, point_counts)``.
    """
    cloud = cloud.crop(grid)
    if len(cloud) == 0:
        return (
            np.zeros((0, 2), dtype=np.int32),
            np.zeros((0, max_points_per_pillar, DECORATED_DIM),
                     dtype=np.float32),
            np.zeros(0, dtype=np.int32),
        )

    cols = ((cloud.points[:, 0] - grid.x_range[0]) / grid.pillar_size).astype(np.int64)
    rows = ((cloud.points[:, 1] - grid.y_range[0]) / grid.pillar_size).astype(np.int64)
    cols = np.clip(cols, 0, grid.nx - 1)
    rows = np.clip(rows, 0, grid.ny - 1)
    flat = rows * grid.nx + cols

    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    unique_flat, first_index, counts = np.unique(
        flat_sorted, return_index=True, return_counts=True
    )
    if max_pillars is not None and len(unique_flat) > max_pillars:
        unique_flat = unique_flat[:max_pillars]
        first_index = first_index[:max_pillars]
        counts = counts[:max_pillars]

    num_pillars = len(unique_flat)
    coords = np.stack(
        [unique_flat // grid.nx, unique_flat % grid.nx], axis=1
    ).astype(np.int32)

    features = np.zeros(
        (num_pillars, max_points_per_pillar, DECORATED_DIM), dtype=np.float32
    )
    kept_counts = np.minimum(counts, max_points_per_pillar).astype(np.int32)

    points_sorted = cloud.points[order]
    intensity_sorted = cloud.intensity[order]
    for i in range(num_pillars):
        start = first_index[i]
        keep = int(kept_counts[i])
        pts = points_sorted[start : start + keep]
        inten = intensity_sorted[start : start + keep]
        centroid = points_sorted[start : start + counts[i]].mean(axis=0)
        center_x = grid.x_range[0] + (coords[i, 1] + 0.5) * grid.pillar_size
        center_y = grid.y_range[0] + (coords[i, 0] + 0.5) * grid.pillar_size
        features[i, :keep, 0:3] = pts
        features[i, :keep, 3] = inten
        features[i, :keep, 4:7] = pts - centroid
        features[i, :keep, 7] = pts[:, 0] - center_x
        features[i, :keep, 8] = pts[:, 1] - center_y

    return coords, features, kept_counts


def scatter_to_dense(
    coords: np.ndarray, features: np.ndarray, grid_shape: tuple
) -> np.ndarray:
    """Scatter per-pillar feature vectors into a dense pseudo-image.

    Args:
        coords: (P, 2) (row, col) active pillar coordinates.
        features: (P, C) pillar feature vectors.
        grid_shape: (rows, cols) of the dense grid.

    Returns:
        (C, rows, cols) float32 pseudo-image with zeros at inactive cells.
    """
    rows, cols = grid_shape
    channels = features.shape[1]
    dense = np.zeros((channels, rows, cols), dtype=features.dtype)
    dense[:, coords[:, 0], coords[:, 1]] = features.T
    return dense


def gather_from_dense(dense: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gather pillar vectors back out of a dense pseudo-image.

    Inverse of :func:`scatter_to_dense` restricted to ``coords``.
    """
    return dense[:, coords[:, 0], coords[:, 1]].T
