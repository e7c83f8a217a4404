"""Pillar encoding (voxelization / scatter / gather) tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    KITTI_GRID,
    MINI_GRID,
    GridSpec,
    PointCloud,
    gather_from_dense,
    scatter_to_dense,
    voxelize,
)
from repro.data.pillars import decorate_reference
from repro.sparse import is_cpr_sorted


def cloud_at(points):
    points = np.asarray(points, dtype=np.float32)
    return PointCloud(points, np.full(len(points), 0.5, dtype=np.float32))


class TestVoxelize:
    def test_coords_are_cpr_sorted(self, kitti_batch):
        assert is_cpr_sorted(kitti_batch.coords, KITTI_GRID.shape)

    def test_counts_match_points(self):
        # Two points in one pillar, one in another.
        cloud = cloud_at([[1.0, 0.0, -1.0], [1.01, 0.02, -1.0],
                          [30.0, 5.0, -1.0]])
        batch = voxelize(cloud, KITTI_GRID)
        assert batch.num_active == 2
        assert sorted(batch.point_counts.tolist()) == [1, 2]

    def test_empty_cloud(self):
        batch = voxelize(cloud_at(np.zeros((0, 3))), KITTI_GRID)
        assert batch.num_active == 0
        assert batch.occupancy == 0.0

    def test_max_points_per_pillar_truncates(self):
        points = [[1.0 + 0.001 * i, 0.0, -1.0] for i in range(50)]
        batch = voxelize(cloud_at(points), KITTI_GRID,
                         max_points_per_pillar=8)
        assert batch.point_counts.max() <= 8

    def test_max_pillars_caps(self, kitti_sweep):
        batch = voxelize(kitti_sweep, KITTI_GRID, max_pillars=100)
        assert batch.num_active == 100

    def test_decorated_features_center_offsets_bounded(self, mini_batch):
        # xp/yp offsets are within half a pillar of the center.
        for pillar in range(min(20, mini_batch.num_active)):
            count = mini_batch.point_counts[pillar]
            offsets = mini_batch.point_features[pillar, :count, 7:9]
            assert np.abs(offsets).max() <= MINI_GRID.pillar_size

    def test_centroid_offsets_sum_near_zero(self, mini_batch):
        # xc offsets are relative to the pillar centroid (over all points,
        # before truncation); for untruncated pillars they sum to ~0.
        for pillar in range(mini_batch.num_active):
            count = int(mini_batch.point_counts[pillar])
            if count == 0 or count == 32:
                continue
            offsets = mini_batch.point_features[pillar, :count, 4:7]
            assert np.abs(offsets.mean(axis=0)).max() < 1.0


#: An 8 x 8 grid small enough that random clouds share pillars.
TINY_GRID = GridSpec("tiny", x_range=(0.0, 4.0), y_range=(-2.0, 2.0),
                     z_range=(-3.0, 1.0), pillar_size=0.5)


def cloud_of(points):
    """A cloud with distinct intensities, so a reordered point shows."""
    points = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    return PointCloud(points, np.arange(len(points), dtype=np.float32)
                      / max(len(points), 1))


def assert_matches_reference(cloud, max_points_per_pillar=32,
                             max_pillars=None):
    batch = voxelize(cloud, TINY_GRID, max_points_per_pillar, max_pillars)
    coords, features, counts = decorate_reference(
        cloud, TINY_GRID, max_points_per_pillar, max_pillars)
    np.testing.assert_array_equal(batch.coords, coords)
    np.testing.assert_array_equal(batch.point_counts, counts)
    assert batch.coords.dtype == coords.dtype
    assert batch.point_counts.dtype == counts.dtype
    lazy = batch.point_features
    assert lazy.shape == features.shape and lazy.dtype == features.dtype
    np.testing.assert_array_equal(lazy[..., 0:4], features[..., 0:4])
    np.testing.assert_array_equal(lazy[..., 7:9], features[..., 7:9])
    # Centroid offsets: the summation order differs from the loop's
    # float32 mean; coordinates here stay below 8 m, where 1e-5 is
    # about ten float32 ulps.
    np.testing.assert_allclose(lazy[..., 4:7], features[..., 4:7],
                               rtol=0, atol=1e-5)


def _coordinate(low, high):
    edges = [low, high, float(np.nextafter(np.float32(high),
                                           np.float32(low))),
             low + TINY_GRID.pillar_size]
    return st.one_of(st.floats(low - 0.5, high + 0.5, width=32),
                     st.sampled_from(edges))


@st.composite
def tiny_clouds(draw):
    points = draw(st.lists(
        st.tuples(_coordinate(*TINY_GRID.x_range),
                  _coordinate(*TINY_GRID.y_range),
                  _coordinate(*TINY_GRID.z_range)),
        max_size=60))
    # A dense cluster overflows max_points_per_pillar in one pillar.
    cluster = draw(st.integers(0, 40))
    points += [(1.1 + 1e-3 * i, 0.3 - 1e-3 * i, -1.0) for i in range(cluster)]
    order = draw(st.permutations(range(len(points))))
    return cloud_of([points[i] for i in order])


class TestLazyDecoration:
    @given(tiny_clouds(), st.sampled_from([1, 3, 8, 32]),
           st.one_of(st.none(), st.integers(1, 6)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_loop(self, cloud, max_points,
                                        max_pillars):
        assert_matches_reference(cloud, max_points, max_pillars)

    @pytest.mark.parametrize("points,max_points,max_pillars", [
        ([], 32, None),
        ([[1.2, 0.1, -1.0]], 32, None),
        ([[1.1 + 1e-3 * i, 0.3, -1.0] for i in range(50)], 32, None),
        ([[1.1 + 1e-3 * i, 0.3, -1.0] for i in range(50)], 5, None),
        ([[0.0, -2.0, -3.0], [3.99, 1.99, 0.99], [4.0, 0.0, 0.0],
          [1.0, 2.0, 0.0], [1.0, 0.0, 1.0]], 32, None),
        ([[0.25 + 0.5 * i, 0.25, 0.0] for i in range(8)] * 3, 2, 3),
    ], ids=["empty", "single", "overfull", "overfull-capped",
            "range-edges", "max-pillars"])
    def test_named_clouds_match_the_reference_loop(self, points,
                                                   max_points,
                                                   max_pillars):
        assert_matches_reference(cloud_of(points), max_points, max_pillars)

    def test_features_are_built_once(self, mini_batch):
        first = mini_batch.point_features
        assert mini_batch.point_features is first

    def test_batch_pickles_before_and_after_decoration(self, mini_scene):
        batch = voxelize(mini_scene, MINI_GRID)
        fresh = pickle.loads(pickle.dumps(batch))
        decorated = batch.point_features
        again = pickle.loads(pickle.dumps(batch))
        for copy in (fresh, again):
            np.testing.assert_array_equal(copy.coords, batch.coords)
            np.testing.assert_array_equal(copy.point_counts,
                                          batch.point_counts)
            np.testing.assert_array_equal(copy.point_features, decorated)


class TestScatterGather:
    def test_roundtrip(self, mini_batch):
        rng = np.random.default_rng(0)
        features = rng.normal(
            size=(mini_batch.num_active, 16)
        ).astype(np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        recovered = gather_from_dense(dense, mini_batch.coords)
        np.testing.assert_allclose(recovered, features)

    def test_inactive_cells_zero(self, mini_batch):
        features = np.ones((mini_batch.num_active, 4), dtype=np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        assert dense.sum() == pytest.approx(4 * mini_batch.num_active)

    def test_dense_shape(self, mini_batch):
        features = np.ones((mini_batch.num_active, 7), dtype=np.float32)
        dense = scatter_to_dense(mini_batch.coords, features, MINI_GRID.shape)
        assert dense.shape == (7, 64, 64)
