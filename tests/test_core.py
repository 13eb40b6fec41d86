"""Geometry primitives: boxes, IoU, grids, adjacency, proposals, records."""

import numpy as np
import pytest

from saldet.core import (
    Box,
    ImageRecord,
    LabelVector,
    SaliencyMap,
    SuperpixelGrid,
    adjacency,
    iou,
    proposal_from_superpixels,
)

from conftest import tiling_grid
from oracles import pixel_adjacency


class TestBox:
    def test_area_half_open(self):
        assert Box(0, 0, 4, 3).area == 12
        assert Box(2, 5, 3, 6).area == 1

    @pytest.mark.parametrize("bad", [(0, 0, 0, 1), (0, 0, 1, 0), (3, 1, 2, 5)])
    def test_rejects_empty(self, bad):
        with pytest.raises(ValueError):
            Box(*bad)

    def test_as_tuple(self):
        assert Box(1, 2, 3, 4).as_tuple() == (1, 2, 3, 4)


class TestIou:
    def test_identical(self):
        assert iou(Box(0, 0, 4, 4), Box(0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0

    def test_hand_value(self):
        # 2x2 overlap, areas 4 and 4, union 6
        assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(2 / 6, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x0, y0 = rng.integers(0, 10, 2)
            a = Box(int(x0), int(y0), int(x0 + rng.integers(1, 8)), int(y0 + rng.integers(1, 8)))
            x0, y0 = rng.integers(0, 10, 2)
            b = Box(int(x0), int(y0), int(x0 + rng.integers(1, 8)), int(y0 + rng.integers(1, 8)))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0


class TestSuperpixelGrid:
    def test_requires_every_id(self):
        labels = np.array([[0, 2], [0, 2]], dtype=np.int32)  # id 1 missing
        with pytest.raises(ValueError, match="superpixel"):
            SuperpixelGrid(width=2, height=2, labels=labels)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SuperpixelGrid(width=3, height=2, labels=np.zeros((2, 2), dtype=np.int32))

    def test_labels_frozen(self):
        grid = tiling_grid(4, 2)
        with pytest.raises(ValueError):
            grid.labels[0, 0] = 3


class TestAdjacency:
    def test_two_superpixels(self):
        labels = np.array([[0, 1], [0, 1]], dtype=np.int32)
        grid = SuperpixelGrid(width=2, height=2, labels=labels)
        adj = adjacency(grid)
        assert adj[0, 1] and adj[1, 0]
        assert not adj[0, 0] and not adj[1, 1]

    def test_diagonal_not_adjacent(self):
        # checkerboard corners only touch diagonally between 0 and 3
        labels = np.array([[0, 1], [2, 3]], dtype=np.int32)
        grid = SuperpixelGrid(width=2, height=2, labels=labels)
        adj = adjacency(grid)
        assert not adj[0, 3] and not adj[3, 0]
        assert adj[0, 1] and adj[0, 2] and adj[1, 3] and adj[2, 3]

    def test_matches_pixel_oracle_on_random_grids(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h, w = rng.integers(2, 12, 2)
            n_sp = int(rng.integers(2, 6))
            while True:
                labels = rng.integers(0, n_sp, size=(h, w)).astype(np.int32)
                if len(np.unique(labels)) == n_sp:
                    break
            grid = SuperpixelGrid(width=int(w), height=int(h), labels=labels)
            np.testing.assert_array_equal(adjacency(grid), pixel_adjacency(labels, n_sp))


class TestProposal:
    def test_bbox_and_area(self):
        grid = tiling_grid(8, 4)  # 2x2-pixel superpixels
        prop = proposal_from_superpixels(grid, [0, 1, 4])
        assert prop.bbox == Box(0, 0, 4, 4)
        assert prop.area_px == 12
        assert prop.superpixel_ids == (0, 1, 4)

    def test_non_contiguous_members_allowed(self):
        grid = tiling_grid(8, 4)
        prop = proposal_from_superpixels(grid, [0, 15])
        assert prop.bbox == Box(0, 0, 8, 8)
        assert prop.area_px == 8

    def test_unknown_id_rejected(self):
        grid = tiling_grid(8, 4)
        with pytest.raises(ValueError):
            proposal_from_superpixels(grid, [0, 16])

    def test_empty_rejected(self):
        grid = tiling_grid(8, 4)
        with pytest.raises(ValueError):
            proposal_from_superpixels(grid, [])


class TestLabelVector:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            LabelVector(y=np.array([-1, -1], dtype=np.int8))

    def test_requires_plus_minus_one(self):
        with pytest.raises(ValueError):
            LabelVector(y=np.array([1, 0], dtype=np.int8))

    def test_positives(self):
        lv = LabelVector(y=np.array([1, -1, 1], dtype=np.int8))
        assert lv.positives == (0, 2)


class TestSaliencyMap:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SaliencyMap(class_id=0, values=np.array([[-0.1]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SaliencyMap(class_id=0, values=np.array([[np.inf]]))


class TestImageRecord:
    def _parts(self, touching_objects_record):
        return touching_objects_record

    def test_valid_fixture(self, touching_objects_record):
        rec = touching_objects_record
        assert rec.num_proposals == 3
        assert rec.feature_dim == 4

    def test_saliency_keys_must_match_positives(self, touching_objects_record):
        rec = touching_objects_record
        with pytest.raises(ValueError, match="saliency"):
            ImageRecord(
                id=rec.id, grid=rec.grid, proposals=rec.proposals,
                features=rec.features, labels=rec.labels,
                saliency={0: rec.saliency[0]},  # class 1 map missing
                gt_boxes=rec.gt_boxes,
            )

    def test_feature_rows_must_match_proposals(self, touching_objects_record):
        rec = touching_objects_record
        with pytest.raises(ValueError, match="feature"):
            ImageRecord(
                id=rec.id, grid=rec.grid, proposals=rec.proposals,
                features=rec.features[:2], labels=rec.labels,
                saliency=dict(rec.saliency), gt_boxes=rec.gt_boxes,
            )

    def test_gt_box_must_fit_image(self, touching_objects_record):
        rec = touching_objects_record
        with pytest.raises(ValueError, match="bounds"):
            ImageRecord(
                id=rec.id, grid=rec.grid, proposals=rec.proposals,
                features=rec.features, labels=rec.labels,
                saliency=dict(rec.saliency),
                gt_boxes=[(0, Box(0, 0, 17, 4))],
            )
