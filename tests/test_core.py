"""Geometry primitives: boxes, IoU, grids, adjacency, proposals, records."""

from dataclasses import fields

import numpy as np
import pytest

from saldet import _accel
from saldet.core import (
    Box,
    ImageRecord,
    LabelVector,
    Proposal,
    SaliencyMap,
    SuperpixelGrid,
    iou,
    proposal_from_superpixels,
)

from conftest import IRREGULAR_LABELS, build_record, irregular_grid, tiling_grid
from oracles import pixel_adjacency, pixel_mask_box


class TestBox:
    def test_area_half_open(self):
        assert Box(0, 0, 4, 3).area == 12
        assert Box(2, 5, 3, 6).area == 1
        assert Box(*np.array([0, 0, 4, 3], dtype=np.int32)).area == 12

    @pytest.mark.parametrize("bad,message", [
        ((0, 0, 0, 1), "positive extent"),
        ((0, 0, 1, 0), "positive extent"),
        ((3, 1, 2, 5), "positive extent"),
        # a float corner gives a float area, and the ground truth truncates it
        ((0.5, 0, 2.5, 2), "box x0 must be an integer, got 0.5"),
        ((0, 0, 2, True), "box y1 must be an integer, got True"),
    ], ids=["bad0", "bad1", "bad2", "float", "bool"])
    def test_rejects_empty(self, bad, message):
        with pytest.raises(ValueError, match=message):
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
        with pytest.raises(ValueError, match=r"every id in \[0, n_superpixels\) must occur"):
            SuperpixelGrid(width=2, height=2, labels=labels)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SuperpixelGrid(width=3, height=2, labels=np.zeros((2, 2), dtype=np.int32))

    def test_labels_frozen(self):
        grid = tiling_grid(4, 2)
        with pytest.raises(ValueError):
            grid.labels[0, 0] = 3
        with pytest.raises(ValueError):
            grid.pixel_counts[0] = 3
        with pytest.raises(ValueError):
            grid.boxes[0, 0] = 3
        with pytest.raises(ValueError):
            grid.pixel_order[0] = 3

    @pytest.mark.parametrize("name", [*sorted(IRREGULAR_LABELS), "random_256"])
    def test_pixel_order_and_counts_match_a_pixel_scan(self, name):
        if name == "random_256":
            labels = np.random.default_rng(3).integers(0, 1024, size=(256, 256))
            grid = SuperpixelGrid(width=256, height=256, labels=labels)
        else:
            grid = irregular_grid(name)
        flat = grid.labels.ravel()
        want = [np.flatnonzero(flat == k) for k in range(grid.n_superpixels)]
        assert grid.pixel_order.dtype == np.int32
        np.testing.assert_array_equal(grid.pixel_order, np.concatenate(want))
        # the counts are read off the same sort
        assert grid.pixel_counts.dtype == np.int64 and not grid.pixel_counts.flags.writeable
        np.testing.assert_array_equal(grid.pixel_counts, np.bincount(flat))

    def test_id_beyond_pixel_count_rejected_before_counting(self):
        # sizing a count array by this id would ask for 16 GiB
        labels = np.array([[0, 2**31 - 1]], dtype=np.int32)
        with pytest.raises(ValueError, match="exceeds the pixel count"):
            SuperpixelGrid(width=2, height=1, labels=labels)


def assert_neighbor_rows(grid, expected):
    """``grid.neighbors`` as CSR holds exactly the True columns of each oracle row."""
    offsets, ids = grid.neighbors
    assert offsets.dtype == ids.dtype == np.int64
    assert offsets.shape == (grid.n_superpixels + 1,) and offsets[-1] == ids.size
    for k, row in enumerate(expected):
        assert ids[offsets[k]:offsets[k + 1]].tolist() == np.flatnonzero(row).tolist()


def dense_adjacency(grid):
    """The (n_sp, n_sp) boolean expansion of the grid's neighbour lists."""
    return _accel.adjacency_matrix(grid.labels, grid.n_superpixels)


class TestAdjacency:
    def test_two_superpixels(self):
        labels = np.array([[0, 1], [0, 1]], dtype=np.int32)
        grid = SuperpixelGrid(width=2, height=2, labels=labels)
        adj = dense_adjacency(grid)
        assert adj[0, 1] and adj[1, 0]
        assert not adj[0, 0] and not adj[1, 1]
        assert_neighbor_rows(grid, adj)

    def test_diagonal_not_adjacent(self):
        # checkerboard corners only touch diagonally between 0 and 3
        labels = np.array([[0, 1], [2, 3]], dtype=np.int32)
        grid = SuperpixelGrid(width=2, height=2, labels=labels)
        adj = dense_adjacency(grid)
        assert not adj[0, 3] and not adj[3, 0]
        assert adj[0, 1] and adj[0, 2] and adj[1, 3] and adj[2, 3]
        assert_neighbor_rows(grid, adj)

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
            expected = pixel_adjacency(labels, n_sp)
            np.testing.assert_array_equal(dense_adjacency(grid), expected)
            assert_neighbor_rows(grid, expected)

    @pytest.mark.parametrize("name", sorted(IRREGULAR_LABELS))
    def test_neighbor_lists_match_pixel_oracle_on_irregular_grids(self, name):
        grid = irregular_grid(name)
        expected = pixel_adjacency(grid.labels, grid.n_superpixels)
        assert_neighbor_rows(grid, expected)
        np.testing.assert_array_equal(dense_adjacency(grid), expected)

    def test_neighbor_lists_built_once_and_frozen(self):
        grid = tiling_grid(8, 4)
        offsets, ids = grid.neighbors
        assert grid.neighbors[0] is offsets and grid.neighbors[1] is ids
        for arr in (offsets, ids):
            with pytest.raises(ValueError):
                arr[0] = 1


def random_irregular_grids(rng, trials=40):
    """Random-noise grids (disconnected superpixels) alternating with Voronoi grids."""
    for trial in range(trials):
        h, w = (int(v) for v in rng.integers(1, 20, 2))
        n_sp = int(rng.integers(1, min(h * w, 12) + 1))
        if trial % 2:
            raw = rng.integers(0, n_sp, size=(h, w))
        else:
            sites = rng.integers(0, (h, w), size=(n_sp, 2))
            yy, xx = np.mgrid[0:h, 0:w]
            dist = (yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2
            raw = dist.argmin(axis=-1)
        labels = np.unique(raw, return_inverse=True)[1].reshape(h, w).astype(np.int32)
        yield SuperpixelGrid(width=w, height=h, labels=labels)


class TestProposal:
    def test_bbox_and_area(self):
        grid = tiling_grid(8, 4)  # 2x2-pixel superpixels
        prop = proposal_from_superpixels(grid, [0, 1, 4])
        assert prop.bbox == Box(0, 0, 4, 4)
        assert prop.superpixel_ids == (0, 1, 4)

    def test_non_contiguous_members_allowed(self):
        grid = tiling_grid(8, 4)
        prop = proposal_from_superpixels(grid, [0, 15])
        assert prop.bbox == Box(0, 0, 8, 8)

    def test_matches_pixel_oracle_on_irregular_grids(self):
        rng = np.random.default_rng(5)
        for grid in random_irregular_grids(rng):
            for _ in range(5):
                k = int(rng.integers(1, grid.n_superpixels + 1))
                ids = rng.choice(grid.n_superpixels, size=k, replace=False)
                prop = proposal_from_superpixels(grid, ids)
                assert prop.bbox.as_tuple() == pixel_mask_box(np.isin(grid.labels, ids))[0]
                assert prop.superpixel_ids == tuple(sorted(ids.tolist()))

    def test_holds_only_its_grid_and_ids(self):
        assert [f.name for f in fields(Proposal)] == ["grid", "superpixel_ids"]

    @pytest.mark.parametrize("ids,message", [
        ([0, 16], r"superpixel id out of range \[0, 16\)"),
        # int() would turn these into the ids 2 and 1
        ([2.7, True], "proposal superpixel id must be an integer, got 2.7"),
        ([2, True], "proposal superpixel id must be an integer, got True"),
    ], ids=["unknown", "float", "bool"])
    def test_unknown_id_rejected(self, ids, message):
        grid = tiling_grid(8, 4)
        with pytest.raises(ValueError, match=message):
            proposal_from_superpixels(grid, ids)

    def test_empty_rejected(self):
        grid = tiling_grid(8, 4)
        with pytest.raises(ValueError):
            proposal_from_superpixels(grid, [])

    def test_duplicate_id_rejected(self):
        grid = tiling_grid(8, 4)
        with pytest.raises(ValueError, match="unique"):
            Proposal(grid, (3, 3))

    @pytest.mark.parametrize("given", [{"bbox": Box(0, 0, 500, 500)}, {"area_px": 7}])
    def test_geometry_is_not_an_argument(self, given):
        with pytest.raises(TypeError):
            Proposal(tiling_grid(32, 8), (0,), **given)

    def test_from_superpixels_equals_constructor(self):
        grid = tiling_grid(8, 4)
        made, built = proposal_from_superpixels(grid, [4, 0, 1]), Proposal(grid, (0, 1, 4))
        for f in fields(Proposal):
            assert getattr(made, f.name) == getattr(built, f.name), f.name
        assert made.grid is grid

    def test_repr_omits_grid(self):
        text = repr(Proposal(tiling_grid(8, 4), (0,)))
        assert "grid" not in text and "superpixel_ids=(0,)" in text


class TestLabelVector:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            LabelVector(y=np.array([-1, -1], dtype=np.int8))

    def test_requires_plus_minus_one(self):
        with pytest.raises(ValueError):
            LabelVector(y=np.array([1, 0], dtype=np.int8))

    @pytest.mark.parametrize("value", [255, 257, 300, -129, 2**31, 2**63, 2**70, 1.5, "1", np.nan])
    def test_checked_before_the_int8_cast(self, value):
        # 255 and 257 would wrap to -1 and +1
        with pytest.raises(ValueError, match=r"entries must be \+1 or -1"):
            LabelVector(y=[1, value])

    def test_positives(self):
        lv = LabelVector(y=np.array([1, -1, 1], dtype=np.int8))
        assert lv.positives == (0, 2)
        assert all(type(c) is int for c in lv.positives)
        assert lv.positives is lv.positives  # computed once
        assert "positives" not in repr(lv)


class TestSaliencyMap:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SaliencyMap(values=np.array([[-0.1]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SaliencyMap(values=np.array([[np.inf]]))

    def test_class_is_not_an_argument(self):
        with pytest.raises(TypeError):
            SaliencyMap(class_id=0, values=np.zeros((2, 2)))


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

    @pytest.mark.parametrize("gt,message", [
        ((0, Box(0, 0, 17, 4)), "exceeds grid bounds"),
        # evaluation would score class 0.9 as class 0
        ((0.9, Box(0, 0, 2, 2)), "gt box class must be an integer, got 0.9"),
        ((True, Box(0, 0, 2, 2)), "gt box class must be an integer, got True"),
    ], ids=["bounds", "float class", "bool class"])
    def test_gt_box_must_fit_image(self, touching_objects_record, gt, message):
        rec = touching_objects_record
        with pytest.raises(ValueError, match=message):
            ImageRecord(
                id=rec.id, grid=rec.grid, proposals=rec.proposals,
                features=rec.features, labels=rec.labels,
                saliency=dict(rec.saliency),
                gt_boxes=[gt],
            )

    @pytest.mark.parametrize("other", ["coarser tiling", "equal copy"])
    def test_proposal_must_be_on_the_record_grid(self, other):
        grid = tiling_grid(32, 8)  # 4x4-pixel superpixels
        foreign = tiling_grid(32, 4) if other == "coarser tiling" else tiling_grid(32, 8)
        own, moved = Proposal(grid, (15,)), Proposal(foreign, (15,))
        assert own.bbox == Box(28, 4, 32, 8)
        if other == "coarser tiling":  # 8x8-pixel superpixels
            assert moved.bbox == Box(24, 24, 32, 32)
        rec = build_record("r", grid, [[15]], np.ones((1, 2)), [1, -1],
                           {0: np.ones((32, 32))}, [])
        with pytest.raises(ValueError, match="proposal 1 is on another grid"):
            ImageRecord(
                id=rec.id, grid=grid, proposals=[own, moved],
                features=np.ones((2, 2)), labels=rec.labels,
                saliency=dict(rec.saliency),
            )

    def test_proposal_geometry_matches_pixel_oracle_on_irregular_grids(self):
        """Each record's member pairs and box rows, proposal by proposal.

        A 1-superpixel and an all-superpixel proposal sit among random
        ones, so segments of every length meet at the boundaries.
        """
        rng = np.random.default_rng(6)
        for grid in random_irregular_grids(rng):
            n = grid.n_superpixels
            id_lists = [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                               .tolist()) for _ in range(4)]
            id_lists += [[int(rng.integers(n))], list(range(n))]
            id_lists = [id_lists[k] for k in rng.permutation(len(id_lists))]
            rec = build_record("r", grid, id_lists, np.ones((len(id_lists), 2)), [1],
                               {0: np.ones((grid.height, grid.width))}, [])
            rows, ids = rec.proposal_members
            assert rows.tolist() == [k for k, members in enumerate(id_lists) for _ in members]
            assert ids.tolist() == [i for members in id_lists for i in members]
            for k, members in enumerate(id_lists):
                box = pixel_mask_box(np.isin(grid.labels, members))[0]
                assert tuple(rec.proposal_boxes[k].tolist()) == box, (k, members)
            for arr in (rows, ids):
                with pytest.raises(ValueError):
                    arr[0] = 0
