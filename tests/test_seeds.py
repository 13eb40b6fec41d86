"""Seed scoring, selection, negative mining, and the threshold baseline."""

import logging
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.ndimage

from conftest import IRREGULAR_LABELS, build_record, irregular_grid
from oracles import pixel_seed_scores, pixel_select_negatives, pixel_select_seeds
from saldet import _accel
from saldet.core import Box, SaliencyMap
from saldet.dataio import SynthConfig, generate_synthetic
from saldet.seeds import (
    SeedAssignment,
    make_assignment,
    proposal_scores,
    saliency_contrast,
    select_negatives,
    select_seeds,
    threshold_baseline,
)

SIGMA = 1e3


class TestHandValues:
    def test_region_saliency(self, two_superpixel_record):
        rs, _, _ = proposal_scores(two_superpixel_record, SIGMA)[0]
        assert rs[0] == float(np.float32(0.8))
        assert rs[1] == float(np.float32(0.2))
        assert rs[2] == pytest.approx(0.5, rel=1e-6)

    def test_neighborhood_saliency(self, two_superpixel_record):
        _, ns, _ = proposal_scores(two_superpixel_record, SIGMA)[0]
        assert ns[0] == float(np.float32(0.2))
        assert ns[1] == float(np.float32(0.8))
        # the union covers the whole image: empty neighborhood scores 0
        assert ns[2] == 0.0

    def test_contrast_formula(self):
        assert saliency_contrast(0.8, 0.2, 4, 2.0) == pytest.approx(
            math.exp(1.0) * 0.6, rel=1e-15
        )
        assert saliency_contrast(0.1, 0.7, 100, 10.0) == pytest.approx(
            math.exp(1.0) * -0.6, rel=1e-15
        )

    def test_contrast_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            saliency_contrast(0.5, 0.1, 10, 0.0)

    def test_contrast_caps_exp_argument(self, caplog):
        with caplog.at_level(logging.WARNING):
            value = saliency_contrast(1.0, 0.0, 10**9, 1.0)
        assert value == pytest.approx(math.exp(64.0), rel=1e-15)
        assert any("capping" in m for m in caplog.messages)

    def test_seed_prefers_high_contrast(self, two_superpixel_record):
        scores = proposal_scores(two_superpixel_record, SIGMA)
        assert select_seeds(scores) == {0: 0}
        rs, ns, contrast = (float(row[0]) for row in scores[0])
        assert rs == float(np.float32(0.8))
        assert ns == float(np.float32(0.2))
        assert contrast == pytest.approx(math.exp(4 / SIGMA**2) * (rs - ns), rel=1e-15)

    def test_small_sigma_favors_area(self, two_superpixel_record):
        # exp(8)*0.5 dwarfs exp(4)*0.6: the area weight flips the argmax
        assert select_seeds(proposal_scores(two_superpixel_record, sigma=1.0)) == {0: 2}

    def test_ties_break_toward_lowest_index(self):
        row = np.array([0.0])
        contrast = np.array([0.5, 0.9, 0.9, 0.1])
        assert select_seeds({3: (row, row, contrast)}) == {3: 1}


class TestTouchingObjects:
    def test_seeds_are_distinct_objects(self, touching_objects_record):
        rec = touching_objects_record
        scores = proposal_scores(rec, SIGMA)
        assert select_seeds(scores) == {0: 0, 1: 1}
        assert rec.proposals[0].bbox == rec.gt_boxes[0][1]
        assert rec.proposals[1].bbox == rec.gt_boxes[1][1]
        assert scores[0][2][0] == pytest.approx(
            math.exp(64 / SIGMA**2) * (1 - 1.1 / 6), rel=1e-6
        )

    def test_threshold_merges_them(self, touching_objects_record):
        rec = touching_objects_record
        for c in (0, 1):
            boxes = threshold_baseline(rec.saliency[c], theta=0.5)
            assert boxes == [Box(0, 4, 16, 12)]  # one box spanning both objects

    def test_negatives_truncate_when_proposals_run_out(
        self, touching_objects_record, caplog
    ):
        with caplog.at_level(logging.WARNING):
            assignment = make_assignment(touching_objects_record, SIGMA)
        assert assignment.seeds == ((0, 0), (1, 1))
        assert assignment.negatives == (2,)  # only 3 proposals for 4 slots
        assert any("truncated" in m for m in caplog.messages)


@pytest.fixture(scope="module")
def corpus():
    records, _ = generate_synthetic(
        SynthConfig(images=6, objects_per_image=(1, 3), seed=77)
    )
    return records


class TestAgainstPixelOracle:
    def test_scores_match(self, corpus):
        for rec in corpus:
            expected = pixel_seed_scores(rec, SIGMA)
            scores = proposal_scores(rec, SIGMA)
            assert sorted(scores) == sorted(expected)
            for c, per_class in expected.items():
                for i, (rs, ns, sc) in enumerate(zip(*scores[c])):
                    assert rs == pytest.approx(per_class[i][0], rel=1e-9)
                    assert ns == pytest.approx(per_class[i][1], rel=1e-9)
                    assert sc == pytest.approx(per_class[i][2], rel=1e-9)

    def test_selection_matches(self, corpus):
        for rec in corpus:
            scores = proposal_scores(rec, SIGMA)
            seeds = select_seeds(scores)
            assert seeds == pixel_select_seeds(rec, SIGMA)
            assignment = select_negatives(rec, seeds, scores)
            assert list(assignment.negatives) == pixel_select_negatives(rec, seeds, SIGMA)

    def test_make_assignment_sums_each_class_once(self, corpus, monkeypatch):
        real = _accel.superpixel_sums
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_accel, "superpixel_sums", counting)
        for rec in corpus:
            calls.clear()
            make_assignment(rec, SIGMA)
            assert len(calls) == len(rec.labels.positives)

    @pytest.mark.parametrize("a,b", [(0.1, 0.0), (3.0, 5.0), (100.0, 5.0)])
    def test_selection_invariant_to_affine_rescale(self, corpus, a, b):
        for rec in corpus:
            scaled = replace(
                rec,
                saliency={
                    c: SaliencyMap(values=a * m.values + b)
                    for c, m in rec.saliency.items()
                },
            )
            base = make_assignment(rec, SIGMA)
            assert make_assignment(scaled, SIGMA) == base


def full_grid_scores(record, sigma):
    """``proposal_scores`` by sums over every pixel of the label grid, then
    the same matrix products: the reference for its exact bits."""
    grid = record.grid
    n_sp = grid.n_superpixels
    rows, ids = record.proposal_members
    member = np.zeros((record.num_proposals, n_sp))
    member[rows, ids] = 1.0
    offsets, neighbor_ids = grid.neighbors
    near = np.zeros(member.shape)
    for r, k in zip(rows.tolist(), ids.tolist()):
        near[r, neighbor_ids[offsets[k]:offsets[k + 1]]] = 1.0
    near[rows, ids] = 0.0
    labels = grid.labels.ravel()
    sums = np.array([
        np.bincount(labels, weights=record.saliency[c].values.ravel().astype(np.float64),
                    minlength=n_sp)
        for c in record.labels.positives
    ])
    area = member @ grid.pixel_counts
    rs = sums @ member.T / area
    near_px = near @ grid.pixel_counts
    ns = np.divide(sums @ near.T, near_px, out=np.zeros_like(rs), where=near_px > 0)
    contrast = saliency_contrast(rs, ns, area, sigma)
    return {c: (rs[k], ns[k], contrast[k]) for k, c in enumerate(record.labels.positives)}


def assert_same_bits(scores, expected):
    assert sorted(scores) == sorted(expected)
    for c, rows in expected.items():
        for got, want in zip(scores[c], rows):
            assert got.dtype == want.dtype and np.array_equal(got, want), c


@pytest.fixture(scope="module")
def large_record():
    """One 256x256 record of 1024 superpixels, whose proposals and their
    neighbourhoods reach a small part of the grid."""
    records, _ = generate_synthetic(
        SynthConfig(grid_side=256, superpixels=1024, images=1, seed=3)
    )
    return records[0]


class TestReachedPixels:
    """Scores summed over the reached superpixels' pixels only have the
    bits of sums over the whole grid."""

    @pytest.mark.parametrize("sigma", [1.0, 30.0, SIGMA])
    def test_large_record_matches_full_grid_sums(self, large_record, sigma):
        assert_same_bits(
            proposal_scores(large_record, sigma), full_grid_scores(large_record, sigma)
        )

    def test_large_record_sums_fewer_pixels(self, large_record, monkeypatch):
        real = _accel.superpixel_sums
        sizes = []

        def counting(labels, values, n_sp):
            sizes.append((labels.size, values.size))
            return real(labels, values, n_sp)

        monkeypatch.setattr(_accel, "superpixel_sums", counting)
        make_assignment(large_record, SIGMA)
        n_px = large_record.grid.labels.size
        assert len(sizes) == len(large_record.labels.positives)
        assert all(a == b < n_px // 4 for a, b in sizes), (sizes, n_px)

    @pytest.mark.parametrize("name", sorted(IRREGULAR_LABELS))
    def test_sparse_proposals_on_irregular_grids(self, name):
        grid = irregular_grid(name)
        n_sp = grid.n_superpixels
        rng = np.random.default_rng(len(name) + 100)
        shape = (grid.height, grid.width)
        # one superpixel, alone or with the union of it and every later
        # one; on a grid with superpixels that do not touch, some of these
        # leave one unreached
        for k in range(n_sp):
            for proposal_ids in ([[k]], [[k], list(range(k, n_sp))]):
                rec = build_record(
                    name, grid, proposal_ids, rng.normal(size=(len(proposal_ids), 4)),
                    [1, -1, 1], {0: rng.random(shape), 2: rng.random(shape)}, [],
                )
                assert_same_bits(proposal_scores(rec, SIGMA), full_grid_scores(rec, SIGMA))


class TestIrregularGrids:
    @pytest.mark.parametrize("name", sorted(IRREGULAR_LABELS))
    def test_scores_match_pixel_oracle(self, name):
        grid = irregular_grid(name)
        n_sp = grid.n_superpixels
        # every superpixel, every pair of them, and the whole grid
        proposal_ids = [
            [k] for k in range(n_sp)
        ] + [list(pair) for pair in combinations(range(n_sp), 2)] + [list(range(n_sp))]
        rng = np.random.default_rng(len(name))
        shape = (grid.height, grid.width)
        rec = build_record(
            name, grid, proposal_ids, rng.normal(size=(len(proposal_ids), 4)),
            [1, -1, 1], {0: rng.random(shape), 2: rng.random(shape)}, [],
        )
        expected = pixel_seed_scores(rec, SIGMA)
        scores = proposal_scores(rec, SIGMA)
        assert sorted(scores) == sorted(expected) == [0, 2]
        for c, per_class in expected.items():
            np.testing.assert_allclose(np.transpose(scores[c]), per_class, rtol=1e-9)
            # the whole grid has no neighbourhood
            assert scores[c][1][-1] == 0.0

    def test_seed_selection_builds_no_dense_adjacency(self, monkeypatch):
        records, _ = generate_synthetic(
            SynthConfig(grid_side=256, superpixels=1024, images=1, seed=3)
        )
        rec = records[0]

        def refuse(*args):
            raise AssertionError("seed selection built an n_sp x n_sp adjacency")

        monkeypatch.setattr(_accel, "adjacency_matrix", refuse)
        assignment = make_assignment(rec, SIGMA)
        assert [c for c, _ in assignment.seeds] == list(rec.labels.positives)
        # a regular grid gives each superpixel at most 4 neighbours
        assert rec.grid.neighbors[1].size <= 4 * 1024


class TestThresholdBaseline:
    def _boxes_via_scipy(self, values, theta):
        mask = values >= theta * values.max()
        four = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
        labeled, count = scipy.ndimage.label(mask, structure=four)
        boxes = []
        for lbl in range(1, count + 1):
            ys, xs = np.nonzero(labeled == lbl)
            boxes.append(Box(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1))
        return boxes

    def test_rejects_bad_theta(self, two_superpixel_record):
        for theta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="theta"):
                threshold_baseline(two_superpixel_record.saliency[0], theta=theta)

    def test_zero_map_yields_nothing(self):
        smap = SaliencyMap(values=np.zeros((8, 8)))
        assert threshold_baseline(smap) == []

    def test_diagonal_pixels_stay_separate(self):
        values = np.zeros((4, 4))
        values[0, 0] = values[1, 1] = 1.0
        boxes = threshold_baseline(SaliencyMap(values=values), theta=0.5)
        assert boxes == [Box(0, 0, 1, 1), Box(1, 1, 2, 2)]  # scan order

    @staticmethod
    def _sparse_map(rng):
        """A few small blobs away from row and column 0, the last one
        touching the last row or the last column."""
        side = int(rng.integers(8, 33))
        values = np.zeros((side, side))
        n_blobs = int(rng.integers(1, 5))
        for k in range(n_blobs):
            h, w = (int(v) for v in rng.integers(1, 4, size=2))
            y = int(rng.integers(2, side - h + 1))
            x = int(rng.integers(2, side - w + 1))
            if k == n_blobs - 1:
                if rng.random() < 0.5:
                    y = side - h
                else:
                    x = side - w
            values[y:y + h, x:x + w] = rng.uniform(0.2, 1.0, size=(h, w))
        return values

    def test_matches_scipy_components(self):
        """The same boxes in the same order: scipy also numbers components
        in scan order of their first pixel."""
        rng = np.random.default_rng(31)
        dense = []
        for _ in range(20):
            side = int(rng.integers(5, 17))
            values = rng.random((side, side))
            values[values < 0.3] = 0.0
            dense.append(values)
        sparse = [self._sparse_map(rng) for _ in range(40)]
        for values in dense + sparse:
            smap = SaliencyMap(values=values)
            theta = float(rng.uniform(0.3, 0.9))
            got = threshold_baseline(smap, theta=theta)
            want = self._boxes_via_scipy(smap.values.astype(np.float64), theta)
            assert got == want

    def test_compares_in_float64(self):
        """0.7 as float32 is just below 0.7, so only the peak reaches
        0.7 * peak; a float32 comparison would keep both pixels."""
        values = np.zeros((8, 8), dtype=np.float32)
        values[0, 0] = 1.0
        values[3, 3] = np.float32(0.7)
        assert threshold_baseline(SaliencyMap(values=values), theta=0.7) == [Box(0, 0, 1, 1)]


class TestSeedAssignment:
    def test_properties(self):
        a = SeedAssignment(seeds=((0, 3), (2, 5)), negatives=(1, 7))
        assert a.sample_indices == (3, 5, 1, 7)
        np.testing.assert_array_equal(a.targets, [1.0, 1.0, 0.0, 0.0])
        # built once and shared, so it cannot be written
        assert a.targets is a.targets and not a.targets.flags.writeable

    def test_shared_seed_proposal_allowed(self):
        SeedAssignment(seeds=((0, 3), (1, 3)), negatives=(2,))

    @pytest.mark.parametrize(
        "seeds,negatives,msg",
        [
            (((1, 3), (0, 5)), (), "ascending"),
            (((0, 3), (0, 5)), (), "unique"),
            (((0, 3),), (3,), "disjoint"),
            (((0, 3), (1, 4)), (5, 5), "distinct"),
            (((0, 3),), (1, 2), "more negatives"),
            (((0, -1),), (2,), "index -1 is negative"),
            # an index of 2.9 would train proposal 2 as a negative
            (((0, 1),), (2.9,), "negatives proposal index must be an integer, got 2.9"),
            (((0, 1.0),), (), "seeds proposal index must be an integer, got 1.0"),
            (((0, True),), (), "seeds proposal index must be an integer, got True"),
            (((np.float64(0), 1),), (), "seeds class id must be an integer"),
        ],
    )
    def test_rejects(self, seeds, negatives, msg):
        with pytest.raises(ValueError, match=msg):
            SeedAssignment(seeds=seeds, negatives=negatives)

    def test_numpy_integers_are_stored_as_ints(self):
        i64 = np.int64
        a = SeedAssignment(seeds=((i64(0), i64(3)), (2, np.int32(5))), negatives=(i64(1),))
        assert a.seeds == ((0, 3), (2, 5)) and a.negatives == (1,)
        assert {type(v) for pair in a.seeds for v in pair} | {type(a.negatives[0])} == {int}
