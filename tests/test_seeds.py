"""Seed scoring, selection, negative mining, and the threshold baseline."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage

from oracles import pixel_seed_scores, pixel_select_negatives, pixel_select_seeds
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
        seeds = select_seeds(two_superpixel_record, SIGMA)
        assert list(seeds) == [0]
        score = seeds[0]
        assert score.proposal_index == 0
        assert score.rs == float(np.float32(0.8))
        assert score.ns == float(np.float32(0.2))
        assert score.contrast == pytest.approx(
            math.exp(4 / SIGMA**2) * (score.rs - score.ns), rel=1e-15
        )

    def test_small_sigma_favors_area(self, two_superpixel_record):
        # exp(8)*0.5 dwarfs exp(4)*0.6: the area weight flips the argmax
        seeds = select_seeds(two_superpixel_record, sigma=1.0)
        assert seeds[0].proposal_index == 2


class TestTouchingObjects:
    def test_seeds_are_distinct_objects(self, touching_objects_record):
        rec = touching_objects_record
        seeds = select_seeds(rec, SIGMA)
        assert seeds[0].proposal_index == 0
        assert seeds[1].proposal_index == 1
        assert rec.proposals[0].bbox == rec.gt_boxes[0][1]
        assert rec.proposals[1].bbox == rec.gt_boxes[1][1]
        assert seeds[0].contrast == pytest.approx(
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
            seeds = select_seeds(rec, SIGMA)
            assert {c: s.proposal_index for c, s in seeds.items()} == pixel_select_seeds(
                rec, SIGMA
            )
            assignment = select_negatives(rec, seeds)
            assert list(assignment.negatives) == pixel_select_negatives(
                rec, {c: s.proposal_index for c, s in seeds.items()}, SIGMA
            )

    @pytest.mark.parametrize("a,b", [(0.1, 0.0), (3.0, 5.0), (100.0, 5.0)])
    def test_selection_invariant_to_affine_rescale(self, corpus, a, b):
        for rec in corpus:
            scaled = replace(
                rec,
                saliency={
                    c: SaliencyMap(class_id=c, values=a * m.values + b)
                    for c, m in rec.saliency.items()
                },
            )
            base = make_assignment(rec, SIGMA)
            assert make_assignment(scaled, SIGMA) == base


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
        smap = SaliencyMap(class_id=0, values=np.zeros((8, 8)))
        assert threshold_baseline(smap) == []

    def test_diagonal_pixels_stay_separate(self):
        values = np.zeros((4, 4))
        values[0, 0] = values[1, 1] = 1.0
        boxes = threshold_baseline(SaliencyMap(class_id=0, values=values), theta=0.5)
        assert boxes == [Box(0, 0, 1, 1), Box(1, 1, 2, 2)]  # scan order

    def test_matches_scipy_components(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            side = int(rng.integers(5, 17))
            values = rng.random((side, side))
            values[values < 0.3] = 0.0
            smap = SaliencyMap(class_id=0, values=values)
            theta = float(rng.uniform(0.3, 0.9))
            got = threshold_baseline(smap, theta=theta)
            want = self._boxes_via_scipy(smap.values.astype(np.float64), theta)
            assert len(got) == len(want)
            assert sorted(b.as_tuple() for b in got) == sorted(
                b.as_tuple() for b in want
            )


class TestSeedAssignment:
    def test_properties(self):
        a = SeedAssignment(seeds=((0, 3), (2, 5)), negatives=(1, 7))
        assert a.seed_for == {0: 3, 2: 5}
        assert a.sample_indices == (3, 5, 1, 7)
        np.testing.assert_array_equal(a.targets, [1.0, 1.0, 0.0, 0.0])

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
        ],
    )
    def test_rejects(self, seeds, negatives, msg):
        with pytest.raises(ValueError, match=msg):
            SeedAssignment(seeds=seeds, negatives=negatives)
