"""NMS, detection AP, CorLoc, classification AP, and the full report."""

import functools
import importlib
import json
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import Row, build_record, detection_table, row_records, table_rows, tiling_grid
from oracles import (
    match_detections,
    naive_corloc,
    naive_detection_ap,
    prefix_ap,
    quadratic_nms,
)
from saldet.core import Box, ImageRecord, proposal_from_superpixels
from saldet.dataio import SynthConfig, generate_synthetic
from saldet.evaluate import (
    DetectionTable,
    classification_ap,
    corloc,
    detection_ap,
    evaluate,
    nms,
    score_dataset,
)
from saldet.model import ModelConfig, forward, init_params

# the module, which the package's ``evaluate`` function shadows as an attribute
evaluate_module = importlib.import_module("saldet.evaluate")
det = Row
IDS = ("a", "b", "c", "d")


def table(rows, ids=IDS):
    return detection_table(rows, ids)


def id_records(ids=IDS):
    """Records of the given ids whose proposals are never scored."""
    return [metric_record(i, [1], []) for i in ids]


def kept_rows(rows, **kw):
    """Rows kept by ``nms``, in its output order."""
    records = row_records(rows, id_records())
    return table_rows(nms(table(rows), records, **kw), records)


def ids_of(records):
    return [r.id for r in records]


def ap(rows, records, **kw):
    return detection_ap(table(rows, ids_of(records)), row_records(rows, records), **kw)


def loc(rows, records, **kw):
    return corloc(table(rows, ids_of(records)), row_records(rows, records), **kw)


def metric_record(rec_id, y, gt_boxes):
    """Minimal valid record for metric tests; features are never scored."""
    grid = tiling_grid(24, 4)
    positives = [c for c, v in enumerate(y) if v == 1]
    return build_record(
        rec_id, grid, [[0]], np.zeros((1, 4)), y,
        {c: np.full((24, 24), 0.5) for c in positives}, gt_boxes,
    )


class TestDetection:
    def test_rejects_bad_scores(self):
        for score in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="score"):
                table([det("a", 0, Box(0, 0, 2, 2), 0.5, 0),
                       det("a", 0, Box(0, 0, 2, 2), score, 1)])

    def test_score_dataset_checks_every_score(self, monkeypatch):
        records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        params = init_params(config, 0)
        for bad in (float("nan"), -0.25, 1.25):
            def fake_forward_images(params, features, config, bad=bad):
                rows = sum(len(f) for f in features)
                scores = np.full((rows, config.num_classes), 0.5)
                scores[-1, -1] = bad
                return SimpleNamespace(scores=scores, image_scores=np.zeros((len(features), 4)))
            monkeypatch.setattr(evaluate_module, "forward_images", fake_forward_images)
            with pytest.raises(ValueError, match="score"):
                score_dataset(params, records, config)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="columns"):
            DetectionTable(image=[0, 0], class_id=[0], proposal=[0, 1], score=[0.5, 0.5])

    @pytest.mark.parametrize("name", ["image", "class_id", "proposal"])
    @pytest.mark.parametrize("value", [[0.9], [2.0], [True]])
    def test_rejects_index_columns_not_given_as_integers(self, name, value):
        # a truncated proposal index would select a real proposal's box
        columns = {"image": [0], "class_id": [1], "proposal": [2], name: value}
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            DetectionTable(**columns, score=[0.5])

    def test_accepts_any_integer_dtype(self):
        table = DetectionTable(image=np.array([0], dtype=np.uint8), class_id=[1],
                               proposal=np.array([2], dtype=np.int32), score=[0.5])
        assert (table.image.dtype, table.proposal.tolist()) == (np.int64, [2])

    @pytest.mark.parametrize("metric", ["nms", "detection_ap", "corloc"])
    @pytest.mark.parametrize("image,proposal,message", [
        (0, 1, "proposal index outside its image's proposals"),
        (1, 3, "proposal index outside its image's proposals"),
        (2, 0, "image index outside the evaluated records"),
    ])
    def test_rejects_index_naming_no_proposal(self, metric, image, proposal, message):
        # record "a" has one proposal, "b" three: index 1 of "a" is in
        # range of the concatenated boxes, but not of its own image
        records = row_records(
            [det("b", 0, Box(0, 0, 2, 2), 0.5, 2)], id_records(("a", "b"))
        )
        rows = DetectionTable(image=[0, image], class_id=[0, 0], proposal=[0, proposal],
                              score=[0.9, 0.5])
        with pytest.raises(ValueError, match=message):
            getattr(evaluate_module, metric)(rows, records)

    @pytest.mark.parametrize("stage", ["score_dataset", "nms", "detection_ap", "corloc"])
    def test_empty_input_gives_empty_result(self, stage):
        empty = DetectionTable(image=[], class_id=[], proposal=[], score=[])
        if stage == "score_dataset":
            config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                                 saliency_hidden=4)
            dets, scores = score_dataset(init_params(config, 0), [], config)
            assert (len(dets), scores) == (0, {})
        elif stage == "nms":
            assert nms(empty, []) is empty
            assert nms(empty, id_records()) is empty
        else:
            assert getattr(evaluate_module, stage)(empty, []) == {}


class TestNms:
    def test_rejects_bad_threshold(self):
        for t in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="NMS threshold"):
                nms(table([]), [], iou_threshold=t)

    def test_identical_boxes_keep_best(self):
        box = Box(0, 0, 4, 4)
        kept = kept_rows([det("a", 0, box, 0.3, 0), det("a", 0, box, 0.9, 1)])
        assert [(d.score, d.proposal_index) for d in kept] == [(0.9, 1)]

    def test_score_tie_keeps_lower_index(self):
        box = Box(0, 0, 4, 4)
        kept = kept_rows([det("a", 0, box, 0.5, 1), det("a", 0, box, 0.5, 0)])
        assert [d.proposal_index for d in kept] == [0]

    def test_disjoint_boxes_survive(self):
        dets = [
            det("a", 0, Box(0, 0, 4, 4), 0.9, 0),
            det("a", 0, Box(10, 10, 14, 14), 0.2, 1),
        ]
        assert len(kept_rows(dets)) == 2

    def test_groups_do_not_interact(self):
        box = Box(0, 0, 4, 4)
        dets = [
            det("a", 0, box, 0.9, 0),
            det("a", 1, box, 0.8, 0),
            det("b", 0, box, 0.7, 0),
        ]
        assert len(kept_rows(dets)) == 3

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            dets, items = [], []
            for i in range(n):
                x0 = int(rng.integers(0, 16))
                y0 = int(rng.integers(0, 16))
                box = Box(x0, y0, x0 + int(rng.integers(1, 9)), y0 + int(rng.integers(1, 9)))
                score = float(rng.random())
                dets.append(det("a", 0, box, score, i))
                items.append((box, score, i))
            threshold = float(rng.uniform(0.2, 0.8))
            kept = kept_rows(dets, iou_threshold=threshold)
            expected = quadratic_nms(items, threshold)
            assert [(d.bbox, d.score, d.proposal_index) for d in kept] == expected

    def test_batched_groups_match_quadratic_oracle(self, monkeypatch):
        # many images and classes at once; coarse scores tie, copied boxes
        # are identical and abutting boxes touch without sharing a pixel
        rng = np.random.default_rng(29)
        for trial in range(40):
            counts = rng.integers(1, 40, size=int(rng.integers(1, 9)))
            self.check_against_oracle(rng, counts, trial)
        # equal-count images that fill more than one IoU batch, and an
        # image past the cap, which is a batch alone
        self.check_against_oracle(rng, [100] * 8 + [300] + [100] * 5, 2)
        # the same at a small cap, where most images of a count share a
        # batch with others and many are past it
        monkeypatch.setattr(importlib.import_module("saldet._accel"), "_IOU_BATCH", 64)
        for trial in range(20):
            count = int(rng.integers(2, 12))
            counts = [count] * int(rng.integers(2, 12)) + rng.integers(1, 12, size=3).tolist()
            self.check_against_oracle(rng, rng.permutation(counts), trial)

    @pytest.mark.parametrize("budget", [None, 500])
    def test_dense_images_match_quadratic_oracle(self, monkeypatch, budget):
        # 150-200 boxes an image, as in the dense benchmark: at the real
        # tile budget images of more than 181 boxes take two row tiles,
        # and at a budget of a few rows a tile most overlapping pairs
        # straddle a tile edge
        if budget is not None:
            monkeypatch.setattr(importlib.import_module("saldet._accel"), "_IOU_BATCH", budget)
        rng = np.random.default_rng(37)
        for trial in range(3):
            self.check_against_oracle(rng, rng.integers(150, 201, size=3), trial)

    def test_sparse_huge_class_ids_match_quadratic_oracle(self):
        # two ids far apart, and rows missing: the class groups are
        # numbered without anything sized by the largest id (2**40)
        rng = np.random.default_rng(41)
        tracemalloc.start()
        try:
            for trial in range(6):
                counts = rng.integers(1, 30, size=int(rng.integers(1, 5)))
                self.check_against_oracle(rng, counts, trial, classes=(2**40, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @staticmethod
    def check_against_oracle(rng, counts, trial, classes=None):
        if classes is None:
            classes = range(int(rng.integers(1, 6)))
        threshold = (1e-9, 0.99, float(rng.uniform(0.1, 0.9)))[trial % 3]
        image_ids = [f"img{k}" for k in range(len(counts))]
        rows = []
        for image_id, count in zip(image_ids, counts):
            boxes = []
            for _ in range(int(count)):
                kind = rng.random()
                if boxes and kind < 0.2:
                    boxes.append(boxes[int(rng.integers(len(boxes)))])
                elif boxes and kind < 0.4:
                    b = boxes[int(rng.integers(len(boxes)))]
                    boxes.append(Box(b.x1, b.y0, b.x1 + int(rng.integers(1, 6)), b.y1))
                else:
                    x0, y0 = int(rng.integers(0, 12)), int(rng.integers(0, 12))
                    boxes.append(Box(x0, y0, x0 + int(rng.integers(1, 7)),
                                     y0 + int(rng.integers(1, 7))))
            for c in classes:
                coarse = rng.random() < 0.5
                for i, box in enumerate(boxes):
                    if rng.random() < 0.8:
                        score = rng.integers(0, 4) / 3 if coarse else rng.random()
                        rows.append(det(image_id, c, box, float(score), i))
        order = rng.permutation(len(rows))
        records = row_records(rows, id_records(image_ids))
        got = table_rows(
            nms(detection_table([rows[k] for k in order], image_ids), records,
                iou_threshold=threshold),
            records,
        )
        expected = []
        for image_id in image_ids:
            for c in sorted(classes):
                items = [(r.bbox, r.score, r.proposal_index) for r in rows
                         if r.image_id == image_id and r.class_id == c]
                expected += [Row(image_id, c, *item)
                             for item in quadratic_nms(items, threshold)]
        assert got == expected

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(5)
        dets = [
            det("a", 0, Box(i % 7, 0, i % 7 + 3, 5), float(rng.random()), i)
            for i in range(12)
        ]
        kept = kept_rows(dets)
        shuffled = list(dets)
        rng.shuffle(shuffled)
        assert kept_rows(shuffled) == kept

    def test_rejects_inconsistent_rows(self):
        rows = [det("a", 0, Box(0, 0, 4, 4), 0.5, 0), det("a", 0, Box(0, 0, 4, 4), 0.7, 0)]
        with pytest.raises(ValueError, match="more than once"):
            nms(table(rows), row_records(rows, id_records()))


class TestDetectionAp:
    def test_perfect_detector(self):
        records = [
            metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("b", [-1, 1], [(1, Box(6, 6, 12, 12))]),
        ]
        dets = [
            det("a", 0, Box(0, 0, 6, 6), 1.0, 0),
            det("b", 1, Box(6, 6, 12, 12), 1.0, 0),
        ]
        assert ap(dets, records) == {0: 1.0, 1: 1.0}

    def test_all_misses(self):
        records = [metric_record("a", [1], [(0, Box(0, 0, 6, 6))])]
        dets = [det("a", 0, Box(12, 12, 20, 20), 0.9, 0)]
        assert ap(dets, records) == {0: 0.0}

    def test_no_detections_for_class(self):
        records = [metric_record("a", [1], [(0, Box(0, 0, 6, 6))])]
        assert ap([], records) == {0: 0.0}

    def test_class_without_gt_is_skipped(self, caplog):
        records = [metric_record("a", [1, -1, -1], [(0, Box(0, 0, 6, 6))])]
        dets = [det("a", c, Box(0, 0, 6, 6), 0.9, 0) for c in (1, 2**61)]
        with caplog.at_level("INFO", logger="saldet.evaluate"):
            assert ap(dets, records) == {0: 0.0}
        # class 2 has neither rows nor ground truth, so it stays silent
        assert caplog.messages == [
            "class 1 has no ground-truth boxes; AP undefined",
            f"class {2**61} has no ground-truth boxes; AP undefined",
        ]

    def test_hand_curve(self):
        records = [
            metric_record(i, [1], [(0, Box(0, 0, 6, 6))]) for i in ("a", "b", "c")
        ]
        far = Box(12, 12, 18, 18)
        dets = [
            det("a", 0, Box(0, 0, 6, 6), 0.9, 0),
            det("a", 0, far, 0.8, 1),
            det("b", 0, Box(0, 0, 6, 6), 0.7, 0),
            det("c", 0, far, 0.6, 1),
            det("c", 0, Box(0, 0, 6, 6), 0.5, 0),
        ]
        # flags T F T F T over 3 positives
        assert ap(dets, records)[0] == pytest.approx(34 / 45, abs=1e-12)
        assert ap(dets, records, eleven_point=True)[0] == pytest.approx(
            8.4 / 11, abs=1e-12
        )
        assert prefix_ap([True, False, True, False, True], 3) == pytest.approx(
            34 / 45, abs=1e-12
        )

    def test_duplicate_detection_is_false_positive(self):
        records = [metric_record("a", [1], [(0, Box(0, 0, 6, 6))])]
        dets = [
            det("a", 0, Box(12, 12, 18, 18), 0.9, 0),
            det("a", 0, Box(0, 0, 6, 6), 0.8, 1),
            det("a", 0, Box(0, 0, 6, 6), 0.7, 2),  # GT already matched
        ]
        # flags F T F: AP = recall gain 1.0 at best later precision 2/3... no:
        # precisions 0, 1/2, 1/3; envelope after first TP = 1/2
        assert ap(dets, records)[0] == pytest.approx(0.5, abs=1e-12)

    def test_each_detection_takes_its_best_free_gt(self):
        records = [
            metric_record(
                "a", [1], [(0, Box(0, 0, 10, 10)), (0, Box(0, 2, 10, 12))]
            )
        ]
        dets = [
            det("a", 0, Box(0, 2, 10, 12), 0.9, 0),  # IoU .667 / 1 -> second GT
            det("a", 0, Box(0, 0, 10, 10), 0.8, 1),  # first GT still free
        ]
        assert ap(dets, records)[0] == 1.0

    def test_score_tie_breaks_by_image_id(self):
        # records out of id order: equal scores rank image "a" first
        records = [
            metric_record("b", [1], [(0, Box(0, 0, 6, 6))]),
            metric_record("a", [1], [(0, Box(0, 0, 6, 6))]),
        ]
        dets = [
            det("b", 0, Box(0, 0, 6, 6), 0.5, 0),      # hit
            det("a", 0, Box(12, 12, 18, 18), 0.5, 0),  # miss
        ]
        # flags F T over 2 positives
        assert ap(dets, records)[0] == pytest.approx(0.25, abs=1e-12)

    def test_matches_highest_iou_unmatched_gt(self):
        records = [
            metric_record(
                "a", [1], [(0, Box(0, 0, 10, 10)), (0, Box(0, 4, 10, 14))]
            )
        ]
        dets = [
            det("a", 0, Box(0, 3, 10, 13), 0.9, 0),  # IoU .538 / .818 -> second GT
            det("a", 0, Box(0, 4, 10, 14), 0.8, 1),  # exact, but GT taken; other .429
        ]
        assert ap(dets, records)[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_greedy_oracle_on_random_inputs(self):
        rng = np.random.default_rng(41)
        records, _ = generate_synthetic(SynthConfig(images=6, seed=8))
        for trial in range(12):
            dets = []
            for rec in records:
                for i, prop in enumerate(rec.proposals):
                    for c in range(4):
                        if rng.random() < 0.4:
                            dets.append(
                                det(rec.id, c, prop.bbox, float(rng.random()), i)
                            )
            got = ap(dets, records)
            for c, value in got.items():
                by_img = {}
                ordered = sorted(
                    (d for d in dets if d.class_id == c),
                    key=lambda d: (-d.score, d.image_id, d.proposal_index),
                )
                for d in ordered:
                    by_img.setdefault(d.image_id, []).append(d)
                queues = {
                    img: iter(
                        match_detections(
                            [d.bbox for d in group],
                            [b for cc, b in
                             next(r for r in records if r.id == img).gt_boxes
                             if cc == c],
                            0.5,
                        )
                    )
                    for img, group in by_img.items()
                }
                flags = [next(queues[d.image_id]) for d in ordered]
                n_gt = sum(
                    1 for r in records for cc, _ in r.gt_boxes if cc == c
                )
                assert value == pytest.approx(prefix_ap(flags, n_gt), abs=1e-12)


class TestCorloc:
    def _records(self):
        return [
            metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("b", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("c", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("d", [-1, 1], [(1, Box(6, 6, 12, 12))]),
        ]

    def test_hand_fractions(self):
        records = self._records()
        far = Box(12, 12, 18, 18)
        dets = [
            det("a", 0, Box(0, 0, 6, 6), 0.9, 0),   # hit
            det("a", 0, far, 0.1, 1),
            det("b", 0, far, 0.9, 0),               # top det misses
            det("b", 0, Box(0, 0, 6, 6), 0.1, 1),
            det("c", 0, Box(0, 0, 6, 6), 0.8, 0),   # hit
            det("d", 1, Box(6, 6, 12, 12), 0.4, 0), # hit
        ]
        assert loc(dets, records) == {0: pytest.approx(2 / 3), 1: 1.0}

    def test_score_tie_resolved_by_lower_index(self):
        records = self._records()[:1]
        good, far = Box(0, 0, 6, 6), Box(12, 12, 18, 18)
        miss = [det("a", 0, far, 0.5, 0), det("a", 0, good, 0.5, 1)]
        hit = [det("a", 0, good, 0.5, 0), det("a", 0, far, 0.5, 1)]
        # the proposal index decides, not the row order
        for rows in (miss, miss[::-1]):
            assert loc(rows, records) == {0: 0.0}
        for rows in (hit, hit[::-1]):
            assert loc(rows, records) == {0: 1.0}

    def test_image_without_detections_counts_as_miss(self):
        records = self._records()[:2]
        dets = [det("a", 0, Box(0, 0, 6, 6), 0.9, 0)]  # nothing for image b
        assert loc(dets, records) == {0: 0.5}

    def test_negative_class_detections_ignored(self):
        records = [metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))])]
        dets = [
            det("a", 0, Box(0, 0, 6, 6), 0.9, 0),
            det("a", 1, Box(12, 12, 18, 18), 0.99, 1),
        ]
        assert loc(dets, records) == {0: 1.0}

    def test_unaffected_by_nms(self):
        rng = np.random.default_rng(23)
        records, _ = generate_synthetic(SynthConfig(images=8, seed=3))
        dets = []
        for rec in records:
            for i, prop in enumerate(rec.proposals):
                for c in range(4):
                    dets.append(det(rec.id, c, prop.bbox, float(rng.random()), i))
        assert corloc(nms(table(dets, ids_of(records)), records), records) == loc(dets, records)


class TestClassNumbering:
    """AP and CorLoc number (image, class) groups as NMS does: nothing is
    sized or keyed by a class id's value."""

    CLASSES = (0, 1, 2, 3, 2**40, 2**61)

    def test_huge_class_ids_match_oracles(self):
        # classes 0-3 have ground truth and positives, the two huge ids
        # only rows; each (image, class, proposal) row is missing at random
        rng = np.random.default_rng(47)
        tracemalloc.start()
        try:
            for _ in range(20):
                records, rows = [], []
                for k in range(int(rng.integers(1, 9))):
                    y = [1 if v else -1 for v in rng.random(4) < 0.5]
                    y[int(rng.integers(4))] = 1
                    gt = [(c, self.random_box(rng)) for c in range(4)
                          for _ in range(int(rng.integers(0, 3)))]
                    records.append(metric_record(f"img{k}", y, gt))
                    # the gt boxes are proposals too, so top rows often hit
                    boxes = [b for _, b in gt] + [self.random_box(rng) for _ in range(3)]
                    boxes = [boxes[i] for i in rng.permutation(len(boxes))]
                    for c in self.CLASSES:
                        for i, box in enumerate(boxes):
                            if rng.random() < 0.6:
                                rows.append(det(f"img{k}", c, box, rng.integers(0, 5) / 4, i))
                want_ap = naive_detection_ap(rows, records)
                got_ap = ap(rows, records)
                assert got_ap.keys() == want_ap.keys()
                for c, v in want_ap.items():
                    assert got_ap[c] == pytest.approx(v, abs=1e-12)
                assert loc(rows, records) == naive_corloc(rows, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @staticmethod
    def random_box(rng):
        x0, y0 = (int(v) for v in rng.integers(0, 18, 2))
        return Box(x0, y0, x0 + int(rng.integers(1, 7)), y0 + int(rng.integers(1, 7)))


class TestClassificationAp:
    def _records(self):
        return [
            metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("b", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("c", [-1, 1], [(1, Box(0, 0, 6, 6))]),
            metric_record("d", [-1, 1], [(1, Box(0, 0, 6, 6))]),
        ]

    def test_perfect_ranking(self):
        records = self._records()
        scores = {
            "a": np.array([0.9, 0.1]), "b": np.array([0.8, 0.2]),
            "c": np.array([0.1, 0.9]), "d": np.array([0.2, 0.8]),
        }
        assert classification_ap(scores, records) == {0: 1.0, 1: 1.0}

    def test_single_positive_ranked_last(self):
        records = [
            metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("b", [-1, 1], [(1, Box(0, 0, 6, 6))]),
            metric_record("c", [-1, 1], [(1, Box(0, 0, 6, 6))]),
            metric_record("d", [-1, 1], [(1, Box(0, 0, 6, 6))]),
        ]
        scores = {"a": np.array([0.1, 0.9]), "b": np.array([0.9, 0.1]),
                  "c": np.array([0.8, 0.2]), "d": np.array([0.7, 0.3])}
        assert classification_ap(scores, records)[0] == pytest.approx(0.25)

    def test_invariant_to_monotone_rescale(self):
        rng = np.random.default_rng(77)
        records = self._records()
        scores = {r.id: rng.random(2) for r in records}
        squared = {k: v**2 for k, v in scores.items()}
        assert classification_ap(scores, records) == classification_ap(squared, records)

    def test_score_tie_breaks_by_image_id(self):
        records = [
            metric_record("b", [1, -1], [(0, Box(0, 0, 6, 6))]),
            metric_record("a", [-1, 1], [(1, Box(0, 0, 6, 6))]),
        ]
        scores = {"b": np.array([0.5, 0.5]), "a": np.array([0.5, 0.5])}
        # "a" ranks first: class 0 flags F T, class 1 flags T F
        assert classification_ap(scores, records) == {0: 0.5, 1: 1.0}

    def test_class_without_positives_skipped(self):
        records = [metric_record("a", [1, -1], [(0, Box(0, 0, 6, 6))])]
        result = classification_ap({"a": np.array([0.5, 0.5])}, records)
        assert list(result) == [0]

    def test_matches_prefix_oracle(self):
        rng = np.random.default_rng(19)
        records, _ = generate_synthetic(SynthConfig(images=10, seed=6))
        scores = {r.id: rng.random(4) for r in records}
        got = classification_ap(scores, records)
        for c, ap in got.items():
            ranked = sorted(records, key=lambda r: (-float(scores[r.id][c]), r.id))
            flags = [bool(r.labels.y[c] == 1) for r in ranked]
            assert ap == pytest.approx(prefix_ap(flags, sum(flags)), abs=1e-12)


def dense_records(seed, images=4, extra=(100, 140)):
    """Synthetic records plus 100+ random superpixel-rectangle proposals each."""
    rng = np.random.default_rng(seed)
    records, _ = generate_synthetic(SynthConfig(images=images, seed=seed))
    out = []
    for rec in records:
        proposals = list(rec.proposals)
        for _ in range(int(rng.integers(*extra))):
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r0, c0 = int(rng.integers(0, 9 - h)), int(rng.integers(0, 9 - w))
            ids = [r * 8 + c for r in range(r0, r0 + h) for c in range(c0, c0 + w)]
            proposals.append(proposal_from_superpixels(rec.grid, ids))
        out.append(ImageRecord(
            id=rec.id, grid=rec.grid, proposals=proposals,
            features=rng.normal(size=(len(proposals), 16)), labels=rec.labels,
            saliency=rec.saliency, gt_boxes=rec.gt_boxes,
        ))
    return out


@functools.lru_cache(maxsize=None)
def chunk_records(num_classes):
    """Records of 1 to 600 proposals, 1,480 rows in all, with class 0 positive."""
    counts = [1, 8, 2, 3, 7, 9, 150, 1, 9, 300, 2, 7, 600, 3, 1, 8, 250, 9, 100, 2, 1, 7]
    grid = tiling_grid(16, 8)
    rng = np.random.default_rng(num_classes)
    y = [1] + [-1] * (num_classes - 1)
    return [
        build_record(f"r{k:02d}", grid, rng.integers(0, 64, size=(n, 1)).tolist(),
                     rng.normal(size=(n, 16)), y, {0: np.full((16, 16), 0.5)}, [])
        for k, n in enumerate(counts)
    ]


class TestEvaluatePipeline:
    def test_oracle_detections_score_one(self):
        # exact planted-box detections at score 1 drive every metric to 1
        records, _ = generate_synthetic(SynthConfig(images=10, seed=4))
        dets, scores = [], {}
        for rec in records:
            for k, (c, box) in enumerate(rec.gt_boxes):
                dets.append(det(rec.id, c, box, 1.0, k))
            scores[rec.id] = (rec.labels.y == 1).astype(np.float64)
        records = row_records(dets, records)
        det_ap = detection_ap(nms(table(dets, ids_of(records)), records), records)
        assert set(det_ap.values()) == {1.0}
        assert set(loc(dets, records).values()) == {1.0}
        assert set(classification_ap(scores, records).values()) == {1.0}

    def test_report_structure(self):
        records, _ = generate_synthetic(SynthConfig(images=8, seed=12))
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        report = evaluate(init_params(config, 0), records, config)
        assert report.num_images == 8
        assert report.num_gt_boxes == sum(len(r.gt_boxes) for r in records)
        assert report.mean_detection_ap == pytest.approx(
            np.mean(list(report.detection_ap.values()))
        )
        assert report.mean_corloc == pytest.approx(
            np.mean(list(report.corloc.values()))
        )
        doc = json.loads(json.dumps(report.as_json_dict()))
        assert doc["num_images"] == 8
        assert set(doc) == {
            "num_images", "num_gt_boxes", "detection_ap", "mean_detection_ap",
            "corloc", "mean_corloc", "classification_ap", "mean_classification_ap",
        }

    def test_score_dataset_shapes(self):
        records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        params = init_params(config, 0)
        dets, scores = score_dataset(params, records, config)
        assert len(dets) == sum(r.num_proposals * 4 for r in records)
        for rec in records:
            assert scores[rec.id].shape == (4,)
            assert 0.0 <= scores[rec.id].min() and scores[rec.id].max() <= 1.0
            # the boxes NMS, AP and CorLoc read for the rows
            assert rec.proposal_boxes.dtype == np.int64
            assert rec.proposal_boxes.tolist() == [list(p.bbox.as_tuple()) for p in rec.proposals]
            with pytest.raises(ValueError, match="read-only"):
                rec.proposal_boxes[0, 0] = 1
        keys = set(zip(dets.image.tolist(), dets.proposal.tolist(), dets.class_id.tolist()))
        assert len(keys) == len(dets)
        phi = [forward(params, rec.features, config).scores for rec in records]
        for i, p, c, score in zip(dets.image, dets.proposal, dets.class_id, dets.score):
            assert score == phi[i][p, c]

    @pytest.mark.parametrize("num_classes", [1, 2, 4, 20])
    @pytest.mark.parametrize("saliency", [True, False])
    @pytest.mark.parametrize("widths", [(8,), (64, 64)])
    def test_chunked_scores_equal_forward(self, num_classes, saliency, widths):
        # 1- to 3-proposal images among 7-9- and 100-300-proposal ones, more
        # rows than one chunk takes, and one image longer than a chunk
        records = chunk_records(num_classes)
        counts = [rec.num_proposals for rec in records]
        assert max(counts) > evaluate_module._CHUNK_ROWS and min(counts) == 1
        config = ModelConfig(feature_dim=16, num_classes=num_classes, trunk_widths=widths,
                             saliency_hidden=32, saliency_enabled=saliency)
        params = init_params(config, num_classes)
        rng = np.random.default_rng(len(widths))
        for name, arr in params.values.items():
            if name.endswith(".b"):  # every ReLU mask gets both signs
                arr[...] = rng.uniform(-0.3, 0.3, arr.shape)
        dets, taus = score_dataset(params, records, config)
        for i, rec in enumerate(records):
            trace = forward(params, rec.features, config)
            assert dets.score[dets.image == i].tobytes() == trace.scores.tobytes()
            assert taus[rec.id].tobytes() == trace.image_scores.tobytes()

    def test_chunks_hold_whole_records_within_the_row_budget(self, monkeypatch):
        monkeypatch.setattr(evaluate_module, "_CHUNK_ROWS", 10)
        chunks = evaluate_module._chunks([1, 8, 1, 12, 3, 7, 10, 2])
        assert chunks == [(0, 3), (3, 4), (4, 6), (6, 7), (7, 8)]
        assert evaluate_module._chunks([]) == []

    def test_names_the_record_whose_feature_width_does_not_fit(self):
        records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
        narrow = records[1]
        records[1] = ImageRecord(
            id=narrow.id, grid=narrow.grid, proposals=narrow.proposals,
            features=narrow.features[:, :8], labels=narrow.labels,
            saliency=narrow.saliency, gt_boxes=narrow.gt_boxes,
        )
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        message = f"^image {narrow.id}: feature dim 8 != model feature dim 16$"
        with pytest.raises(ValueError, match=message):
            evaluate(init_params(config, 0), records, config)

    def test_names_the_record_whose_class_count_does_not_fit(self, monkeypatch):
        records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
        config = ModelConfig(feature_dim=16, num_classes=5, trunk_widths=(8,),
                             saliency_hidden=4)

        def refuse(*args):
            raise AssertionError("the records were scored")

        monkeypatch.setattr(evaluate_module, "forward_images", refuse)
        message = f"^record {records[0].id}: 4 classes, model has 5$"
        with pytest.raises(ValueError, match=message):
            evaluate(init_params(config, 0), records, config)

    def test_rejects_a_repeated_record_id_before_scoring(self, monkeypatch):
        # image scores are keyed by id, so two records would share one tau
        records, _ = generate_synthetic(SynthConfig(images=6, seed=1))
        records[5] = replace(records[5], id=records[2].id)
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)

        def refuse(*args):
            raise AssertionError("the records were scored")

        monkeypatch.setattr(evaluate_module, "forward_images", refuse)
        with pytest.raises(ValueError, match=f"^record id '{records[2].id}' is repeated$"):
            evaluate(init_params(config, 0), records, config)

    def test_matches_oracle_composition(self):
        # per-group quadratic NMS, greedy pixel-IoU matching with per-prefix
        # AP, and a plain top-box scan, on records with 100+ proposals
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        for seed in (2, 3):
            records = dense_records(seed)
            assert min(r.num_proposals for r in records) >= 100
            params = init_params(config, seed)
            rows, kept, taus = [], [], {}
            for rec in records:
                trace = forward(params, rec.features, config)
                taus[rec.id] = trace.image_scores
                for c in range(4):
                    items = [(p.bbox, float(trace.scores[i, c]), i)
                             for i, p in enumerate(rec.proposals)]
                    rows += [Row(rec.id, c, *item) for item in items]
                    kept += [Row(rec.id, c, *item) for item in quadratic_nms(items, 0.4)]
            report = evaluate(params, records, config)
            # evaluate reads CorLoc from the NMS output: the top rows survive it
            dets, _ = score_dataset(params, records, config)
            assert corloc(dets, records) == corloc(nms(dets, records), records)
            want_ap = naive_detection_ap(kept, records)
            assert report.detection_ap.keys() == want_ap.keys()
            for c, v in want_ap.items():
                assert report.detection_ap[c] == pytest.approx(v, abs=1e-12)
            assert report.corloc == naive_corloc(rows, records)
            for c, v in report.classification_ap.items():
                ranked = sorted(records, key=lambda r: (-float(taus[r.id][c]), r.id))
                flags = [bool(r.labels.y[c] == 1) for r in ranked]
                assert v == pytest.approx(prefix_ap(flags, sum(flags)), abs=1e-12)

    def test_rejects_bad_iou_threshold(self):
        records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)
        params = init_params(config, 0)
        for t in (0.0, -0.5, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="IoU matching threshold"):
                evaluate(params, records, config, iou_threshold=t)
        assert evaluate(params, records, config, iou_threshold=1.0).num_images == 3

    @pytest.mark.parametrize("thresholds,message", [
        ({"nms_threshold": 0.0}, "NMS threshold"),
        ({"iou_threshold": 2.0}, "IoU matching threshold"),
    ])
    def test_thresholds_checked_before_scoring(self, monkeypatch, thresholds, message):
        records, _ = generate_synthetic(SynthConfig(images=2, seed=1))
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,),
                             saliency_hidden=4)

        def refuse(*args):
            raise AssertionError("the records were scored")

        monkeypatch.setattr(evaluate_module, "score_dataset", refuse)
        with pytest.raises(ValueError, match=message):
            evaluate(init_params(config, 0), records, config, **thresholds)
