"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single CRITERION line (visible with -s); the -v test
names carry the same numbering, so either view gives per-criterion
pass/fail at a glance.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import Row, build_record, detection_table, row_records, table_rows, tiling_grid
from golden import standard as golden
from oracles import (
    naive_corloc,
    naive_detection_ap,
    pixel_iou,
    pixel_select_negatives,
    pixel_select_seeds,
    prefix_ap,
    quadratic_nms,
)
from saldet import benchmark
from saldet.core import Box, iou
from saldet.dataio import SynthConfig, generate_synthetic
from saldet.evaluate import (
    classification_ap,
    corloc,
    detection_ap,
    nms,
)
from saldet.model import (
    ModelConfig,
    forward,
    image_classification_loss,
    init_params,
    run_gradient_check,
    seed_classification_loss,
    seed_saliency_loss,
)
from saldet.seeds import (
    proposal_scores,
    select_negatives,
    select_seeds,
    threshold_baseline,
)


_det = Row


def test_criterion_1_gradients_match_finite_differences():
    report = run_gradient_check(seed=7, instances=20)
    assert report.max_rel_error < 1e-5, (
        f"max relative error {report.max_rel_error:.3e} over "
        f"{[e for _, e in report.per_instance]}"
    )
    assert report.elapsed_s < 60.0
    print(
        f"CRITERION 1 PASS: max rel error {report.max_rel_error:.3e} < 1e-5 "
        f"across 20 instances in {report.elapsed_s:.1f}s"
    )


def test_criterion_2_score_matrix_invariants_hold():
    rng = np.random.default_rng(2)
    grid = [(c, n, d) for c in (2, 3, 5) for n in (1, 4, 9) for d in (3, 8)]
    for k in range(1000):
        c, n, d = grid[k % len(grid)]
        config = ModelConfig(
            feature_dim=d, num_classes=c, trunk_widths=(6,), saliency_hidden=3
        )
        params = init_params(config, rng_seed=int(rng.integers(2**31)))
        for name, arr in params.values.items():
            if name.endswith(".b"):
                arr[...] = rng.uniform(-0.5, 0.5, arr.shape)
        trace = forward(params, rng.normal(size=(n, d)), config)
        assert trace.scores.min() >= 0.0 and trace.scores.max() <= 1.0
        assert trace.image_scores.min() >= 0.0 and trace.image_scores.max() <= 1.0
        assert np.abs(trace.cls_softmax.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.abs(trace.det_softmax.sum(axis=0) - 1.0).max() <= 1e-6
    print(
        "CRITERION 2 PASS: 1000 random forwards kept scores in [0,1] "
        "and softmax sums within 1e-6"
    )


def test_criterion_3_seed_selection_matches_pixel_oracle():
    sigma = 1e3
    records, _ = generate_synthetic(
        SynthConfig(images=200, objects_per_image=(1, 3), seed=321)
    )
    for rec in records:
        # the calls make_assignment makes, on one scoring pass
        scores = proposal_scores(rec, sigma)
        got = select_seeds(scores)
        assert got == pixel_select_seeds(rec, sigma)
        assert list(select_negatives(rec, got, scores).negatives) == (
            pixel_select_negatives(rec, got, sigma)
        )
        from saldet.core import SaliencyMap

        for a, b in itertools.product((0.1, 3.0, 100.0), (0.0, 5.0)):
            scaled = replace(
                rec,
                saliency={
                    c: SaliencyMap(values=a * m.values + b)
                    for c, m in rec.saliency.items()
                },
            )
            assert select_seeds(proposal_scores(scaled, sigma)) == got
    print(
        "CRITERION 3 PASS: 200 images match the pixel oracle index-for-index; "
        "seeds invariant under 6 affine rescalings"
    )


def test_criterion_4_touching_objects_separate(touching_objects_record):
    rec = touching_objects_record
    picks = select_seeds(proposal_scores(rec, sigma=1e3))
    assert picks == {0: 0, 1: 1}
    assert len(set(picks.values())) == 2
    merged = {c: threshold_baseline(rec.saliency[c], theta=0.5) for c in (0, 1)}
    assert all(len(boxes) == 1 for boxes in merged.values())
    assert all(boxes == [Box(0, 4, 16, 12)] for boxes in merged.values())
    print(
        "CRITERION 4 PASS: two distinct seeds (proposals 0 and 1) vs one "
        "merged threshold box spanning both objects"
    )


def test_criterion_5_metrics_match_hand_values_and_oracles():
    tol = 1e-9
    rng = np.random.default_rng(55)

    # --- hand fixtures -----------------------------------------------------
    assert abs(iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) - 2 / 6) < tol

    def record(rec_id, y, gt):
        positives = [c for c, v in enumerate(y) if v == 1]
        return build_record(
            rec_id, tiling_grid(32, 4), [[0]], np.zeros((1, 4)), y,
            {c: np.full((32, 32), 0.5) for c in positives}, gt,
        )

    def kept_rows(rows, threshold=0.4):
        records = row_records(rows, [record("a", [1], [])])
        return table_rows(nms(detection_table(rows, ["a"]), records, threshold), records)

    box_a, box_c = Box(0, 0, 4, 4), Box(10, 10, 14, 14)
    kept = kept_rows([
        _det("a", 0, box_a, 0.9, 0),
        _det("a", 0, box_a, 0.8, 1),
        _det("a", 0, box_c, 0.5, 2),
    ])
    assert [(d.score, d.proposal_index) for d in kept] == [(0.9, 0), (0.5, 2)]

    hand_records = [
        record(i, [1], [(0, Box(0, 0, 6, 6))]) for i in ("a", "b", "c")
    ]
    far = Box(12, 12, 18, 18)
    hand_dets = [
        _det("a", 0, Box(0, 0, 6, 6), 0.9, 0),
        _det("a", 0, far, 0.8, 1),
        _det("b", 0, Box(0, 0, 6, 6), 0.7, 0),
        _det("c", 0, far, 0.6, 1),
        _det("c", 0, Box(0, 0, 6, 6), 0.5, 0),
    ]
    hand_ids = [r.id for r in hand_records]
    assert abs(detection_ap(detection_table(hand_dets, hand_ids),
                            row_records(hand_dets, hand_records))[0] - 34 / 45) < tol

    top_miss = [
        _det("a", 0, Box(0, 0, 6, 6), 0.9, 0),
        _det("b", 0, far, 0.9, 0),
        _det("c", 0, Box(0, 0, 6, 6), 0.8, 0),
    ]
    assert abs(corloc(detection_table(top_miss, hand_ids),
                      row_records(top_miss, hand_records))[0] - 2 / 3) < tol

    rank_records = [
        record("a", [1, -1], [(0, Box(0, 0, 6, 6))]),
        record("b", [-1, 1], [(1, Box(0, 0, 6, 6))]),
        record("c", [-1, 1], [(1, Box(0, 0, 6, 6))]),
        record("d", [-1, 1], [(1, Box(0, 0, 6, 6))]),
    ]
    rank_scores = {"a": np.array([0.1, 0.9]), "b": np.array([0.9, 0.1]),
                   "c": np.array([0.8, 0.2]), "d": np.array([0.7, 0.3])}
    assert abs(classification_ap(rank_scores, rank_records)[0] - 0.25) < tol

    # --- 100 random instances against each brute-force oracle --------------
    for _ in range(100):
        x0, y0 = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        u0, v0 = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        a = Box(x0, y0, x0 + int(rng.integers(1, 8)), y0 + int(rng.integers(1, 8)))
        b = Box(u0, v0, u0 + int(rng.integers(1, 8)), v0 + int(rng.integers(1, 8)))
        assert abs(iou(a, b) - pixel_iou(a, b)) < tol

    for _ in range(100):
        n = int(rng.integers(1, 25))
        items, dets = [], []
        for i in range(n):
            x0, y0 = int(rng.integers(0, 14)), int(rng.integers(0, 14))
            box = Box(x0, y0, x0 + int(rng.integers(1, 8)), y0 + int(rng.integers(1, 8)))
            score = float(rng.random())
            items.append((box, score, i))
            dets.append(_det("a", 0, box, score, i))
        threshold = float(rng.uniform(0.2, 0.8))
        kept = kept_rows(dets, threshold)
        assert [(d.bbox, d.score, d.proposal_index) for d in kept] == (
            quadratic_nms(items, threshold)
        )

    corpus, _ = generate_synthetic(SynthConfig(images=8, seed=9))
    corpus_ids = [r.id for r in corpus]
    for trial in range(100):
        dets = []
        for rec in corpus:
            for i, prop in enumerate(rec.proposals):
                for c in range(4):
                    if rng.random() < 0.3:
                        dets.append(_det(rec.id, c, prop.bbox, float(rng.random()), i))
        got_ap = detection_ap(detection_table(dets, corpus_ids), corpus)
        want_ap = naive_detection_ap(dets, corpus)
        assert set(got_ap) == set(want_ap)
        for c in got_ap:
            assert abs(got_ap[c] - want_ap[c]) < tol
        got_loc = corloc(detection_table(dets, corpus_ids), corpus)
        want_loc = naive_corloc(dets, corpus)
        assert set(got_loc) == set(want_loc)
        for c in got_loc:
            assert abs(got_loc[c] - want_loc[c]) < tol

    for _ in range(100):
        scores = {r.id: rng.random(4) for r in corpus}
        got = classification_ap(scores, corpus)
        for c, ap in got.items():
            ranked = sorted(corpus, key=lambda r: (-float(scores[r.id][c]), r.id))
            flags = [bool(r.labels.y[c] == 1) for r in ranked]
            assert abs(ap - prefix_ap(flags, sum(flags))) < tol

    print(
        "CRITERION 5 PASS: IoU/NMS/detection AP/CorLoc/classification AP "
        "match hand values to 1e-9 and oracles on 100 random instances each"
    )


@pytest.fixture(scope="module")
def benchmark_result():
    """The standard grid over seeds 0-4, its wall time and each run's parameter digest."""
    tic = time.perf_counter()
    result, digests = golden.run_grid()
    return result, time.perf_counter() - tic, digests


def test_criterion_6_standard_benchmark_learns(benchmark_result):
    result, wall, _ = benchmark_result
    full_corloc = result.mean_corloc("full")
    full_map = result.mean_test_map("full")
    assert full_corloc >= 0.80, f"mean CorLoc {full_corloc:.3f} < 0.80"
    assert full_map >= 0.60, f"mean test mAP {full_map:.3f} < 0.60"
    assert wall < 300.0, f"benchmark took {wall:.0f}s"
    print(
        f"CRITERION 6 PASS: mean CorLoc {full_corloc:.3f} >= 0.80, "
        f"test mAP {full_map:.3f} >= 0.60 over 5 seeds in {wall:.0f}s"
    )


def test_criterion_7_ablation_ordering(benchmark_result):
    result, _, _ = benchmark_result
    full = result.mean_corloc("full")
    no_sal = result.mean_corloc("no_sal")
    baseline = result.mean_corloc("baseline")
    assert full > no_sal > baseline, (
        f"CorLoc ordering violated: full {full:.3f}, no_sal {no_sal:.3f}, "
        f"baseline {baseline:.3f}"
    )
    assert full - baseline >= 0.02, (
        f"full-baseline separation {full - baseline:.3f} < 0.02"
    )
    print(
        f"CRITERION 7 PASS: CorLoc full {full:.3f} > no_sal {no_sal:.3f} > "
        f"baseline {baseline:.3f}; separation {full - baseline:.3f} >= 0.02"
    )


@pytest.mark.parametrize("variant, seed", [("full", 0), ("no_sal", 1), ("baseline", 2)])
def test_run_variant_is_that_run_of_the_grid(benchmark_result, variant, seed):
    result, _, _ = benchmark_result
    [run] = [r for r in result.runs if (r.variant, r.seed) == (variant, seed)]
    alone = benchmark.run_variant(variant, seed)
    assert alone.train_report.as_json_dict() == run.train_report.as_json_dict()
    assert alone.test_report.as_json_dict() == run.test_report.as_json_dict()
    assert alone.params.flat_values.tobytes() == run.params.flat_values.tobytes()


def test_standard_results_match_the_recorded_contract(benchmark_result, tmp_path):
    result, _, digests = benchmark_result
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    diff = golden.changed(recorded, golden.record(result, digests, golden.pipeline(tmp_path)))
    assert golden.readme_table() == recorded["readme_table"], "README table != standard.json"
    table = [key for key in diff if key.startswith("readme_table.")]
    assert not table, f"README table fields differ from the run: {table}"
    host = [key for key in diff if key.startswith("environment.")]
    if host:
        print(f"CONTRACT README TABLE PASS: digests not compared on another host ({host})")
        return
    assert not diff, f"fields differ from tests/golden/standard.json: {diff}"
    print(
        f"CONTRACT PASS: {len(recorded['params'])} parameter digests, "
        f"{len(recorded['reports'])} report digests, the pipeline and the README table "
        "match tests/golden/standard.json"
    )


@pytest.mark.parametrize("old, new, flat, fields", [
    # a nested value that differs
    ({"a": 1, "b": {"c": 2, "d": 3}}, {"a": 1, "b": {"c": 2, "d": 4}},
     {"a": 1, "b.c": 2, "b.d": 4}, ["b.d"]),
    # fields that only one side has, nested and at the top
    ({"a": 1, "b": {"c": 2}}, {"a": 1, "b": {"c": 2, "e": 5}, "f": [6]},
     {"a": 1, "b.c": 2, "b.e": 5, "f": [6]}, ["b.e", "f"]),
    # equal records
    ({"a": [1, 2], "b": {"c": {"d": "x"}}}, {"a": [1, 2], "b": {"c": {"d": "x"}}},
     {"a": [1, 2], "b.c.d": "x"}, []),
])
def test_contract_diff_names_each_differing_field(old, new, flat, fields):
    assert golden._flatten(new) == flat
    assert golden.changed(old, new) == golden.changed(new, old) == fields


def test_criterion_8_pipeline_is_byte_deterministic(tmp_path):
    data_a, seeds_a, ckpt_a, report_a = golden.pipeline(tmp_path / "run_a")
    data_b, seeds_b, ckpt_b, report_b = golden.pipeline(tmp_path / "run_b")
    assert data_a == data_b
    assert seeds_a == seeds_b
    assert ckpt_a == ckpt_b
    assert report_a == report_b
    print(
        "CRITERION 8 PASS: synth -> seeds -> train -> eval twice gave byte-identical "
        "datasets, seed files, checkpoints, and reports"
    )


def test_criterion_9_loss_spot_checks():
    tol = 1e-12
    ln2 = np.log(2.0)

    ic, _ = image_classification_loss(np.array([0.5, 0.5]), [1, -1], epsilon=1e-8)
    assert abs(ic - 2 * ln2) < tol

    phi = np.full((3, 2), 0.5)
    sc, _ = seed_classification_loss(phi, [(0, 1), (1, 2)], epsilon=1e-8)
    assert abs(sc - 2 * ln2) < tol

    ss, _ = seed_saliency_loss(np.array([0.5, 0.5]), (0, 1), (1.0, 0.0))
    assert abs(ss - 0.5) < tol
    print(
        "CRITERION 9 PASS: image loss ln2 per class, seed loss ln2 per "
        "positive class, saliency loss 0.5, all within 1e-12"
    )
