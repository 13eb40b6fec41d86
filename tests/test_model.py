"""Forward pass, loss terms, analytic gradients, and checkpoints."""

import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import LAYER_BIAS, LAYERS
from oracles import reference_forward, reference_step
from saldet.core import LabelVector
from saldet.model import (
    ModelConfig,
    _checkpoint_header,
    backward,
    forward,
    forward_images,
    image_classification_loss,
    init_params,
    load_checkpoint,
    loss_and_grads,
    param_layout,
    run_gradient_check,
    save_checkpoint,
    seed_classification_loss,
    seed_saliency_loss,
    step_losses,
)
from saldet.seeds import SeedAssignment

CFG = ModelConfig(feature_dim=4, num_classes=4, trunk_widths=(8,), saliency_hidden=4)


def zero_params(config):
    params = init_params(config, rng_seed=0)
    for name in params.values:
        params.values[name][...] = 0.0
    return params


class TestModelConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"feature_dim": 0},
            {"num_classes": 0},
            {"trunk_widths": ()},
            {"trunk_widths": (8, 0)},
            {"saliency_hidden": 0},
            {"lambda_seed_cls": -1.0},
            {"feature_dim": True},
            {"num_classes": 4.0},
            {"saliency_hidden": np.float64(4)},
            {"trunk_widths": (8.5,)},
            {"trunk_widths": (8, True)},
            {"trunk_widths": 8},
            {"saliency_enabled": "no"},
            {"lambda_l2": "x"},
        ],
    )
    def test_rejects(self, kw):
        base = dict(feature_dim=4, num_classes=4)
        base.update(kw)
        with pytest.raises(ValueError):
            ModelConfig(**base)

    @pytest.mark.parametrize("kw, message", [
        ({"feature_dim": True}, "feature_dim must be an integer, got True"),
        ({"trunk_widths": (8.5,)}, "trunk_widths entry must be an integer, got 8.5"),
        ({"saliency_enabled": "no"}, "saliency_enabled must be a bool, got 'no'"),
        ({"lambda_l2": "x"}, "lambda_l2 must be a number, got 'x'"),
    ])
    def test_integer_errors_name_the_field(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**{"feature_dim": 4, "num_classes": 4, **kw})

    def test_numpy_integers_are_accepted(self):
        config = ModelConfig(feature_dim=np.int64(4), num_classes=np.int32(2),
                             trunk_widths=[np.int64(8)], saliency_hidden=np.uint8(3))
        assert config == ModelConfig(feature_dim=4, num_classes=2, trunk_widths=(8,),
                                     saliency_hidden=3)
        widths = (config.feature_dim, config.num_classes, config.saliency_hidden)
        assert {type(v) for v in widths + config.trunk_widths} == {int}

    def test_numbers_are_stored_as_plain_values(self):
        config = ModelConfig(feature_dim=4, num_classes=2, lambda_seed_cls=1,
                             lambda_l2=np.float32(0.5), saliency_enabled=np.bool_(False))
        # an int given for a float field stays an int, as it prints the same
        assert type(config.lambda_seed_cls) is int and type(config.lambda_l2) is float
        assert config.saliency_enabled is False

    def test_trunk_out(self):
        assert ModelConfig(feature_dim=4, num_classes=2, trunk_widths=(8, 6)).trunk_out == 6


class TestInitParams:
    def test_shapes_and_ranges(self):
        params = init_params(CFG, rng_seed=3)
        assert set(params.values) == {
            "trunk0.w", "trunk0.b", "sal_hidden.w", "sal_hidden.b",
            "sal_out.w", "sal_out.b", "cls.w", "cls.b", "det.w", "det.b",
        }
        assert params.values["trunk0.w"].shape == (4, 8)
        assert params.values["cls.w"].shape == (8, 4)
        assert params.values["sal_out.w"].shape == (4,)
        for name, arr in params.values.items():
            if name.endswith(".b"):
                np.testing.assert_array_equal(arr, 0.0)
            else:
                assert np.abs(arr).max() <= 1.0 / math.sqrt(arr.shape[0])
            np.testing.assert_array_equal(params.velocity[name], 0.0)

    def test_seeded(self):
        a = init_params(CFG, rng_seed=5)
        b = init_params(CFG, rng_seed=5)
        c = init_params(CFG, rng_seed=6)
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])
        assert any(
            not np.array_equal(a.values[n], c.values[n]) for n in a.values
        )

    def test_copy_is_deep(self):
        a = init_params(CFG, rng_seed=0)
        b = a.copy()
        b.values["cls.w"][0, 0] += 1.0
        assert a.values["cls.w"][0, 0] != b.values["cls.w"][0, 0]


class TestFlatBuffers:
    def test_entries_are_views_of_one_buffer(self):
        params = init_params(CFG, rng_seed=0)
        for flat, named in (
            (params.flat_values, params.values),
            (params.flat_velocity, params.velocity),
        ):
            flat[...] = np.arange(flat.size)
            covered = np.concatenate([arr.ravel() for arr in named.values()])
            # every buffer slot sits in exactly one tensor
            np.testing.assert_array_equal(np.sort(covered), np.arange(flat.size))
            for arr in named.values():
                assert np.shares_memory(arr, flat)

    def test_rebinding_an_entry_raises(self):
        params = init_params(CFG, rng_seed=0)
        with pytest.raises(TypeError):
            params.values["cls.w"] = np.zeros((8, 4))
        with pytest.raises(TypeError):
            params.velocity["cls.w"] = np.zeros((8, 4))

    def test_l2_prefix_holds_exactly_the_penalised_weights(self):
        for enabled in (True, False):
            config = ModelConfig(
                feature_dim=4, num_classes=4, trunk_widths=(8, 6), saliency_hidden=4,
                saliency_enabled=enabled,
            )
            params = init_params(config, rng_seed=0)
            params.flat_values[...] = np.arange(params.flat_values.size)
            penalised = [
                arr.ravel() for name, arr in params.values.items()
                if name.endswith(".w") and (enabled or not name.startswith("sal_"))
            ]
            np.testing.assert_array_equal(
                np.sort(np.concatenate(penalised)),
                np.arange(param_layout(config).l2_end),
            )

    def test_l2_term_matches_per_tensor_sum(self):
        params = init_params(CFG, rng_seed=4)
        want = sum(
            float((arr * arr).sum()) for name, arr in params.values.items()
            if name.endswith(".w")
        )
        feats, y = np.random.default_rng(0).normal(size=(3, 4)), [1, -1, -1, 1]
        trace = forward(params, feats, CFG)
        assert step_losses(params, trace, y, None, CFG)[0].l2 == pytest.approx(want, rel=1e-12)
        assert loss_and_grads(params, feats, y, None, CFG)[0].l2 == pytest.approx(
            want, rel=1e-12
        )


class TestForward:
    def test_zero_params_exact_uniform(self):
        # C=4, N_R=8: every stage lands on exact binary fractions
        params = zero_params(CFG)
        trace = forward(params, np.zeros((8, 4)), CFG)
        np.testing.assert_array_equal(trace.saliency, 0.5)
        np.testing.assert_array_equal(trace.cls_softmax, 0.25)
        np.testing.assert_array_equal(trace.det_softmax, 0.125)
        np.testing.assert_array_equal(trace.scores, 0.03125)
        np.testing.assert_array_equal(trace.image_scores, 0.25)

    def test_single_proposal(self):
        params = init_params(CFG, rng_seed=1)
        trace = forward(params, np.random.default_rng(0).normal(size=(1, 4)), CFG)
        np.testing.assert_array_equal(trace.det_softmax, 1.0)
        np.testing.assert_allclose(trace.image_scores, trace.cls_softmax[0], rtol=1e-15)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        params = init_params(CFG, rng_seed=2)
        feats = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        t1 = forward(params, feats, CFG)
        t2 = forward(params, feats[perm], CFG)
        np.testing.assert_allclose(t2.scores, t1.scores[perm], atol=1e-12)
        np.testing.assert_allclose(t2.saliency, t1.saliency[perm], atol=1e-12)
        np.testing.assert_allclose(t2.image_scores, t1.image_scores, atol=1e-12)

    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 7))
            config = ModelConfig(
                feature_dim=d, num_classes=c, trunk_widths=(5,), saliency_hidden=3
            )
            params = init_params(config, rng_seed=int(rng.integers(2**31)))
            trace = forward(params, rng.normal(size=(n, d)), config)
            assert trace.scores.min() >= 0.0 and trace.scores.max() <= 1.0
            assert trace.image_scores.min() >= 0.0 and trace.image_scores.max() <= 1.0
            assert np.abs(trace.cls_softmax.sum(axis=1) - 1.0).max() <= 1e-6
            assert np.abs(trace.det_softmax.sum(axis=0) - 1.0).max() <= 1e-6

    def test_extreme_logits_stay_in_open_interval(self):
        params = zero_params(CFG)
        for bias in (500.0, -500.0):
            params.values["sal_out.b"][...] = bias
            trace = forward(params, np.zeros((3, 4)), CFG)
            assert 0.0 < trace.saliency.min() and trace.saliency.max() < 1.0

    def test_disabled_saliency_gives_unit_weights(self):
        config = ModelConfig(
            feature_dim=4, num_classes=4, trunk_widths=(8,), saliency_hidden=4,
            saliency_enabled=False,
        )
        trace = forward(init_params(config, 0), np.ones((3, 4)), config)
        np.testing.assert_array_equal(trace.saliency, 1.0)
        assert trace.sal_logit is None

    def test_input_validation(self):
        params = init_params(CFG, rng_seed=0)
        with pytest.raises(ValueError, match="features"):
            forward(params, np.zeros((3, 5)), CFG)
        with pytest.raises(ValueError, match="proposal"):
            forward(params, np.zeros((0, 4)), CFG)
        with pytest.raises(FloatingPointError, match="input features"):
            forward(params, np.full((2, 4), np.nan), CFG)
        # on 2 proposals, seed 2 and negative 3 name no proposal
        y = [1, 1, -1, -1]
        for assignment, index in (
            (SeedAssignment(seeds=((0, 2), (1, 0)), negatives=(1,)), 2),
            (SeedAssignment(seeds=((0, 0), (1, 1)), negatives=(3,)), 3),
        ):
            match = f"index {index} out of range for 2 proposals"
            with pytest.raises(ValueError, match=match):
                loss_and_grads(params, np.zeros((2, 4)), y, assignment, CFG)
            trace = forward(params, np.zeros((2, 4)), CFG)
            with pytest.raises(ValueError, match=match):
                step_losses(params, trace, y, assignment, CFG)


    def test_params_of_the_other_saliency_setting_are_rejected(self, tmp_path):
        # the forward pass and saving share one rule; saving writes nothing
        off = replace(CFG, saliency_enabled=False)
        x = np.zeros((3, 4))
        path = tmp_path / "m.ckpt"
        for params, config, fits in ((init_params(CFG, 0), off, True),
                                     (init_params(off, 0), CFG, False)):
            match = f"saliency mismatch: parameters fit saliency_enabled={fits}"
            with pytest.raises(ValueError, match=match):
                forward(params, x, config)
            with pytest.raises(ValueError, match=match):
                save_checkpoint(path, params, config)
        assert list(tmp_path.iterdir()) == []

    def test_params_of_other_trunk_widths_are_rejected(self, tmp_path):
        other = replace(CFG, trunk_widths=(8, 8))
        path = tmp_path / "m.ckpt"
        for params, config in ((init_params(CFG, 0), other), (init_params(other, 0), CFG)):
            with pytest.raises(ValueError, match="parameters do not fit the config"):
                forward(params, np.zeros((3, 4)), config)
            with pytest.raises(ValueError, match="parameters do not fit the config"):
                save_checkpoint(path, params, config)
        assert list(tmp_path.iterdir()) == []


class TestLossTerms:
    def test_seed_cls_hand_value(self):
        scores = np.full((2, 3), 0.5)
        loss, grad = seed_classification_loss(scores, [(1, 0)], epsilon=1e-8)
        assert abs(loss - math.log(2.0)) < 1e-12
        expected = np.zeros((2, 3))
        expected[0, 1] = -2.0
        np.testing.assert_array_equal(grad, expected)

    def test_seed_cls_sums_over_seeds(self):
        scores = np.array([[0.5, 0.25], [0.125, 0.5]])
        loss, grad = seed_classification_loss(scores, [(0, 0), (1, 1)], epsilon=1e-8)
        assert abs(loss - 2 * math.log(2.0)) < 1e-12
        assert grad[0, 0] == -2.0 and grad[1, 1] == -2.0

    def test_seed_cls_clamps_tiny_scores(self):
        scores = np.array([[1e-12, 0.9]])
        loss, grad = seed_classification_loss(scores, [(0, 0)], epsilon=1e-8)
        assert loss == -math.log(1e-8)
        np.testing.assert_array_equal(grad, 0.0)

    def test_seed_sal_hand_value(self):
        p = np.array([0.5, 0.5, 0.9])
        loss, grad = seed_saliency_loss(p, (0, 1), (1.0, 0.0))
        assert abs(loss - 0.5) < 1e-12
        np.testing.assert_allclose(grad, [-1.0, 1.0, 0.0], atol=1e-15)

    def test_seed_sal_accumulates_duplicates(self):
        p = np.array([0.3])
        loss, grad = seed_saliency_loss(p, (0, 0), (1.0, 0.0))
        assert loss == pytest.approx(0.7**2 + 0.3**2, rel=1e-15)
        assert grad[0] == pytest.approx(2 * (0.3 - 1.0) + 2 * 0.3, rel=1e-15)

    def test_image_cls_hand_value(self):
        tau = np.array([0.5, 0.5])
        loss, grad = image_classification_loss(tau, [1, -1], epsilon=1e-8)
        assert abs(loss - 2 * math.log(2.0)) < 1e-12
        np.testing.assert_allclose(grad, [-2.0, 2.0], atol=1e-15)

    def test_image_cls_perfect_prediction(self):
        loss, grad = image_classification_loss(
            np.array([1.0, 0.0]), [1, -1], epsilon=1e-8
        )
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [-1.0, 1.0])

    def test_image_cls_clamps(self):
        # a confident wrong answer hits the epsilon clamp: finite loss, zero grad
        loss, grad = image_classification_loss(np.array([1.0]), [-1], epsilon=1e-8)
        assert loss == -math.log(1e-8)
        assert grad.tobytes() == np.zeros(1).tobytes()  # +0.0, not -0.0

    @pytest.mark.parametrize("labels", [[1], [1, -1, 1], [[1, -1]]])
    def test_image_cls_rejects_labels_not_shaped_like_the_scores(self, labels):
        # a 1-entry vector would otherwise broadcast across every class
        with pytest.raises(ValueError, match="labels shape"):
            image_classification_loss(np.array([0.5, 0.5]), labels, epsilon=1e-8)

    def test_step_rejects_a_short_label_vector(self):
        params = init_params(CFG, rng_seed=0)
        features = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ValueError, match=r"labels shape \(1,\) != image scores shape \(4,\)"):
            loss_and_grads(params, features, [1], None, CFG)
        with pytest.raises(ValueError, match="labels shape"):
            step_losses(params, forward(params, features, CFG), [1], None, CFG)

    @pytest.mark.parametrize("bad", [2, 0, 0.5, np.nan])
    def test_entry_points_refuse_labels_other_than_plus_or_minus_one(self, bad):
        # LabelVector's rule and message; each would otherwise give a loss
        params = init_params(CFG, rng_seed=0)
        features = np.random.default_rng(0).normal(size=(3, 4))
        y = [1, bad, -1, -1]
        message = r"^labels: entries must be \+1 or -1$"
        with pytest.raises(ValueError, match=message):
            LabelVector(y=y)
        with pytest.raises(ValueError, match=message):
            loss_and_grads(params, features, y, None, CFG)
        with pytest.raises(ValueError, match=message):
            step_losses(params, forward(params, features, CFG), y, None, CFG)
        with pytest.raises(ValueError, match=message):
            image_classification_loss(np.full(4, 0.5), y, epsilon=1e-8)


class TestStepLosses:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(21)
        params = init_params(CFG, rng_seed=4)
        feats = rng.normal(size=(5, 4))
        trace = forward(params, feats, CFG)
        y = np.array([1, 1, -1, -1])
        assignment = SeedAssignment(seeds=((0, 0), (1, 2)), negatives=(1, 3))
        return params, trace, y, assignment

    def test_total_is_weighted_sum(self, setup):
        params, trace, y, assignment = setup
        b, _, _ = step_losses(params, trace, y, assignment, CFG)
        assert b.total == (
            b.image_cls
            + CFG.lambda_seed_cls * b.seed_cls
            + (CFG.lambda_seed_sal / 2.0) * b.seed_sal
            + (CFG.lambda_l2 / 2.0) * b.l2
        )
        assert b.seed_cls > 0 and b.seed_sal > 0 and b.l2 > 0

    def test_no_assignment_drops_seed_terms(self, setup):
        params, trace, y, _ = setup
        b, _, d_sal = step_losses(params, trace, y, None, CFG)
        assert b.seed_cls == 0.0 and b.seed_sal == 0.0
        np.testing.assert_array_equal(d_sal, 0.0)

    def test_zero_weights_drop_terms(self, setup):
        params, trace, y, assignment = setup
        config = ModelConfig(
            feature_dim=4, num_classes=4, trunk_widths=(8,), saliency_hidden=4,
            lambda_seed_cls=0.0, lambda_seed_sal=0.0,
        )
        b, _, d_sal = step_losses(params, trace, y, assignment, config)
        assert b.seed_cls == 0.0 and b.seed_sal == 0.0
        np.testing.assert_array_equal(d_sal, 0.0)

    def test_l2_excludes_disabled_branch(self):
        params = init_params(CFG, rng_seed=8)
        off = ModelConfig(
            feature_dim=4, num_classes=4, trunk_widths=(8,), saliency_hidden=4,
            saliency_enabled=False,
        )
        # the same seed gives the same tensors; only the L2 set differs
        params_off = init_params(off, rng_seed=8)
        np.testing.assert_array_equal(params_off.flat_values, params.flat_values)
        sal_sq = sum(
            float((params.values[n] ** 2).sum())
            for n in ("sal_hidden.w", "sal_out.w")
        )
        feats, y = np.random.default_rng(1).normal(size=(3, 4)), [1, -1, -1, 1]

        def l2_terms(p, config):
            trace = forward(p, feats, config)
            return (
                step_losses(p, trace, y, None, config)[0].l2,
                loss_and_grads(p, feats, y, None, config)[0].l2,
            )

        for on_l2, off_l2 in zip(l2_terms(params, CFG), l2_terms(params_off, off)):
            assert on_l2 - off_l2 == pytest.approx(sal_sq, rel=1e-12)

    def test_disabled_branch_gets_zero_grads(self):
        config = ModelConfig(
            feature_dim=4, num_classes=4, trunk_widths=(8,), saliency_hidden=4,
            saliency_enabled=False,
        )
        params = init_params(config, rng_seed=8)
        feats = np.random.default_rng(3).normal(size=(4, 4))
        assignment = SeedAssignment(seeds=((0, 1),), negatives=(2,))
        _, grad = loss_and_grads(params, feats, [1, -1, -1, -1], assignment, config)
        grads = params.layout.views(grad)
        for name in ("sal_hidden.w", "sal_hidden.b", "sal_out.w", "sal_out.b"):
            np.testing.assert_array_equal(grads[name], 0.0)


class TestGradientCheck:
    def test_small_sweep_passes(self):
        report = run_gradient_check(seed=123, instances=4)
        assert report.passed
        assert len(report.per_instance) == 4

    def test_seed_zero_passes(self):
        assert run_gradient_check(seed=0, instances=2).passed

    def test_detects_defective_gradient(self):
        # a 0.1% scale error on one tensor must land far above threshold
        from saldet import model as m

        orig = m.loss_and_grads

        def broken(params, features, y, assignment, config):
            breakdown, grad = orig(params, features, y, assignment, config)
            params.layout.views(grad)["cls.w"][...] *= 1.001
            return breakdown, grad

        m.loss_and_grads = broken
        try:
            report = run_gradient_check(seed=123, instances=2)
        finally:
            m.loss_and_grads = orig
        assert not report.passed
        assert report.max_rel_error > 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(CFG, rng_seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, CFG)
        loaded, config = load_checkpoint(path)
        assert config == CFG
        for name, arr in params.values.items():
            np.testing.assert_array_equal(
                loaded.values[name], arr.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(loaded.velocity[name], 0.0)

    def test_round_trip_with_disabled_saliency(self, tmp_path):
        config = ModelConfig(
            feature_dim=3, num_classes=2, trunk_widths=(4, 5), saliency_hidden=2,
            saliency_enabled=False,
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(config, 0), config)
        _, loaded_config = load_checkpoint(path)
        assert loaded_config.saliency_enabled is False
        assert loaded_config.trunk_widths == (4, 5)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_saliency_flag_other_than_0_or_1(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = bytearray(path.read_bytes())
        # the flag follows magic, version, tensor count and three dims
        struct.pack_into("<I", blob, 16 + 12, 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{path}: saliency flag 7"):
            load_checkpoint(path)

    # offsets of feature_dim, saliency_hidden, trunk depth and the first width
    @pytest.mark.parametrize("at, message", [
        (16, "feature_dim and num_classes must be >= 1"),
        (24, "saliency_hidden must be >= 1"),
        (32, "trunk widths must all be >= 1"),
        (36, "trunk widths must all be >= 1"),
    ], ids=["feature-dim", "saliency-hidden", "no-trunk", "trunk-width"])
    def test_invalid_architecture_names_the_file(self, tmp_path, at, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, at, 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    def test_every_truncation_is_a_value_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            msg = "truncated checkpoint" if cut >= 16 else "not a checkpoint"
            with pytest.raises(ValueError, match=msg):
                load_checkpoint(path)

    def test_forged_size_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = bytearray(path.read_bytes())
        huge = 2**31 - 1
        # feature_dim follows magic, version and tensor count; trunk0.w's
        # first dimension follows the widths and its own ndim
        struct.pack_into("<I", blob, 16, huge)
        struct.pack_into("<I", blob, 16 + 16 + 4 + 4 * len(CFG.trunk_widths) + 4, huge)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, tmp_path, value):
        # saving clips to the finite float32 range; only damage writes these
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        last = list(init_params(CFG, 0).values)[-1]
        with pytest.raises(ValueError, match=f"tensor {last} holds non-finite values"):
            load_checkpoint(path)

    # the u32s after the magic, written out by hand from the format
    @pytest.mark.parametrize("config, fields", [
        (ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(7,), saliency_enabled=False),
         (1, 10, 16, 4, 32, 0, 1, 7,
          2, 16, 7, 1, 7, 2, 7, 32, 1, 32, 1, 32, 1, 1, 2, 7, 4, 1, 4, 2, 7, 4, 1, 4)),
        (ModelConfig(feature_dim=5, num_classes=3, trunk_widths=(8, 6, 4), saliency_hidden=3),
         (1, 14, 5, 3, 3, 1, 3, 8, 6, 4,
          2, 5, 8, 1, 8, 2, 8, 6, 1, 6, 2, 6, 4, 1, 4,
          2, 4, 3, 1, 3, 1, 3, 1, 1, 2, 4, 3, 1, 3, 2, 4, 3, 1, 3)),
    ], ids=["saliency-off-one-layer", "three-layers"])
    def test_header_is_the_saved_prefix(self, tmp_path, config, fields):
        params = init_params(config, rng_seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config)
        blob = path.read_bytes()
        header = _checkpoint_header(config)
        assert header == b"SALDETC\x00" + struct.pack(f"<{len(fields)}I", *fields)
        assert blob[: len(header)] == header
        assert len(blob) == len(header) + 4 * params.flat_values.size
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        expected = params.flat_values.astype(np.float32).astype(np.float64)
        assert loaded.flat_values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit", [
        (12, 13),              # the tensor count
        (44, 8), (48, 4),      # trunk0.w's dims (4, 8) read as (8, 8), then (4, 4)
        (None, 5),             # det.b's one dim, the table's last u32
    ], ids=["tensor-count", "first-dim", "second-dim", "last-dim"])
    def test_shape_table_must_match_the_architecture(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = bytearray(path.read_bytes())
        at, value = edit
        struct.pack_into("<I", blob, len(_checkpoint_header(CFG)) - 4 if at is None else at, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{path}: shape table does not match the architecture"):
            load_checkpoint(path)

    def test_rejects_truncation_and_trailing(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(CFG, 0), CFG)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(path)
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# the step kernel against the per-layer reference, its errors and its memory

CFG2 = ModelConfig(feature_dim=4, num_classes=4, trunk_widths=(8, 6), saliency_hidden=4)


def random_params(config, seed):
    """Random weights and biases, so every ReLU mask has both signs."""
    params = init_params(config, rng_seed=seed)
    rng = np.random.default_rng(seed)
    for name, arr in params.values.items():
        if name.endswith(".b"):
            arr[...] = rng.uniform(-0.3, 0.3, arr.shape)
    return params


def assert_same_step(params, features, y, assignment, config):
    breakdown, grad = loss_and_grads(params, features, y, assignment, config)
    want_losses, want_grad = reference_step(params, features, y, assignment, config)
    got = (breakdown.image_cls, breakdown.seed_cls, breakdown.seed_sal, breakdown.l2,
           breakdown.total)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want_losses]
    assert grad.tobytes() == want_grad.tobytes()


class TestStepAgainstReference:
    Y = np.array([1, 1, -1, 1])

    @pytest.mark.parametrize("case", [
        "one_proposal", "shared_seed", "saliency_off", "no_assignment",
        "zero_lambdas", "clamped_seed_score", "baseline",
    ])
    def test_bit_for_bit(self, case):
        config, n = CFG2, 7
        assignment = SeedAssignment(seeds=((0, 1), (1, 4), (3, 2)), negatives=(0, 5, 6))
        if case == "one_proposal":
            n, assignment = 1, SeedAssignment(seeds=((0, 0), (1, 0), (3, 0)), negatives=())
        elif case == "shared_seed":
            assignment = SeedAssignment(seeds=((0, 2), (1, 2), (3, 5)), negatives=(0, 6))
        elif case == "saliency_off":
            config = ModelConfig(feature_dim=4, num_classes=4, trunk_widths=(8, 6),
                                 saliency_hidden=4, saliency_enabled=False)
        elif case == "no_assignment":
            assignment = None
        elif case == "baseline":  # the ablation's label-only variant: P = 1, no seeds
            config = replace(CFG2, saliency_enabled=False, lambda_seed_cls=0.0)
            assignment = None
        elif case == "zero_lambdas":
            config = ModelConfig(feature_dim=4, num_classes=4, trunk_widths=(8, 6),
                                 saliency_hidden=4, lambda_seed_cls=0.0,
                                 lambda_seed_sal=0.0, lambda_l2=0.0)
        rng = np.random.default_rng(5)
        for seed in range(4):
            params = random_params(config, seed)
            if case == "clamped_seed_score":
                params.values["cls.b"][0] = -60.0  # class 0 scores fall below epsilon
            assert_same_step(params, rng.normal(size=(n, 4)), self.Y, assignment, config)

    def test_proposal_counts_in_a_row(self):
        # one kernel serves every count, growing and reusing its workspace
        params = random_params(CFG2, 11)
        rng = np.random.default_rng(2)
        for n in (3, 9, 1, 17, 9, 3, 40, 2, 17, 5, 6, 7, 8, 11, 12, 40, 1):
            negatives = tuple(range(1, n - 1))[:2]
            assignment = SeedAssignment(seeds=((0, 0), (1, n - 1)), negatives=negatives)
            features = rng.normal(size=(n, 4))
            assert_same_step(params, features, self.Y, assignment, CFG2)
            trace = forward(params, features, CFG2)
            for name, want in reference_forward(params, features, CFG2).items():
                got = getattr(trace, name)
                if isinstance(want, list):
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                else:
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", ["full", "no_sal", "baseline"])
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_step_losses_and_backward_match_loss_and_grads(self, n, variant):
        from saldet import model as m

        config, assignment = CFG2, SeedAssignment(seeds=((0, 0), (3, 0)), negatives=())
        if n > 1:
            assignment = SeedAssignment(seeds=((0, 1), (3, 2)), negatives=(0, n - 1))
        if variant != "full":
            config = replace(CFG2, saliency_enabled=False)
        if variant == "baseline":
            config, assignment = replace(config, lambda_seed_cls=0.0), None
        params = random_params(config, 3)
        rng = np.random.default_rng(4)
        features = rng.normal(size=(n, 4))
        # a step on other features of the same count fills the kernel's buffer
        loss_and_grads(params, rng.normal(size=(n, 4)), self.Y, assignment, config)
        kernel_buffer = m._step_kernel(params, config).buffer.tobytes()
        trace = forward(params, features, config)
        breakdown, d_scores, d_sal = step_losses(params, trace, self.Y, assignment, config)
        grad = backward(params, trace, d_scores, d_sal, config)
        # the public pass runs in the caller's trace alone
        assert m._step_kernel(params, config).buffer.tobytes() == kernel_buffer
        fused, fused_grad = loss_and_grads(params, features, self.Y, assignment, config)
        assert breakdown == fused
        assert grad.tobytes() == fused_grad.tobytes()


class TestNonFiniteLayers:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("layer", LAYERS)
    def test_first_bad_layer_is_named(self, layer, bad):
        params = random_params(CFG2, 1)
        features = np.random.default_rng(0).normal(size=(5, 4))
        if layer == "input features":
            features[2, 1] = bad
        else:
            params.values[LAYER_BIAS[layer]][0] = bad
        message = f"non-finite activation in {layer}$"
        with pytest.raises(FloatingPointError, match=message):
            reference_forward(params, features, CFG2)
        with pytest.raises(FloatingPointError, match=message):
            forward(params, features, CFG2)
        with pytest.raises(FloatingPointError, match=message):
            loss_and_grads(params, features, [1, -1, -1, 1], None, CFG2)


class TestKeptConstants:
    """A pass's float operands are read-only 0-d float64 arrays with a Python float's bits."""

    @staticmethod
    def kept():
        from saldet import model as m

        kernel = m._StepKernel(random_params(CFG2, 0), CFG2)
        low, high = kernel.logit_cap
        return [
            (m._ZERO, 0.0), (m._ONE, 1.0), (m._MINUS_ONE, -1.0), (m._HALF, 0.5), (m._TWO, 2.0),
            (m._EPSILON_KEPT, 1e-8), (low, -36.0), (high, 36.0),
            (kernel.lambda_l2, CFG2.lambda_l2),
            (kernel.half_lambda_sal, CFG2.lambda_seed_sal / 2.0),
        ]

    def test_each_is_a_read_only_0d_float64(self):
        for const, value in self.kept():
            assert const.shape == () and const.dtype == np.float64
            assert float(const).hex() == value.hex()
            with pytest.raises(ValueError, match="read-only"):
                const[...] = 7.0
            with pytest.raises(ValueError, match="read-only"):
                np.add(const, 1.0, out=const)
            assert float(const).hex() == value.hex()

    # signed zeros, the logit cap and its neighbours, the smallest and largest
    # magnitudes, and the non-finite values
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-8, 0.5, -0.5, 1.0, -1.0, 2.0, 36.0, -36.0,
             math.nextafter(36.0, 0.0), math.nextafter(36.0, 99.0),
             math.nextafter(-36.0, -99.0), 1e308, -1e308, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("shape", [(1,), (3,), (17,), (64,), (7, 16)])
    def test_each_op_gives_the_python_floats_bits(self, shape):
        # lengths below, at and past the vector width, with and without tails
        from saldet import model as m

        kernel = m._StepKernel(random_params(CFG2, 0), CFG2)
        low, high = kernel.logit_cap
        rng = np.random.default_rng(math.prod(shape))
        x = np.resize(rng.permutation(self.EDGES), shape)
        # the ufunc, kept operand and output dtype of each use in a pass
        uses = [
            (np.maximum, m._ZERO, None), (np.greater, m._ZERO, np.float64),
            (np.maximum, low, None), (np.minimum, high, None), (np.minimum, m._ZERO, None),
            (np.copysign, m._MINUS_ONE, None), (np.add, m._ONE, None),
            (np.subtract, m._ONE, None), (np.minimum, m._ONE, None),
            (np.subtract, m._HALF, None), (np.add, m._HALF, None), (np.multiply, m._TWO, None),
            (np.maximum, m._EPSILON_KEPT, None), (np.greater, m._EPSILON_KEPT, bool),
            (np.multiply, kernel.lambda_l2, None), (np.multiply, kernel.half_lambda_sal, None),
        ]
        with np.errstate(all="ignore"):
            for ufunc, const, dtype in uses:
                for operands in ((x, const), (const, x)):  # ``1 - P`` takes the constant first
                    as_float = [float(a) if a is const else a for a in operands]
                    got, want = np.empty(shape, dtype), np.empty(shape, dtype)
                    ufunc(*operands, out=got)
                    ufunc(*as_float, out=want)
                    assert got.tobytes() == want.tobytes(), (ufunc, float(const))
                    if dtype is None:  # and in place, as ``den += _ONE`` runs
                        got, want = x.copy(), x.copy()
                        ufunc(*[got if a is x else a for a in operands], out=got)
                        ufunc(*[want if a is x else a for a in as_float], out=want)
                        assert got.tobytes() == want.tobytes(), (ufunc, float(const))

    @pytest.mark.parametrize("sal_bias", [800.0, -800.0, 0.0])
    def test_reference_step_on_signed_zeros_and_capped_logits(self, sal_bias):
        # BLAS gives +0.0 for a zero row, so -0.0 reaches the pass as input
        # features; the ops themselves are checked on both zeros above
        params = random_params(CFG2, 3)
        params.values["trunk0.b"][:3] = (0.0, -0.0, 0.0)
        params.values["sal_out.w"][...] *= 4000.0  # saliency logits far past the cap
        params.values["sal_out.b"][0] = sal_bias
        features = np.random.default_rng(4).normal(size=(7, 4))
        features[1] = 0.0
        features[2] = -0.0
        features[3, ::2] = -0.0
        t = reference_forward(params, features, CFG2)
        assert np.signbit(features[features == 0.0]).any()
        pre = t["trunk_pre"][0][1:3, :3]  # the zero rows' pre-activations are their biases
        assert (pre == 0.0).all() and not np.signbit(pre).any()
        logit = t["sal_logit"]
        assert (np.abs(logit) == 36.0).any()
        if sal_bias == 0.0:  # past the cap on both sides, and inside it
            assert (logit == 36.0).any() and (logit == -36.0).any()
            assert (np.abs(logit) < 36.0).any()
        assignment = SeedAssignment(seeds=((0, 1), (1, 4), (3, 2)), negatives=(0, 5, 6))
        for a in (assignment, None):
            assert_same_step(params, features, TestStepAgainstReference.Y, a, CFG2)
        no_sal = replace(CFG2, saliency_enabled=False)
        off = init_params(no_sal, rng_seed=0)
        off.flat_values[...] = params.flat_values  # the same tensors, the other L2 prefix
        assert_same_step(off, features, TestStepAgainstReference.Y, assignment, no_sal)


class TestTraceChecks:
    def test_saliency_at_one_or_zero_is_rejected(self, monkeypatch):
        from saldet import model as m

        monkeypatch.setattr(m, "_SAL_LOGIT_CAP", 1000.0)
        params = zero_params(CFG)
        for bias in (800.0, -800.0):  # P rounds to exactly 1, then to 0
            params.values["sal_out.b"][...] = bias
            with pytest.raises(FloatingPointError, match="open interval"):
                forward(params, np.zeros((3, 4)), CFG)

    @pytest.mark.parametrize("pokes, message", [
        ([("saliency", 0, 1.0)], "saliency prediction left the open interval"),
        ([("saliency", 1, 0.0)], "saliency prediction left the open interval"),
        ([("scores", (1, 2), 1.5)], "score matrix left"),
        ([("scores", (0, 0), -0.25)], "score matrix left"),
        ([("image_scores", 3, 1.0 + 1e-9)], "image scores left"),
        ([("image_scores", 0, -1e-9)], "image scores left"),
        ([("cls_softmax", (2, 1), 0.5)], "classification softmax rows"),
        ([("det_softmax", (0, 3), 0.5)], "detection softmax columns"),
        # two failures: the earlier check in the order names the error
        ([("cls_softmax", (2, 1), 0.5), ("scores", (1, 2), 1.5)], "score matrix left"),
        # NaN makes every comparison False, and fails each check all the same
        ([("saliency", 2, np.nan)], "saliency prediction left the open interval"),
        ([("scores", (3, 1), np.nan)], "score matrix left"),
        ([("image_scores", 2, np.nan)], "image scores left"),
        ([("cls_softmax", (4, 0), np.nan)], "classification softmax rows"),
        ([("det_softmax", (1, 2), np.nan)], "detection softmax columns"),
        # the score matrix at its bound 0 is in range; the image scores are not
        ([("scores", (0, 0), 0.0), ("image_scores", 1, 1.0 + 1e-9)], "image scores left"),
    ])
    def test_each_range_check_raises_its_message(self, pokes, message):
        from saldet import model as m

        params = random_params(CFG2, 6)
        features = np.random.default_rng(1).normal(size=(5, 4))
        loss_and_grads(params, features, [1, 1, -1, -1], None, CFG2)
        ws = m._step_kernel(params, CFG2).workspace(5)
        ws.check_ranges()  # an untouched trace passes
        for array, index, value in pokes:
            getattr(ws, array)[index] = value
        with pytest.raises(FloatingPointError, match=message):
            ws.check_ranges()


class TestStreamPairs:
    """The (2, ...) views that run both streams' ops at once view each stream's own memory."""

    @pytest.mark.parametrize("config", [
        ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(64, 64), saliency_hidden=32),
        ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(64, 64), saliency_hidden=32,
                    saliency_enabled=False),
        ModelConfig(feature_dim=16, num_classes=3, trunk_widths=(128,), saliency_hidden=8),
        ModelConfig(feature_dim=5, num_classes=6, trunk_widths=(9, 7, 5), saliency_hidden=4),
    ], ids=["standard", "saliency_off", "1layer", "3layers"])
    def test_pairs_view_each_stream(self, config):
        from saldet import model as m

        params = random_params(config, 0)
        features = np.random.default_rng(1).normal(size=(5, config.feature_dim))
        y = np.resize([1, -1], config.num_classes)
        loss_and_grads(params, features, y, None, config)
        kernel = m._step_kernel(params, config)
        grads = params.layout.views(kernel.grad)
        ws = kernel.workspace(5)
        pairs = [
            (kernel.head_bias[:, 0], params.values["cls.b"], params.values["det.b"]),
            (kernel.head_bias_grad, grads["cls.b"], grads["det.b"]),
            (ws.streams, ws.s_cls, ws.s_det),
            (ws.softmax, ws.cls_softmax, ws.det_softmax),
            (ws.d_streams, ws.d_cls, ws.d_det),
        ]
        if config.saliency_enabled:
            pairs.append((ws.sigmoid, ws.denominator, ws.saliency))
        for pair, first, second in pairs:
            assert np.shares_memory(pair[0], first) and np.shares_memory(pair[1], second)
            first[...], second[...] = 1.0, 2.0
            assert (pair[0] == 1.0).all() and (pair[1] == 2.0).all()


class TestForwardTrace:
    NAMES = (
        "features", "trunk_pre", "trunk_act", "sal_pre", "sal_hidden", "sal_logit",
        "saliency", "weighted", "cls_softmax", "det_softmax", "scores", "image_scores",
        "saliency_enabled",
    )

    @pytest.mark.parametrize("enabled", [True, False])
    def test_forward_and_the_step_workspace_are_one_class(self, enabled):
        from saldet import ForwardTrace
        from saldet import model as m

        config = replace(CFG2, saliency_enabled=enabled)
        params = random_params(config, 4)
        features = np.random.default_rng(2).normal(size=(5, 4))
        trace = forward(params, features, config)
        loss_and_grads(params, features, [1, 1, -1, -1], None, config)
        ws = m._step_kernel(params, config).workspace(5)
        assert type(trace) is type(ws) is ForwardTrace
        for t in (trace, ws):
            assert t.saliency_enabled is enabled
            for name in self.NAMES:
                value = getattr(t, name)  # every name resolves
                if name.startswith("sal_"):
                    assert (value is None) is not enabled
        # the step ran the same forward pass in the kernel's buffer
        for name in ("saliency", "weighted", "scores", "image_scores"):
            np.testing.assert_array_equal(getattr(ws, name), getattr(trace, name))


    def test_a_run_of_images_gives_each_image_its_own_bits(self):
        params = random_params(CFG2, 5)
        rng = np.random.default_rng(6)
        features = [rng.normal(size=(n, 4)) for n in (1, 7, 2, 30, 1)]
        trace = forward_images(params, features, CFG2)
        assert trace.image_scores.shape == (5, 4)
        lo = 0
        for x, tau in zip(features, trace.image_scores):
            alone = forward(params, x, CFG2)
            for name in ("saliency", "weighted", "cls_softmax", "det_softmax", "scores"):
                rows = getattr(trace, name)[lo : lo + len(x)]
                assert rows.tobytes() == getattr(alone, name).tobytes()
            assert tau.tobytes() == alone.image_scores.tobytes()
            lo += len(x)
        with pytest.raises(ValueError, match="at least one image"):
            forward_images(params, [], CFG2)
        with pytest.raises(ValueError, match=r"features must be \(N_R, 4\), got \(3, 5\)"):
            forward_images(params, [features[0], np.zeros((3, 5))], CFG2)


class TestStackedRuns:
    """Images of equal proposal count share one stacked product per run."""

    COUNTS = [9, 9, 6, 1, 1, 6, 9, 9, 9]  # runs broken by other counts; 1-row images stack

    @pytest.mark.parametrize("counts", [COUNTS, [600] * 8], ids=["interleaved", "8x600"])
    @pytest.mark.parametrize("widths", [(128,), (128, 128, 64)], ids=["1layer", "3layers"])
    @pytest.mark.parametrize("saliency", [True, False])
    def test_stacked_runs_keep_every_bit(self, counts, widths, saliency):
        config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=widths,
                             saliency_hidden=32, saliency_enabled=saliency)
        params = random_params(config, 11)
        rng = np.random.default_rng(12)
        features = [rng.normal(size=(n, 16)) for n in counts]
        trace = forward_images(params, features, config)
        bounds = np.cumsum([0, *counts])
        for i, x in enumerate(features):
            alone, rows = forward(params, x, config), slice(bounds[i], bounds[i + 1])
            assert np.array_equal(trace.scores[rows], alone.scores)
            assert np.array_equal(trace.saliency[rows], alone.saliency)
            assert np.array_equal(trace.image_scores[i], alone.image_scores)

    def test_runs_of_equal_counts_are_stacked(self):
        params = random_params(CFG2, 13)
        rng = np.random.default_rng(14)
        trace = forward_images(params, [rng.normal(size=(n, 4)) for n in self.COUNTS], CFG2)
        # one product per run: 9 9 | 6 | 1 1 | 6 | 9 9 9
        assert [x.shape for _, x, _ in trace.trunk_dots[0]] == [
            (2, 9, 4), (6, 4), (2, 1, 4), (6, 4), (3, 9, 4)
        ]
        # ndarray.dot for one image's rows, np.matmul for a stack
        assert [product for product, _, _ in trace.trunk_dots[0]] == [
            np.matmul, np.ndarray.dot, np.matmul, np.ndarray.dot, np.matmul
        ]
        assert [out.shape for _, out in trace.tau_sum] == [(2, 4), (4,), (2, 4), (4,), (3, 4)]
        # a one-image trace, as a training step's workspace, has 2-D views only
        one = forward(params, rng.normal(size=(9, 4)), CFG2)
        runs = one.trunk_dots[0] + one.head_dots[0]
        assert [(product, x.ndim) for product, x, _ in runs] == [
            (np.ndarray.dot, 2), (np.ndarray.dot, 2)
        ]


class TestOneImageTrace:
    def test_only_a_one_image_trace_holds_the_step_scratch(self):
        params = random_params(CFG2, 5)
        rng = np.random.default_rng(9)
        one = forward(params, rng.normal(size=(3, 4)), CFG2)
        assert one.d_scores.shape == (3, 4) and one.d_sal.shape == (3,)
        for counts in ([3, 2], [4, 4, 1]):
            trace = forward_images(params, [rng.normal(size=(n, 4)) for n in counts], CFG2)
            assert not hasattr(trace, "d_scores") and not hasattr(trace, "d_sal")

    def test_backward_refuses_a_saliency_gradient_that_does_not_fit(self):
        # with the branch off too, where the gradient w.r.t. P is not read
        for config in (CFG2, replace(CFG2, saliency_enabled=False)):
            params = random_params(config, 5)
            trace = forward(params, np.random.default_rng(9).normal(size=(3, 4)), config)
            with pytest.raises(ValueError, match="broadcast"):
                backward(params, trace, np.zeros((3, 4)), np.zeros(4), config)
            with pytest.raises(TypeError):
                backward(params, trace, np.zeros((3, 4)), None, config)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (12,)])
    def test_backward_refuses_a_score_gradient_that_does_not_fit(self, shape):
        params = random_params(CFG2, 5)
        trace = forward(params, np.random.default_rng(9).normal(size=(3, 4)), CFG2)
        with pytest.raises(ValueError, match="^d_scores shape mismatch$"):
            backward(params, trace, np.zeros(shape), np.zeros(3), CFG2)

    def test_step_losses_and_backward_refuse_a_run_of_images(self):
        # the detection softmax's backward would mix the images' rows
        params = random_params(CFG2, 5)
        rng = np.random.default_rng(8)
        features = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
        y = [1, -1, 1, -1]
        trace = forward_images(params, features, CFG2)
        message = "^need one image's trace, got a trace of 2 images$"
        with pytest.raises(ValueError, match=message):
            step_losses(params, trace, y, None, CFG2)
        with pytest.raises(ValueError, match=message):
            backward(params, trace, np.zeros(trace.scores.shape),
                     np.zeros(trace.saliency.shape), CFG2)
        # a run of one image is that image's trace
        one, alone = forward_images(params, features[:1], CFG2), forward(params, features[0], CFG2)
        got, want = step_losses(params, one, y, None, CFG2), step_losses(params, alone, y, None, CFG2)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.tobytes() == b.tobytes()
        grads = [backward(params, t, *step_losses(params, t, y, None, CFG2)[1:], CFG2)
                 for t in (one, alone)]
        assert grads[0].tobytes() == grads[1].tobytes()


class TestStepMemory:
    @pytest.mark.parametrize("run", [
        lambda params, x: forward(params, x, CFG2),
        lambda params, x: forward_images(params, [x, x[:2], x], CFG2),
    ], ids=["forward", "forward_images"])
    def test_earlier_results_survive_later_calls(self, run):
        def trace_bytes(t):
            arrays = (*t.trunk_pre, *t.trunk_act, t.sal_pre, t.sal_hidden, t.sal_logit,
                      t.saliency, t.weighted, t.cls_softmax, t.det_softmax, t.scores,
                      t.image_scores)
            return [a.tobytes() for a in arrays]

        params = random_params(CFG2, 2)
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 4))
        y = [1, -1, 1, -1]
        trace = run(params, features)
        _, grad = loss_and_grads(params, features, y, None, CFG2)
        trace_before, grad_before = trace_bytes(trace), grad.tobytes()
        for n in (6, 9, 1, 30, 6):
            run(params, rng.normal(size=(n, 4)))
            loss_and_grads(params, rng.normal(size=(n, 4)), y, None, CFG2)
        assert trace_bytes(trace) == trace_before
        assert grad.tobytes() == grad_before

    def test_workspace_is_one_buffer_sized_to_the_largest_count(self):
        from saldet import model as m

        rng = np.random.default_rng(0)
        y = [1, -1, 1, -1]
        many, largest = random_params(CFG2, 0), random_params(CFG2, 0)
        # growing and shrinking, then every count again at the full size
        for n in [*rng.permutation(np.arange(1, 201)), *range(1, 201)]:
            loss_and_grads(many, rng.normal(size=(n, 4)), y, None, CFG2)
        loss_and_grads(largest, rng.normal(size=(200, 4)), y, None, CFG2)
        kernel = m._step_kernel(many, CFG2)
        assert kernel.buffer.nbytes <= m._step_kernel(largest, CFG2).buffer.nbytes
        # the kept views are few, and all of them view that one buffer
        assert 0 < len(kernel._workspaces) <= m._KEPT_COUNTS
        for ws in kernel._workspaces.values():
            assert np.shares_memory(ws.pre, kernel.buffer)
            assert np.shares_memory(ws.d_h, kernel.buffer)
