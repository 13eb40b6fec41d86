"""Optimizer mechanics, the training loop, and its failure modes."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import LAYER_BIAS, LAYERS
from oracles import reference_step
from saldet import trainer
from saldet.dataio import SynthConfig, generate_synthetic
from saldet.evaluate import evaluate
from saldet.model import (
    ModelConfig,
    ModelParams,
    ParamLayout,
    forward,
    init_params,
    load_checkpoint,
)
from saldet.seeds import make_assignment
from saldet.trainer import (
    TrainConfig,
    TrainingDivergedError,
    precompute_assignments,
    sgd_step,
    train,
)

MODEL = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(16,), saliency_hidden=8)
MODEL2 = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(16, 8), saliency_hidden=8)


def small_dataset(images=6, seed=2):
    records, _ = generate_synthetic(SynthConfig(images=images, seed=seed))
    return records


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"lr_phase1": -1e-3},
            {"lr_phase2": -1e-3},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"phase_boundary": -1},
            {"feature_jitter": -0.5},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"shuffle_seed": -1},
            {"init_seed": -1},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_schedule(self):
        cfg = TrainConfig(epochs=5, lr_phase1=0.1, lr_phase2=0.01, phase_boundary=3)
        assert [cfg.learning_rate(e) for e in range(1, 6)] == [
            0.1, 0.1, 0.1, 0.01, 0.01,
        ]
        always2 = TrainConfig(lr_phase1=0.1, lr_phase2=0.01, phase_boundary=0)
        assert always2.learning_rate(1) == 0.01

    def test_effective_config_applies_ablations(self):
        base = replace(MODEL, lambda_seed_cls=0.3, lambda_seed_sal=0.7, lambda_l2=0.01)
        assert TrainConfig().effective_model_config(base) == base

        no_seed = TrainConfig(disable_seed_losses=True).effective_model_config(base)
        assert no_seed == replace(base, lambda_seed_cls=0.0)

        no_sal = TrainConfig(disable_saliency_subnet=True).effective_model_config(base)
        assert no_sal == replace(base, saliency_enabled=False)

    def test_has_no_loss_weights(self):
        # the weights have one home, ModelConfig; train() reads them there
        names = {f.name for f in fields(TrainConfig)}
        assert not names & {"lambda_seed_cls", "lambda_seed_sal", "lambda_l2"}


class TestSgdStep:
    def _single(self, w):
        w = np.asarray(w, dtype=np.float64)
        params = ModelParams(ParamLayout([("w", w.shape)]))
        params.values["w"][...] = w
        return params

    def test_matches_hand_recurrence(self):
        params = self._single([1.0, -2.0])
        lr, m = 0.1, 0.9
        w, v = np.array([1.0, -2.0]), np.zeros(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.normal(size=2)
            sgd_step(params, g, lr, m)
            v = m * v + g
            w = w - lr * v
            np.testing.assert_array_equal(params.values["w"], w)
            np.testing.assert_array_equal(params.velocity["w"], v)

    def test_zero_momentum_is_plain_gd(self):
        params = self._single([3.0])
        sgd_step(params, np.array([2.0]), lr=0.5, momentum=0.0)
        np.testing.assert_array_equal(params.values["w"], [2.0])

    def test_converges_on_quadratic(self):
        # f(w) = ||w||^2 / 2, grad = w
        params = self._single([1.0])
        for _ in range(200):
            sgd_step(params, params.values["w"].copy(), lr=0.1, momentum=0.9)
        assert abs(params.values["w"][0]) < 1e-3

    def test_rejects_bad_gradients(self):
        params = self._single([1.0, 2.0])
        with pytest.raises(FloatingPointError, match="non-finite"):
            sgd_step(params, np.array([np.nan, 0.0]), 0.1, 0.9)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, np.zeros(3), 0.1, 0.9)

    def test_nan_in_last_gradient_changes_nothing(self):
        params = init_params(MODEL, rng_seed=0)
        for v in params.velocity.values():
            v[...] = 0.5
        before = params.copy()
        grad = np.ones_like(params.flat_values)
        grads = params.layout.views(grad)
        last = list(grads)[-1]
        grads[last][0] = np.nan
        with pytest.raises(FloatingPointError, match=last):
            sgd_step(params, grad, 0.1, 0.9)
        for name in before.values:
            np.testing.assert_array_equal(params.values[name], before.values[name])
            np.testing.assert_array_equal(params.velocity[name], before.velocity[name])


    def test_flat_step_matches_per_tensor_reference(self):
        params = init_params(MODEL, rng_seed=0)
        rng = np.random.default_rng(1)
        params.flat_velocity[...] = rng.normal(size=params.flat_velocity.size)
        ref_w = {k: v.copy() for k, v in params.values.items()}
        ref_v = {k: v.copy() for k, v in params.velocity.items()}
        for _ in range(5):
            grad = rng.normal(size=params.flat_values.size)
            sgd_step(params, grad, 0.05, 0.9)
            for name, g in params.layout.views(grad).items():
                ref_v[name] *= 0.9
                ref_v[name] += g
                ref_w[name] -= 0.05 * ref_v[name]
        for name in ref_w:
            assert params.values[name].tobytes() == ref_w[name].tobytes()
            assert params.velocity[name].tobytes() == ref_v[name].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_names_its_tensor(self, bad):
        params = init_params(MODEL, rng_seed=0)
        params.flat_velocity[...] = 0.5
        before_w = params.flat_values.tobytes()
        before_v = params.flat_velocity.tobytes()
        for name in params.values:
            grad = np.ones_like(params.flat_values)
            params.layout.views(grad)[name].flat[-1] = bad
            with pytest.raises(FloatingPointError, match=f"for {re.escape(name)}$"):
                sgd_step(params, grad, 0.1, 0.9)
            assert params.flat_values.tobytes() == before_w
            assert params.flat_velocity.tobytes() == before_v


class TestTrain:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train([], MODEL, TrainConfig(epochs=1))

    def test_rejects_feature_dim_mismatch(self):
        records = small_dataset()
        narrow = ModelConfig(feature_dim=8, num_classes=4, trunk_widths=(8,))
        with pytest.raises(ValueError, match=records[0].id):
            train(records, narrow, TrainConfig(epochs=1))

    def test_rejects_label_count_mismatch_before_any_step(self, monkeypatch):
        records, _ = generate_synthetic(
            SynthConfig(images=3, classes=1, objects_per_image=(1, 1), seed=2)
        )

        def refuse(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(trainer, "loss_and_grads", refuse)
        message = f"^record {records[0].id}: 1 classes, model has 4$"
        with pytest.raises(ValueError, match=message):
            train(records, MODEL, TrainConfig(epochs=1))

    def test_rejects_repeated_record_id_before_any_step(self, monkeypatch):
        # seed assignments are keyed by id, so a repeat would take a later record's
        records, _ = generate_synthetic(SynthConfig(images=4, seed=2))
        records[3] = replace(records[3], id=records[1].id)

        def refuse(*args, **kwargs):
            raise AssertionError("seeds were selected or a step was taken")

        monkeypatch.setattr(trainer, "precompute_assignments", refuse)
        monkeypatch.setattr(trainer, "loss_and_grads", refuse)
        with pytest.raises(ValueError, match=f"^record id '{records[1].id}' is repeated$"):
            train(records, MODEL, TrainConfig(epochs=1))

    def test_zero_lr_is_identity(self):
        records = small_dataset()
        cfg = TrainConfig(epochs=1, lr_phase1=0.0, lr_phase2=0.0, init_seed=9)
        params, _ = train(records, MODEL, cfg)
        fresh = init_params(cfg.effective_model_config(MODEL), rng_seed=9)
        for name in fresh.values:
            np.testing.assert_array_equal(params.values[name], fresh.values[name])

    @pytest.mark.parametrize("weight", ["lambda_seed_cls", "lambda_seed_sal", "lambda_l2"])
    def test_honours_model_loss_weights(self, weight):
        records = small_dataset()
        cfg = TrainConfig(epochs=1, lr_phase1=1e-2)
        default, _ = train(records, MODEL, cfg)
        params, _ = train(records, replace(MODEL, **{weight: 0.5}), cfg)
        assert params.flat_values.tobytes() != default.flat_values.tobytes()

    def test_disabled_saliency_model_needs_its_effective_config(self):
        records = small_dataset()
        cfg = TrainConfig(epochs=1, lr_phase1=1e-2, disable_saliency_subnet=True)
        params, _ = train(records, MODEL, cfg)
        with pytest.raises(ValueError, match="saliency mismatch"):
            evaluate(params, records, MODEL)
        report = evaluate(params, records, cfg.effective_model_config(MODEL))
        assert report.num_images == len(records)

    def test_bitwise_deterministic(self):
        records = small_dataset()
        cfg = TrainConfig(epochs=2, lr_phase1=1e-3, lr_phase2=1e-4, phase_boundary=1)
        a, log_a = train(records, MODEL, cfg)
        b, log_b = train(records, MODEL, cfg)
        for name in a.values:
            assert a.values[name].tobytes() == b.values[name].tobytes()
        assert [e.mean_loss.total for e in log_a.epochs] == [
            e.mean_loss.total for e in log_b.epochs
        ]

    def test_shuffle_seed_changes_trajectory(self):
        records = small_dataset()
        base = TrainConfig(epochs=2, lr_phase1=1e-3, lr_phase2=1e-3)
        a, _ = train(records, MODEL, base)
        b, _ = train(
            records, MODEL,
            TrainConfig(epochs=2, lr_phase1=1e-3, lr_phase2=1e-3, shuffle_seed=1),
        )
        assert any(
            not np.array_equal(a.values[n], b.values[n]) for n in a.values
        )

    def test_feature_jitter_changes_trajectory_deterministically(self):
        records = small_dataset()
        kw = dict(epochs=1, lr_phase1=1e-3, lr_phase2=1e-3)
        clean, _ = train(records, MODEL, TrainConfig(**kw))
        j1, _ = train(records, MODEL, TrainConfig(feature_jitter=0.05, **kw))
        j2, _ = train(records, MODEL, TrainConfig(feature_jitter=0.05, **kw))
        assert any(
            not np.array_equal(clean.values[n], j1.values[n]) for n in clean.values
        )
        for name in j1.values:
            assert j1.values[name].tobytes() == j2.values[name].tobytes()

    def test_loss_decreases_on_easy_data(self):
        records = small_dataset(images=20, seed=5)
        cfg = TrainConfig(
            epochs=8, lr_phase1=5e-3, lr_phase2=5e-4, phase_boundary=6
        )
        _, train_log = train(records, MODEL, cfg)
        first, last = train_log.epochs[0], train_log.epochs[-1]
        assert last.mean_loss.image_cls < first.mean_loss.image_cls
        assert last.mean_loss.seed_sal < first.mean_loss.seed_sal

    def test_writes_checkpoint(self, tmp_path):
        records = small_dataset()
        path = tmp_path / "final.ckpt"
        cfg = TrainConfig(epochs=1, lr_phase1=1e-3, lr_phase2=1e-3,
                          disable_saliency_subnet=True)
        params, train_log = train(records, MODEL, cfg, checkpoint_path=path)
        assert train_log.checkpoint_path == str(path)
        loaded, config = load_checkpoint(path)
        assert not config.saliency_enabled
        for name, arr in params.values.items():
            np.testing.assert_array_equal(
                loaded.values[name], arr.astype(np.float32).astype(np.float64)
            )

    def test_returned_params_keep_no_training_workspace(self):
        records = small_dataset()
        cfg = TrainConfig(epochs=1)
        params, _ = train(records, MODEL, cfg)
        assert params._kernel is None
        # evaluation binds the parameter views again, but no workspace
        forward(params, records[0].features, cfg.effective_model_config(MODEL))
        assert params._kernel.buffer.size == 0

    def test_divergence_keeps_last_good_state(self, tmp_path):
        records = small_dataset()
        path = tmp_path / "rescue.ckpt"
        cfg = TrainConfig(epochs=50, lr_phase1=1e12, lr_phase2=1e12, momentum=0.9)
        with pytest.raises(TrainingDivergedError) as info:
            train(records, MODEL, cfg, checkpoint_path=path)
        err = info.value
        assert isinstance(err.last_good_params, ModelParams)
        assert path.is_file()
        loaded, _ = load_checkpoint(path)
        f4_max = np.finfo(np.float32).max
        for name, arr in err.last_good_params.values.items():
            assert np.all(np.isfinite(loaded.values[name]))
            np.testing.assert_array_equal(
                loaded.values[name],
                np.clip(arr, -f4_max, f4_max).astype(np.float32).astype(np.float64),
            )

    def test_nan_gradient_raises_diverged_with_rescue_checkpoint(
        self, tmp_path, monkeypatch
    ):
        real = trainer.loss_and_grads
        calls = []

        def nan_on_tenth_step(params, *args):
            breakdown, grad = real(params, *args)
            calls.append(1)
            if len(calls) == 10:  # epoch 2 of 6 images
                grads = params.layout.views(grad)
                grads[list(grads)[-1]][0] = np.nan
            return breakdown, grad

        monkeypatch.setattr(trainer, "loss_and_grads", nan_on_tenth_step)
        path = tmp_path / "rescue.ckpt"
        cfg = TrainConfig(epochs=3, lr_phase1=1e-3, lr_phase2=1e-3)
        with pytest.raises(TrainingDivergedError, match="non-finite gradient") as info:
            train(small_dataset(), MODEL, cfg, checkpoint_path=path)
        err = info.value
        assert len(err.partial_log.epochs) == 1
        loaded, _ = load_checkpoint(path)
        for name, arr in err.last_good_params.values.items():
            np.testing.assert_array_equal(
                loaded.values[name], arr.astype(np.float32).astype(np.float64)
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("layer", LAYERS)
    def test_non_finite_layer_raises_diverged_with_rescue_checkpoint(
        self, tmp_path, monkeypatch, layer, bad
    ):
        real = trainer.loss_and_grads
        calls = []

        def inject_on_eighth_step(params, features, *args):
            calls.append(1)
            if len(calls) == 8:  # epoch 2 of 6 images
                if layer == "input features":
                    features = features.copy()
                    features[0, 0] = bad
                else:
                    params.values[LAYER_BIAS[layer]][0] = bad
            return real(params, features, *args)

        monkeypatch.setattr(trainer, "loss_and_grads", inject_on_eighth_step)
        path = tmp_path / "rescue.ckpt"
        cfg = TrainConfig(epochs=3, lr_phase1=1e-3, lr_phase2=1e-3)
        with pytest.raises(
            TrainingDivergedError, match=f"non-finite activation in {layer}$"
        ) as info:
            train(small_dataset(), MODEL2, cfg, checkpoint_path=path)
        err = info.value
        assert len(err.partial_log.epochs) == 1
        assert np.isfinite(err.last_good_params.flat_values).all()
        loaded, _ = load_checkpoint(path)
        for name, arr in err.last_good_params.values.items():
            np.testing.assert_array_equal(
                loaded.values[name], arr.astype(np.float32).astype(np.float64)
            )

    def test_log_serializes_to_json(self):
        records = small_dataset()
        _, train_log = train(
            records, MODEL, TrainConfig(epochs=2, lr_phase1=1e-3, lr_phase2=1e-4,
                                         phase_boundary=1)
        )
        doc = json.loads(json.dumps(train_log.as_json_dict()))
        assert len(doc["epochs"]) == 2
        assert doc["epochs"][0]["epoch"] == 1
        assert doc["epochs"][0]["lr"] == 1e-3
        assert doc["epochs"][1]["lr"] == 1e-4
        assert set(doc["epochs"][0]["loss"]) == {
            "image_cls", "seed_cls", "seed_sal", "l2", "total",
        }


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("kw", [
        {}, {"disable_saliency_subnet": True}, {"disable_seed_losses": True},
        {"feature_jitter": 0.05},
    ])
    def test_params_velocity_and_losses_bit_for_bit(self, kw):
        cfg = TrainConfig(epochs=3, lr_phase1=1e-2, lr_phase2=1e-3, phase_boundary=2, **kw)
        self.check(cfg, MODEL2)

    def test_loss_weights_of_the_model_config(self):
        cfg = TrainConfig(epochs=3, lr_phase1=1e-2, lr_phase2=1e-3, phase_boundary=2)
        self.check(cfg, replace(MODEL2, lambda_seed_cls=0.3, lambda_seed_sal=0.7,
                                lambda_l2=0.05))

    @staticmethod
    def check(cfg, model):
        records = small_dataset()
        params, log = train(records, model, cfg)

        # the loop train() documents, stepping with the per-layer reference
        config = cfg.effective_model_config(model)
        ref = init_params(config, rng_seed=cfg.init_seed)
        w, v = ref.flat_values, ref.flat_velocity
        assignments = {rec.id: make_assignment(rec, cfg.sigma) for rec in records}
        rng = np.random.default_rng(cfg.shuffle_seed)
        order = np.arange(len(records))
        for epoch, logged in zip(range(1, cfg.epochs + 1), log.epochs, strict=True):
            lr = cfg.learning_rate(epoch)
            rng.shuffle(order)
            sums = np.zeros(5)
            for idx in order:
                rec = records[idx]
                features = rec.features
                if cfg.feature_jitter > 0:
                    features = features + rng.normal(
                        0.0, cfg.feature_jitter, size=features.shape
                    )
                losses, grad = reference_step(
                    ref, features, rec.labels.y, assignments[rec.id], config
                )
                v *= cfg.momentum
                v += grad
                w -= lr * v
                sums += losses
            got = logged.mean_loss
            assert [float(x).hex() for x in sums / len(records)] == [
                float(x).hex()
                for x in (got.image_cls, got.seed_cls, got.seed_sal, got.l2, got.total)
            ]
        assert params.flat_values.tobytes() == w.tobytes()
        assert params.flat_velocity.tobytes() == v.tobytes()


class TestPrecomputeAssignments:
    def test_matches_per_record_calls(self):
        records = small_dataset()
        table = precompute_assignments(records, sigma=1e3)
        assert set(table) == {r.id for r in records}
        for rec in records:
            assert table[rec.id] == make_assignment(rec, sigma=1e3)
