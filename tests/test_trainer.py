"""Optimizer mechanics, the training loop, and its failure modes."""

import json

import numpy as np
import pytest

from saldet import trainer
from saldet.dataio import SynthConfig, generate_synthetic
from saldet.model import ModelConfig, ModelParams, init_params, load_checkpoint
from saldet.seeds import make_assignment
from saldet.trainer import (
    TrainConfig,
    TrainingDivergedError,
    precompute_assignments,
    sgd_step,
    train,
)

MODEL = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(16,), saliency_hidden=8)


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
            {"lambda_l2": -1.0},
            {"phase_boundary": -1},
            {"feature_jitter": -0.5},
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
        base = MODEL
        cfg = TrainConfig(lambda_seed_cls=0.3, lambda_seed_sal=0.7, lambda_l2=0.01)
        eff = cfg.effective_model_config(base)
        assert (eff.lambda_seed_cls, eff.lambda_seed_sal, eff.lambda_l2) == (0.3, 0.7, 0.01)
        assert eff.saliency_enabled

        no_seed = TrainConfig(disable_seed_losses=True).effective_model_config(base)
        assert no_seed.lambda_seed_cls == 0.0
        assert no_seed.saliency_enabled

        no_sal = TrainConfig(disable_saliency_subnet=True).effective_model_config(base)
        assert no_sal.lambda_seed_sal == 0.0
        assert not no_sal.saliency_enabled


class TestSgdStep:
    def _single(self, w):
        w = np.asarray(w, dtype=np.float64)
        return ModelParams(values={"w": w.copy()}, velocity={"w": np.zeros_like(w)})

    def test_matches_hand_recurrence(self):
        params = self._single([1.0, -2.0])
        lr, m = 0.1, 0.9
        w, v = np.array([1.0, -2.0]), np.zeros(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.normal(size=2)
            sgd_step(params, {"w": g}, lr, m)
            v = m * v + g
            w = w - lr * v
            np.testing.assert_array_equal(params.values["w"], w)
            np.testing.assert_array_equal(params.velocity["w"], v)

    def test_zero_momentum_is_plain_gd(self):
        params = self._single([3.0])
        sgd_step(params, {"w": np.array([2.0])}, lr=0.5, momentum=0.0)
        np.testing.assert_array_equal(params.values["w"], [2.0])

    def test_converges_on_quadratic(self):
        # f(w) = ||w||^2 / 2, grad = w
        params = self._single([1.0])
        for _ in range(200):
            sgd_step(params, {"w": params.values["w"].copy()}, lr=0.1, momentum=0.9)
        assert abs(params.values["w"][0]) < 1e-3

    def test_rejects_bad_gradients(self):
        params = self._single([1.0, 2.0])
        with pytest.raises(FloatingPointError, match="non-finite"):
            sgd_step(params, {"w": np.array([np.nan, 0.0])}, 0.1, 0.9)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, {"w": np.zeros(3)}, 0.1, 0.9)

    def test_nan_in_last_gradient_changes_nothing(self):
        params = init_params(MODEL, rng_seed=0)
        params.velocity = {k: np.full_like(v, 0.5) for k, v in params.velocity.items()}
        before = params.copy()
        grads = {k: np.ones_like(v) for k, v in params.values.items()}
        last = list(grads)[-1]
        grads[last][0] = np.nan
        with pytest.raises(FloatingPointError, match=last):
            sgd_step(params, grads, 0.1, 0.9)
        for name in before.values:
            np.testing.assert_array_equal(params.values[name], before.values[name])
            np.testing.assert_array_equal(params.velocity[name], before.velocity[name])


class TestTrain:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train([], MODEL, TrainConfig(epochs=1))

    def test_rejects_feature_dim_mismatch(self):
        records = small_dataset()
        narrow = ModelConfig(feature_dim=8, num_classes=4, trunk_widths=(8,))
        with pytest.raises(ValueError, match=records[0].id):
            train(records, narrow, TrainConfig(epochs=1))

    def test_zero_lr_is_identity(self):
        records = small_dataset()
        cfg = TrainConfig(epochs=1, lr_phase1=0.0, lr_phase2=0.0, init_seed=9)
        params, _ = train(records, MODEL, cfg)
        fresh = init_params(cfg.effective_model_config(MODEL), rng_seed=9)
        for name in fresh.values:
            np.testing.assert_array_equal(params.values[name], fresh.values[name])

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

        def nan_on_tenth_step(*args):
            breakdown, grads = real(*args)
            calls.append(1)
            if len(calls) == 10:  # epoch 2 of 6 images
                grads[list(grads)[-1]][0] = np.nan
            return breakdown, grads

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


class TestPrecomputeAssignments:
    def test_matches_per_record_calls(self):
        records = small_dataset()
        table = precompute_assignments(records, sigma=1e3)
        assert set(table) == {r.id for r in records}
        for rec in records:
            assert table[rec.id] == make_assignment(rec, sigma=1e3)
