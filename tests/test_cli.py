"""End-to-end command-line behavior: output schemas and exit codes."""

import csv
import inspect
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import saldet.cli as cli
from saldet.cli import main
from saldet.dataio import SynthConfig, load_dataset
from saldet.evaluate import evaluate
from saldet.model import ModelConfig
from saldet.seeds import proposal_scores
from saldet.trainer import TrainConfig, precompute_assignments


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["synth", "--out", str(out), "--images", "6", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main([
        "train", "--data", str(dataset), "--out", str(path),
        "--epochs", "2", "--lr-phase1", "5e-3", "--lr-phase2", "5e-4",
        "--phase-boundary", "1", "--trunk-widths", "16", "--saliency-hidden", "8",
    ])
    assert code == 0
    return path


def _dir_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestSynth:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["--json", "synth", "--out", str(out), "--images", "4"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["schema_version"] == 1
        assert doc["command"] == "synth"
        assert doc["images"] == 4
        assert (out / "manifest.json").is_file()

    def test_deterministic_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / name), "--images", "4"]) == 0
        capsys.readouterr()
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--noise-amplitude", "1.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 1
        assert _one_error_line(capsys) == "error: seed must be >= 0, got -1"
        assert not (tmp_path / "x").exists()

    def test_records_path_taken_by_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.mkdir()
        (out / "records").write_text("")
        assert main(["synth", "--out", str(out), "--images", "2"]) == 1
        assert "File exists" in _one_error_line(capsys)


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestNonFiniteSettings:
    """Every float setting of the commands that take one must be finite."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,flag,field", [
        ("seeds", "--sigma", "sigma"),
        ("synth", "--snr", "feature_snr"),
        ("synth", "--noise-amplitude", "noise_amplitude"),
        ("train", "--sigma", "sigma"),
        ("train", "--feature-jitter", "feature_jitter"),
        ("train", "--lr-phase1", "lr_phase1"),
        ("train", "--lr-phase2", "lr_phase2"),
        ("train", "--momentum", "momentum"),
        ("train", "--lambda-seed-cls", "lambda_seed_cls"),
        ("train", "--lambda-seed-sal", "lambda_seed_sal"),
        ("train", "--lambda-l2", "lambda_l2"),
    ])
    def test_one_error_line_exit_1(
        self, dataset, tmp_path, capsys, command, flag, field, value
    ):
        argv = {
            "seeds": ["seeds", "--data", str(dataset)],
            "synth": ["synth", "--out", str(tmp_path / "ds"), "--images", "2"],
            "train": ["train", "--data", str(dataset), "--out", str(tmp_path / "m.ckpt"),
                      "--epochs", "1", "--trunk-widths", "8", "--saliency-hidden", "4"],
        }[command]
        assert main(argv + [flag, value]) == 1
        message = _one_error_line(capsys)
        assert f"{field} must be" in message and "finite" in message


class TestSeeds:
    def test_schema(self, dataset, capsys):
        assert main(["--json", "seeds", "--data", str(dataset)]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["command"] == "seeds"
        assert doc["sigma"] == 1e3
        assert len(doc["images"]) == 6
        entry = next(iter(doc["images"].values()))
        cls_entry = next(iter(entry["classes"].values()))
        assert set(cls_entry) == {
            "seed_index", "seed_bbox", "region_saliency",
            "neighborhood_saliency", "contrast",
        }
        assert isinstance(entry["negatives"], list)
        assert "threshold_boxes" not in entry

    def test_theta_adds_baseline_boxes(self, dataset, capsys):
        assert main(["--json", "seeds", "--data", str(dataset), "--theta", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        entry = next(iter(doc["images"].values()))
        assert set(entry["threshold_boxes"]) == set(entry["classes"])

    def test_out_file(self, dataset, tmp_path, capsys):
        path = tmp_path / "seeds.json"
        assert main(["seeds", "--data", str(dataset), "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "seeds"
        assert "seeds.json" in capsys.readouterr().out

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        assert main(["seeds", "--data", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_agrees_with_training(self, dataset, capsys):
        assert main(["--json", "seeds", "--data", str(dataset)]) == 0
        images = json.loads(capsys.readouterr().out.strip())["images"]
        records, _ = load_dataset(dataset)
        assignments = precompute_assignments(records)
        assert sorted(images) == sorted(assignments)
        for rec in records:
            entry, assignment = images[rec.id], assignments[rec.id]
            seeds = {int(c): e["seed_index"] for c, e in entry["classes"].items()}
            assert tuple(sorted(seeds.items())) == assignment.seeds
            assert tuple(entry["negatives"]) == assignment.negatives
            scores = proposal_scores(rec, TrainConfig.sigma)
            for c, i in seeds.items():
                rs, ns, contrast = (float(row[i]) for row in scores[c])
                e = entry["classes"][str(c)]
                assert (e["region_saliency"], e["neighborhood_saliency"],
                        e["contrast"]) == (rs, ns, contrast)


def _break_width(ds):
    path = sorted((ds / "records").glob("*.json"))[0]
    doc = json.loads(path.read_text())
    doc["width"] = str(doc["width"])
    path.write_text(json.dumps(doc))


def _drop_gt_box(ds):
    path = sorted((ds / "records").glob("*.json"))[0]
    doc = json.loads(path.read_text())
    del doc["gt_boxes"][0]["box"]
    path.write_text(json.dumps(doc))


def _escape_records(ds):
    path = ds / "manifest.json"
    doc = json.loads(path.read_text())
    doc["images"][0] = "../../" + doc["images"][0]
    path.write_text(json.dumps(doc))


class TestMalformedDataset:
    @pytest.mark.parametrize("corrupt", [_break_width, _drop_gt_box, _escape_records])
    def test_one_error_line_exit_1(self, tmp_path, capsys, corrupt):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--images", "2"]) == 0
        capsys.readouterr()
        corrupt(ds)
        assert main(["seeds", "--data", str(ds)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestOutputPathIsADirectory:
    @pytest.mark.parametrize("command", ["eval", "seeds", "train"])
    @pytest.mark.parametrize("where, message", [
        ("dir", "Is a directory"),
        ("missing/out", "does not exist"),
    ])
    def test_one_error_line_exit_1(
        self, dataset, checkpoint, tmp_path, capsys, monkeypatch, command, where, message
    ):
        def never_called(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(cli, "load_dataset", never_called)
        monkeypatch.setattr(cli, "train", never_called)
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / where)
        argv = {
            "eval": ["eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                     "--csv", out],
            "seeds": ["seeds", "--data", str(dataset), "--out", out],
            "train": ["train", "--data", str(dataset), "--out", out, "--epochs", "1",
                      "--trunk-widths", "8", "--saliency-hidden", "4"],
        }[command]
        assert main(argv) == 1
        assert message in _one_error_line(capsys)


class TestTrain:
    def test_json_epoch_stream(self, dataset, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        code = main([
            "--json", "train", "--data", str(dataset), "--out", str(path),
            "--epochs", "2", "--lr-phase1", "1e-3", "--lr-phase2", "1e-4",
            "--phase-boundary", "1", "--trunk-widths", "8", "--saliency-hidden", "4",
        ])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        events = [l["event"] for l in lines]
        assert events == ["epoch", "epoch", "done"]
        assert lines[0]["epoch"] == 1 and lines[0]["lr"] == 1e-3
        assert lines[1]["lr"] == 1e-4
        assert path.is_file()

    def test_json_epoch_lines_carry_every_loss_term(self, dataset, tmp_path, capsys):
        code = main([
            "--json", "train", "--data", str(dataset), "--out", str(tmp_path / "m.ckpt"),
            "--epochs", "2", "--lr-phase1", "1e-3", "--lr-phase2", "1e-4",
            "--phase-boundary", "1", "--trunk-widths", "8", "--saliency-hidden", "4",
        ])
        assert code == 0
        epochs = [json.loads(l) for l in capsys.readouterr().out.splitlines()][:2]
        for line in epochs:
            loss = line["loss"]
            assert set(loss) == {"image_cls", "seed_cls", "seed_sal", "l2", "total"}
            assert loss["seed_cls"] > 0 and loss["seed_sal"] > 0 and loss["l2"] > 0
            assert loss["total"] == line["mean_total_loss"]
            assert loss["image_cls"] == line["mean_image_cls_loss"]
            assert line["wall_time_s"] >= 0.0

    def test_human_output(self, dataset, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        code = main([
            "train", "--data", str(dataset), "--out", str(path),
            "--epochs", "1", "--trunk-widths", "8", "--saliency-hidden", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch   1" in out and "checkpoint written" in out

    def test_divergence_exits_2(self, dataset, tmp_path, capsys):
        code = main([
            "train", "--data", str(dataset), "--out", str(tmp_path / "m.ckpt"),
            "--epochs", "50", "--lr-phase1", "1e12", "--lr-phase2", "1e12",
            "--trunk-widths", "8", "--saliency-hidden", "4",
        ])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_bad_sigma_is_rejected_before_the_load(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "load_dataset", _refuse_load)
        code = main([
            "train", "--data", str(dataset), "--out", str(tmp_path / "m.ckpt"),
            "--sigma", "-1", "--disable-seed-losses", "--disable-saliency-subnet",
        ])
        assert code == 1
        assert _one_error_line(capsys) == "error: sigma must be positive and finite, got -1.0"


def _refuse_load(*args):
    raise AssertionError("the dataset was loaded")


class TestFlagValuesCheckedBeforeTheLoad:
    @pytest.mark.parametrize("argv,message", [
        (["seeds", "--sigma", "-1"], "sigma must be positive and finite, got -1.0"),
        (["seeds", "--theta", "1.5"], "theta must be in (0, 1)"),
        (["eval", "--nms", "0"], "NMS threshold must be in (0, 1), got 0.0"),
        (["eval", "--iou", "2"], "IoU matching threshold must be in (0, 1], got 2.0"),
        (["train", "--lambda-l2", "-1"], "loss weights must be >= 0"),
        (["train", "--trunk-widths", "0"], "trunk widths must all be >= 1"),
        (["train", "--seed", "-1"], "shuffle_seed must be >= 0, got -1"),
        (["ablate", "--seeds", "0"], "the ablation needs at least one seed"),
    ])
    def test_one_error_line(
        self, dataset, checkpoint, tmp_path, capsys, monkeypatch, argv, message
    ):
        required = {
            "eval": ["--checkpoint", str(checkpoint)],
            "train": ["--out", str(tmp_path / "m.ckpt")],
        }
        monkeypatch.setattr(cli, "load_dataset", _refuse_load)
        assert main([*argv, "--data", str(dataset), *required.get(argv[0], [])]) == 1
        assert _one_error_line(capsys) == f"error: {message}"


class TestEval:
    def test_json_report(self, dataset, checkpoint, capsys):
        code = main(["--json", "eval", "--data", str(dataset),
                     "--checkpoint", str(checkpoint)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["command"] == "eval"
        assert doc["num_images"] == 6
        for key in ("mean_detection_ap", "mean_corloc", "mean_classification_ap"):
            assert 0.0 <= doc[key] <= 1.0

    def test_ap11_flag_accepted(self, dataset, checkpoint, capsys):
        code = main(["--json", "eval", "--data", str(dataset),
                     "--checkpoint", str(checkpoint), "--ap11"])
        assert code == 0
        json.loads(capsys.readouterr().out.strip())

    def test_truncated_checkpoint_is_one_error_line(
        self, dataset, checkpoint, tmp_path, capsys
    ):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(checkpoint.read_bytes()[:40])
        code = main(["eval", "--data", str(dataset), "--checkpoint", str(cut)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {cut}: truncated checkpoint"]

    @pytest.mark.parametrize("value", ["0", "-0.2", "1.5", "nan"])
    def test_bad_iou_is_one_error_line(self, dataset, checkpoint, capsys, value):
        code = main(["eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                     "--iou", value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: IoU matching threshold must be in (0, 1]")

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
    def test_bad_nms_error_names_the_nms_threshold(self, dataset, checkpoint, capsys, value):
        code = main(["eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                     "--nms", value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: NMS threshold must be in (0, 1)")

    def test_csv_table(self, dataset, checkpoint, tmp_path, capsys):
        table = tmp_path / "report.csv"
        code = main(["eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                     "--csv", str(table)])
        assert code == 0
        capsys.readouterr()
        with table.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["class", "detection_ap", "corloc", "classification_ap"]
        assert rows[-1][0] == "mean"

    def test_feature_dim_mismatch_exits_1(self, checkpoint, tmp_path, capsys):
        other = tmp_path / "narrow"
        assert main(["synth", "--out", str(other), "--images", "3",
                     "--feature-dim", "8"]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(other), "--checkpoint", str(checkpoint)])
        assert code == 1
        line = _one_error_line(capsys)
        assert line == "error: image img_0000: feature dim 8 != model feature dim 16"

    @pytest.mark.parametrize("classes", ["3", "6"])
    def test_class_count_mismatch_is_one_error_line(
        self, checkpoint, tmp_path, capsys, classes
    ):
        # the checkpoint was trained on 4 classes
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--images", "3",
                     "--classes", classes]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(other), "--checkpoint", str(checkpoint)])
        assert code == 1
        assert "model has 4" in _one_error_line(capsys)

    def test_empty_dataset_is_one_error_line(self, dataset, checkpoint, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["images"] = []
        (empty / "manifest.json").write_text(json.dumps(doc))
        assert main(["eval", "--data", str(empty), "--checkpoint", str(checkpoint)]) == 1
        assert "empty dataset" in _one_error_line(capsys)

    def test_missing_checkpoint_is_read_before_the_dataset(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "load_dataset", _refuse_load)
        missing = tmp_path / "missing.ckpt"
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(missing)]) == 1
        assert str(missing) in _one_error_line(capsys)

    def test_corrupt_checkpoint_exits_1(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(bad)]) == 1
        assert "checkpoint" in capsys.readouterr().err


class TestGradcheck:
    def test_passing_run(self, capsys):
        assert main(["--json", "gradcheck", "--instances", "2", "--seed", "11"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["passed"] is True
        assert doc["instances"] == 2
        assert doc["max_rel_error"] < 1e-5

    @pytest.mark.parametrize("flag,value", [
        ("--instances", "0"), ("--instances", "-3"),
        ("--step", "0"), ("--step", "-0.001"), ("--step", "nan"), ("--step", "inf"),
    ])
    def test_bad_count_or_step_is_one_error_line(self, capsys, flag, value):
        assert main(["gradcheck", "--instances", "1", flag, value]) == 1
        _one_error_line(capsys)

    def test_negative_seed_names_the_field(self, capsys):
        assert main(["gradcheck", "--instances", "1", "--seed", "-1"]) == 1
        assert _one_error_line(capsys) == "error: seed must be >= 0, got -1"

    def test_failing_run_exits_2(self, capsys, monkeypatch):
        @dataclass
        class FakeReport:
            max_rel_error: float = 0.5
            per_instance: tuple = ()
            elapsed_s: float = 0.0
            passed: bool = False

        monkeypatch.setattr(cli, "run_gradient_check", lambda **kw: FakeReport())
        assert main(["gradcheck"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestAblate:
    def test_on_small_dataset(self, dataset, capsys):
        code = main(["--json", "ablate", "--data", str(dataset), "--seeds", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        variants = [r["variant"] for r in doc["rows"]]
        assert variants == ["full", "no_sal", "baseline"]
        for row in doc["rows"]:
            assert 0.0 <= row["mean_corloc"] <= 1.0
            assert 0.0 <= row["mean_map"] <= 1.0


    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_one_error_line(self, capsys, seeds):
        assert main(["ablate", "--seeds", seeds]) == 1
        assert "at least one" in _one_error_line(capsys)


class TestLogLevelEnv:
    @pytest.mark.parametrize("value", ["basic_format", "inf0", "10", "Level 5"])
    def test_unknown_name_is_one_error_line(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SALDET_LOG", value)
        assert main(["gradcheck", "--instances", "1"]) == 1
        assert "SALDET_LOG" in _one_error_line(capsys)

    @pytest.mark.parametrize("value", ["debug", "Info", "WARN", ""])
    def test_level_names_in_any_case(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SALDET_LOG", value)
        assert main(["gradcheck", "--instances", "1"]) == 0


class TestParserContract:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_unknown_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--out", str(tmp_path / "x"), "--nope"])
        assert info.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["train"])
        assert info.value.code == 1

    def test_config_flags_default_to_the_config_defaults(self):
        parser = cli.build_parser()
        synth = parser.parse_args(["synth", "--out", "x"])
        seeds = parser.parse_args(["seeds", "--data", "x"])
        train = parser.parse_args(["train", "--data", "x", "--out", "x"])
        assert SynthConfig(
            grid_side=synth.grid_side, superpixels=synth.superpixels,
            objects_per_image=(synth.min_objects, synth.max_objects), images=synth.images,
            classes=synth.classes, feature_dim=synth.feature_dim,
            noise_amplitude=synth.noise_amplitude, feature_snr=synth.snr, seed=synth.seed,
        ) == SynthConfig()
        assert seeds.sigma == TrainConfig.sigma
        assert cli._train_config(train) == TrainConfig()
        assert ModelConfig(
            feature_dim=1, num_classes=1, trunk_widths=tuple(train.trunk_widths),
            saliency_hidden=train.saliency_hidden, lambda_seed_cls=train.lambda_seed_cls,
            lambda_seed_sal=train.lambda_seed_sal, lambda_l2=train.lambda_l2,
        ) == ModelConfig(feature_dim=1, num_classes=1)
        evaluated = parser.parse_args(["eval", "--data", "x", "--checkpoint", "x"])
        defaults = inspect.signature(evaluate).parameters
        assert (evaluated.nms, evaluated.iou) == (
            defaults["nms_threshold"].default, defaults["iou_threshold"].default
        ) == (0.4, 0.5)


class TestSubprocessEntry:
    def test_module_invocation_and_log_env(self, tmp_path):
        out = tmp_path / "ds"
        env = dict(os.environ, SALDET_LOG="INFO")
        synth = subprocess.run(
            [sys.executable, "-m", "saldet.cli", "synth", "--out", str(out),
             "--images", "3"],
            capture_output=True, text=True, env=env,
        )
        assert synth.returncode == 0
        trained = subprocess.run(
            [sys.executable, "-m", "saldet.cli", "train", "--data", str(out),
             "--out", str(tmp_path / "m.ckpt"), "--epochs", "1",
             "--trunk-widths", "8", "--saliency-hidden", "4"],
            capture_output=True, text=True, env=env,
        )
        assert trained.returncode == 0
        assert "INFO saldet.trainer" in trained.stderr
