"""Command-line interface: synth, seeds, train, eval, gradcheck, ablate.

Exit codes: 0 success, 1 bad input (flags, config values, missing or
malformed files), 2 runtime failure (divergence, failed verification).
``--json`` switches every subcommand to machine-readable output with a
versioned schema. The SALDET_LOG environment variable sets the log
level; it is the only environment the CLI reads.
"""

import argparse
import csv
import errno
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import benchmark as bench
from .dataio import DatasetError, SynthConfig, generate_synthetic, load_dataset, save_dataset
from .evaluate import evaluate
from .model import ModelConfig, load_checkpoint, run_gradient_check
from .seeds import proposal_scores, select_negatives, select_seeds, threshold_baseline
from .trainer import TrainConfig, TrainingDivergedError, train

SCHEMA_VERSION = 1

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(args, payload: dict, human: str):
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    elif human:
        print(human)


def _box_list(box):
    return list(box.as_tuple())


def _check_output_path(path) -> None:
    """Raise before any work if ``path`` cannot be written as a file."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    if not out.parent.is_dir():
        raise FileNotFoundError(f"{out}: parent directory {out.parent} does not exist")


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        grid_side=args.grid_side,
        superpixels=args.superpixels,
        objects_per_image=(args.min_objects, args.max_objects),
        images=args.images,
        classes=args.classes,
        feature_dim=args.feature_dim,
        noise_amplitude=args.noise_amplitude,
        feature_snr=args.snr,
        seed=args.seed,
    )
    records, manifest = generate_synthetic(cfg)
    save_dataset(records, manifest, args.out)
    _emit(
        args,
        {
            "out": str(args.out),
            "images": len(records),
            "classes": manifest.num_classes,
            "feature_dim": manifest.feature_dim,
        },
        f"wrote {len(records)} images to {args.out}",
    )
    return 0


def _cmd_seeds(args) -> int:
    _check_output_path(args.out)
    records, _ = load_dataset(args.data)
    images = {}
    for rec in records:
        terms = proposal_scores(rec, args.sigma)
        scores = select_seeds(rec, args.sigma, terms)
        assignment = select_negatives(rec, scores, terms)
        entry = {
            "classes": {
                str(c): {
                    "seed_index": s.proposal_index,
                    "seed_bbox": _box_list(rec.proposals[s.proposal_index].bbox),
                    "region_saliency": s.rs,
                    "neighborhood_saliency": s.ns,
                    "contrast": s.contrast,
                }
                for c, s in sorted(scores.items())
            },
            "negatives": list(assignment.negatives),
        }
        if args.theta is not None:
            entry["threshold_boxes"] = {
                str(c): [_box_list(b) for b in threshold_baseline(smap, args.theta)]
                for c, smap in sorted(rec.saliency.items())
            }
        images[rec.id] = entry
    payload = {"sigma": args.sigma, "images": images}
    text = json.dumps(
        {"schema_version": SCHEMA_VERSION, "command": "seeds", **payload},
        sort_keys=True,
        indent=None if args.json else 1,
    )
    if args.out:
        Path(args.out).write_text(text + "\n")
        _emit(args, {"out": str(args.out), "images": len(images)},
              f"wrote seed assignments for {len(images)} images to {args.out}")
    else:
        print(text)
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        lr_phase1=args.lr_phase1,
        lr_phase2=args.lr_phase2,
        phase_boundary=args.phase_boundary,
        momentum=args.momentum,
        sigma=args.sigma,
        shuffle_seed=args.seed,
        init_seed=args.seed,
        feature_jitter=args.feature_jitter,
        disable_seed_losses=args.disable_seed_losses,
        disable_saliency_subnet=args.disable_saliency_subnet,
    )


def _cmd_train(args) -> int:
    _check_output_path(args.out)
    records, manifest = load_dataset(args.data)
    model_config = ModelConfig(
        feature_dim=manifest.feature_dim,
        num_classes=manifest.num_classes,
        trunk_widths=tuple(args.trunk_widths),
        saliency_hidden=args.saliency_hidden,
        lambda_seed_cls=args.lambda_seed_cls,
        lambda_seed_sal=args.lambda_seed_sal,
        lambda_l2=args.lambda_l2,
    )
    train_config = _train_config(args)
    params, train_log = train(
        records, model_config, train_config, checkpoint_path=args.out
    )
    if args.json:
        for entry in train_log.as_json_dict()["epochs"]:
            print(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "command": "train",
                "event": "epoch",
                **entry,
                "mean_total_loss": entry["loss"]["total"],
                "mean_image_cls_loss": entry["loss"]["image_cls"],
            }, sort_keys=True))
    else:
        for e in train_log.epochs:
            print(
                f"epoch {e.epoch:3d} lr {e.lr:g} "
                f"mean loss {e.mean_loss.total:.6f} ({e.wall_time_s:.2f}s)"
            )
    _emit(
        args,
        {"event": "done", "checkpoint": str(args.out), "epochs": len(train_log.epochs)},
        f"checkpoint written to {args.out}",
    )
    return 0


def _cmd_eval(args) -> int:
    _check_output_path(args.csv)
    records, manifest = load_dataset(args.data)
    params, config = load_checkpoint(args.checkpoint)
    if config.feature_dim != manifest.feature_dim:
        raise DatasetError(
            f"checkpoint feature dim {config.feature_dim} does not match "
            f"dataset feature dim {manifest.feature_dim}"
        )
    report = evaluate(
        params,
        records,
        config,
        nms_threshold=args.nms,
        iou_threshold=args.iou,
        eleven_point=args.ap11,
    )
    payload = report.as_json_dict()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "detection_ap", "corloc", "classification_ap"])
            for c in sorted(set(report.detection_ap) | set(report.corloc)
                            | set(report.classification_ap)):
                writer.writerow([
                    c,
                    report.detection_ap.get(c, ""),
                    report.corloc.get(c, ""),
                    report.classification_ap.get(c, ""),
                ])
            writer.writerow([
                "mean",
                report.mean_detection_ap,
                report.mean_corloc,
                report.mean_classification_ap,
            ])
    _emit(
        args,
        payload,
        "\n".join([
            f"images            {report.num_images}",
            f"gt boxes          {report.num_gt_boxes}",
            f"mean detection AP {report.mean_detection_ap:.4f}",
            f"mean CorLoc       {report.mean_corloc:.4f}",
            f"mean class AP     {report.mean_classification_ap:.4f}",
        ]),
    )
    return 0


def _cmd_gradcheck(args) -> int:
    report = run_gradient_check(
        seed=args.seed, instances=args.instances, step=args.step
    )
    _emit(
        args,
        {
            "max_rel_error": report.max_rel_error,
            "instances": len(report.per_instance),
            "elapsed_s": report.elapsed_s,
            "passed": report.passed,
        },
        f"max relative error {report.max_rel_error:.3e} over "
        f"{len(report.per_instance)} instances in {report.elapsed_s:.1f}s "
        f"({'PASS' if report.passed else 'FAIL'})",
    )
    return 0 if report.passed else 2


def _cmd_ablate(args) -> int:
    dataset = {}
    if args.data:
        records, manifest = load_dataset(args.data)
        dataset = {
            "records": records,
            "model_config": replace(
                bench.STANDARD_MODEL,
                feature_dim=manifest.feature_dim,
                num_classes=manifest.num_classes,
            ),
        }
    result = bench.run_benchmark(seeds=range(args.seeds), **dataset)
    rows = [
        (v, result.mean_corloc(v), result.mean_test_map(v)) for v in bench.VARIANTS
    ]
    _emit(
        args,
        {"rows": [
            {"variant": v, "mean_corloc": c, "mean_map": m} for v, c, m in rows
        ]},
        "\n".join(
            [f"{'variant':<10} {'CorLoc':>8} {'mAP':>8}"]
            + [f"{v:<10} {c:>8.4f} {m:>8.4f}" for v, c, m in rows]
        ),
    )
    return 0


# ---------------------------------------------------------------------------
# parser construction

def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr-phase1", type=float, default=TrainConfig.lr_phase1,
                   help="learning rate for epochs up to the boundary")
    p.add_argument("--lr-phase2", type=float, default=TrainConfig.lr_phase2,
                   help="learning rate after the boundary")
    p.add_argument("--phase-boundary", type=int, default=TrainConfig.phase_boundary)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--lambda-seed-cls", type=float, default=ModelConfig.lambda_seed_cls,
                   help="weight of the seed classification loss")
    p.add_argument("--lambda-seed-sal", type=float, default=ModelConfig.lambda_seed_sal,
                   help="weight of the seed saliency loss")
    p.add_argument("--lambda-l2", type=float, default=ModelConfig.lambda_l2,
                   help="weight of the squared-weight penalty")
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma,
                   help="area scale of the saliency contrast")
    p.add_argument("--feature-jitter", type=float, default=TrainConfig.feature_jitter,
                   help="stddev of Gaussian feature augmentation (0 = off)")
    p.add_argument("--trunk-widths", type=int, nargs="+", default=list(ModelConfig.trunk_widths))
    p.add_argument("--saliency-hidden", type=int, default=ModelConfig.saliency_hidden)
    p.add_argument("--disable-seed-losses", action="store_true")
    p.add_argument("--disable-saliency-subnet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saldet", description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--images", type=int, default=SynthConfig.images)
    p.add_argument("--classes", type=int, default=SynthConfig.classes)
    p.add_argument("--grid-side", type=int, default=SynthConfig.grid_side)
    p.add_argument("--superpixels", type=int, default=SynthConfig.superpixels)
    p.add_argument("--feature-dim", type=int, default=SynthConfig.feature_dim)
    p.add_argument("--min-objects", type=int, default=SynthConfig.objects_per_image[0])
    p.add_argument("--max-objects", type=int, default=SynthConfig.objects_per_image[1])
    p.add_argument("--noise-amplitude", type=float, default=SynthConfig.noise_amplitude)
    p.add_argument("--snr", type=float, default=SynthConfig.feature_snr)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("seeds", help="select per-class seeds and negatives")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
    p.add_argument("--theta", type=float, default=None,
                   help="also emit threshold-baseline boxes at this fraction")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_seeds)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=TrainConfig.init_seed,
                   help="seed for init and shuffling")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--nms", type=float, default=0.4, help="NMS IoU threshold, in (0, 1)")
    p.add_argument("--iou", type=float, default=0.5,
                   help="matching IoU threshold, in (0, 1]")
    p.add_argument("--ap11", action="store_true",
                   help="11-point interpolated AP instead of continuous")
    p.add_argument("--csv", default=None, help="also write a per-class CSV table")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the three-variant ablation")
    p.add_argument("--data", default=None,
                   help="dataset to ablate on (default: standard benchmark)")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    name = os.environ.get("SALDET_LOG") or "WARNING"
    level = logging.getLevelName(name.upper())  # a name's number, else a string
    if not isinstance(level, int):
        print(f"error: SALDET_LOG={name!r} is not a logging level name", file=sys.stderr)
        return 1
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ValueError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
