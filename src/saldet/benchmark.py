"""The in-repo standard synthetic benchmark and its ablation grid.

A fixed configuration (50 train / 50 test images, 4 classes, noise
amplitude 0.2, feature SNR 4) is trained with three variants over a set
of seeds:

* ``full``      - both seed losses and the saliency sub-network;
* ``no_sal``    - saliency sub-network and its loss removed (P = 1),
                  seed classification loss kept;
* ``baseline``  - additionally no seed classification loss; image-level
                  labels are the only supervision.

CorLoc is reported on the training split and detection mAP on the held
out split. Learning rates here are tuned for training this small model
from scratch; the CLI defaults are much lower because they target the
fine-tuning regime where features come from a pretrained backbone.
"""

import logging
import time
from dataclasses import dataclass, field, replace

from .dataio import SynthConfig, generate_synthetic
from .evaluate import EvalReport, evaluate
from .model import ModelConfig
from .trainer import TrainConfig, train

log = logging.getLogger(__name__)

STANDARD_SYNTH = SynthConfig(
    grid_side=32,
    superpixels=64,
    objects_per_image=(1, 2),
    images=50,
    classes=4,
    feature_dim=16,
    noise_amplitude=0.2,
    feature_snr=4.0,
    seed=0,
)

STANDARD_MODEL = ModelConfig(
    feature_dim=STANDARD_SYNTH.feature_dim,
    num_classes=STANDARD_SYNTH.classes,
    trunk_widths=(64, 64),
    saliency_hidden=32,
)

STANDARD_TRAIN = TrainConfig(
    epochs=40,
    lr_phase1=5e-3,
    lr_phase2=5e-4,
    phase_boundary=30,
    momentum=0.9,
)

VARIANTS = ("full", "no_sal", "baseline")

VARIANT_FLAGS = {
    "full": {},
    "no_sal": {"disable_saliency_subnet": True},
    "baseline": {"disable_saliency_subnet": True, "disable_seed_losses": True},
}

_TRAIN_SEED_BASE = 1000
_TEST_SEED_BASE = 5000


@dataclass
class BenchmarkRun:
    variant: str
    seed: int
    train_report: EvalReport
    test_report: EvalReport


@dataclass
class BenchmarkResult:
    runs: list[BenchmarkRun] = field(default_factory=list)
    elapsed_s: float = 0.0

    def mean_corloc(self, variant: str) -> float:
        vals = [r.train_report.mean_corloc for r in self.runs if r.variant == variant]
        return sum(vals) / len(vals)

    def mean_test_map(self, variant: str) -> float:
        vals = [
            r.test_report.mean_detection_ap for r in self.runs if r.variant == variant
        ]
        return sum(vals) / len(vals)

    def as_json_dict(self) -> dict:
        variants = sorted({r.variant for r in self.runs})
        return {
            "elapsed_s": self.elapsed_s,
            "summary": {
                v: {
                    "mean_corloc": self.mean_corloc(v),
                    "mean_test_map": self.mean_test_map(v),
                }
                for v in variants
            },
            "runs": [
                {
                    "variant": r.variant,
                    "seed": r.seed,
                    "train_corloc": r.train_report.mean_corloc,
                    "train_map": r.train_report.mean_detection_ap,
                    "test_map": r.test_report.mean_detection_ap,
                    "test_classification_ap": r.test_report.mean_classification_ap,
                }
                for r in self.runs
            ],
        }


def benchmark_datasets(seed: int):
    """The fixed train/test split pair for one benchmark seed."""
    train_cfg = replace(STANDARD_SYNTH, seed=_TRAIN_SEED_BASE + seed)
    test_cfg = replace(STANDARD_SYNTH, seed=_TEST_SEED_BASE + seed)
    train_records, _ = generate_synthetic(train_cfg)
    test_records, _ = generate_synthetic(test_cfg)
    return train_records, test_records


def run_variant(
    variant: str, seed: int, records=None, model_config: ModelConfig = STANDARD_MODEL
) -> BenchmarkRun:
    """Train one variant on one seed and evaluate it.

    By default the standard split pair of ``seed`` is used, with CorLoc
    on the training split and mAP on the held-out split. Given
    ``records``, the model trains on them and both reports are the one
    evaluation of those records.
    """
    if variant not in VARIANT_FLAGS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if records is None:
        train_records, test_records = benchmark_datasets(seed)
    else:
        train_records = test_records = records
    train_config = replace(
        STANDARD_TRAIN,
        shuffle_seed=seed,
        init_seed=seed,
        **VARIANT_FLAGS[variant],
    )
    params, _ = train(train_records, model_config, train_config)
    config = train_config.effective_model_config(model_config)
    train_report = evaluate(params, train_records, config)
    if test_records is train_records:
        test_report = train_report
    else:
        test_report = evaluate(params, test_records, config)
    return BenchmarkRun(variant, seed, train_report, test_report)


def run_benchmark(
    variants=VARIANTS, seeds=range(5), records=None,
    model_config: ModelConfig = STANDARD_MODEL,
) -> BenchmarkResult:
    """The ablation grid: full vs no-saliency-branch vs label-only.

    ``records`` and ``model_config`` pass through to :func:`run_variant`.
    """
    result = BenchmarkResult()
    tic = time.perf_counter()
    for variant in variants:
        for seed in seeds:
            run = run_variant(variant, seed, records, model_config)
            result.runs.append(run)
            log.info(
                "variant=%s seed=%d train CorLoc %.3f test mAP %.3f",
                variant, seed,
                run.train_report.mean_corloc,
                run.test_report.mean_detection_ap,
            )
    result.elapsed_s = time.perf_counter() - tic
    return result
