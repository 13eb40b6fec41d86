"""SGD-with-momentum training loop over a dataset of image records.

Seed assignments depend only on geometry and saliency maps, never on the
weights, so they are computed once up front, and so are each record's
float64 inputs. Each epoch shuffles the image order with a seeded RNG
and takes one optimizer step per image: one call of the step kernel
kept with the parameters, which runs forward, losses, backward and the
update of ``sgd_step`` in buffers it keeps. The learning rate follows a
two-phase schedule. A run is reproducible bit for bit from (dataset
bytes, config, seeds).
"""

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from operator import add

import numpy as np

from .core import ImageRecord, check_number_fields, check_records
# a step is one call of the step kernel; ``loss_and_grads`` and ``sgd_step``,
# the public step in two parts, stay bound here for callers and perfbench
from .model import (  # noqa: F401
    LossBreakdown,
    ModelConfig,
    _kept,
    _quiet,
    _step_kernel,
    init_params,
    loss_and_grads,
    save_checkpoint,
    sgd_step,
)
from .seeds import SeedAssignment, check_sigma, make_assignment

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Schedule, seed scale, RNG seeds and ablation switches; loss weights are on ModelConfig."""

    epochs: int = 20
    lr_phase1: float = 1e-5
    lr_phase2: float = 1e-6
    phase_boundary: int = 10     # last epoch (1-based) of phase 1
    momentum: float = 0.9
    sigma: float = 1e3
    shuffle_seed: int = 0
    init_seed: int = 0
    feature_jitter: float = 0.0  # stddev of Gaussian feature noise, 0 = off
    disable_seed_losses: bool = False
    disable_saliency_subnet: bool = False

    def __post_init__(self):
        check_number_fields(self)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr_phase1 < 0 or self.lr_phase2 < 0:
            raise ValueError("learning rates must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.phase_boundary < 0:
            raise ValueError("phase_boundary must be >= 0")
        if self.feature_jitter < 0:
            raise ValueError("feature_jitter must be >= 0")
        check_sigma(self.sigma)
        for name in ("shuffle_seed", "init_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def learning_rate(self, epoch: int) -> float:
        """lr for a 1-based epoch index."""
        return self.lr_phase1 if epoch <= self.phase_boundary else self.lr_phase2

    def effective_model_config(self, base: ModelConfig) -> ModelConfig:
        """``base`` with the ablation switches applied; train and evaluate with it.

        The saliency switch drops the seed saliency loss with the branch.
        """
        return replace(
            base,
            lambda_seed_cls=0.0 if self.disable_seed_losses else base.lambda_seed_cls,
            saliency_enabled=base.saliency_enabled and not self.disable_saliency_subnet,
        )


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: LossBreakdown
    wall_time_s: float


@dataclass
class TrainLog:
    """One entry per completed epoch plus the final checkpoint location."""

    epochs: list[EpochStats] = field(default_factory=list)
    checkpoint_path: str | None = None

    def as_json_dict(self) -> dict:
        return {
            "checkpoint_path": self.checkpoint_path,
            "epochs": [
                {
                    "epoch": e.epoch,
                    "lr": e.lr,
                    "wall_time_s": e.wall_time_s,
                    "loss": asdict(e.mean_loss),
                }
                for e in self.epochs
            ],
        }


class TrainingDivergedError(RuntimeError):
    """Raised when the total loss goes non-finite; keeps the last good state."""

    def __init__(self, message, last_good_params, partial_log):
        super().__init__(message)
        self.last_good_params = last_good_params
        self.partial_log = partial_log


def precompute_assignments(
    records: list[ImageRecord], sigma: float = TrainConfig.sigma
) -> dict[str, SeedAssignment]:
    """Seed/negative assignment per image; pure function of the dataset."""
    return {rec.id: make_assignment(rec, sigma=sigma) for rec in records}


def train(
    records: list[ImageRecord],
    model_config: ModelConfig,
    train_config: TrainConfig,
    checkpoint_path=None,
):
    """Optimize over the dataset; returns (final params, TrainLog).

    The returned parameters keep no step kernel: the training workspace
    is freed on return, and their first forward binds a new kernel.

    Records are checked once: ``check_records`` and the record types make
    the checks ``loss_and_grads`` makes of a step's inputs, and
    ``make_assignment`` picks only indices below a record's proposal count.
    Raises TrainingDivergedError when any step's forward pass, total loss
    or gradient is non-finite; the exception carries the parameters from
    the last completed epoch (already written to ``checkpoint_path`` when
    one was given).
    """
    if not records:
        raise ValueError("cannot train on an empty dataset")
    check_records(records, model_config)

    config = train_config.effective_model_config(model_config)
    need_assignments = config.lambda_seed_cls > 0 or (
        config.saliency_enabled and config.lambda_seed_sal > 0
    )
    assignments = (
        precompute_assignments(records, sigma=train_config.sigma)
        if need_assignments
        else {}
    )

    # per record, once: float64 features and labels, and its assignment
    # (whose seed arrays are built on first use and then kept)
    prepared = [(np.asarray(rec.features, dtype=np.float64),
                 np.asarray(rec.labels.y, dtype=np.float64), assignments.get(rec.id))
                for rec in records]
    params = init_params(config, rng_seed=train_config.init_seed)
    kernel = _step_kernel(params, config)
    rng = np.random.default_rng(train_config.shuffle_seed)
    last_good = params.copy()
    train_log = TrainLog()

    def checkpoint(p):
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, p, config)
            train_log.checkpoint_path = str(checkpoint_path)

    order = np.arange(len(records))
    # the update's factors as kept 0-d arrays, the same float64s
    momentum, jitter = _kept(train_config.momentum), train_config.feature_jitter
    with _quiet():  # the floating-point state of every step
        for epoch in range(1, train_config.epochs + 1):
            lr = train_config.learning_rate(epoch)
            step_lr = _kept(lr)
            rng.shuffle(order)
            steps = []  # each step's loss terms
            tic = time.perf_counter()
            for idx in order:
                features, labels_y, assignment = prepared[idx]
                if jitter > 0:
                    features = features + rng.normal(0.0, jitter, size=features.shape)
                try:
                    steps.append(kernel.step(features, labels_y, assignment, step_lr, momentum))
                except FloatingPointError as exc:
                    checkpoint(last_good)
                    raise TrainingDivergedError(
                        f"epoch {epoch}, image {records[idx].id}: {exc}", last_good, train_log
                    ) from exc
            wall = time.perf_counter() - tic
            # each term summed in step order from 0.0, then divided, in float64
            means = [reduce(add, column, 0.0) / len(records) for column in zip(*steps)]
            train_log.epochs.append(
                EpochStats(
                    epoch=epoch,
                    lr=lr,
                    mean_loss=LossBreakdown(*means),
                    wall_time_s=wall,
                )
            )
            log.info(
                "epoch %d/%d lr=%g mean total loss %.6f (%.2fs)",
                epoch, train_config.epochs, lr, means[4], wall,
            )
            last_good = params.copy()

    # the copy taken after the last epoch is the final state without the
    # step kernel, so the kernel's workspace is freed with ``params``
    checkpoint(last_good)
    return last_good, train_log
