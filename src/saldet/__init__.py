"""Saliency-guided weakly supervised object detection at desk scale.

Seeds are selected per labeled class by contrasting a proposal's mean
saliency against its superpixel neighborhood; a two-stream head with a
saliency sub-network is trained from image-level labels plus those
seeds; evaluation reports detection AP, CorLoc, and classification AP
on deterministic synthetic datasets.
"""

from .core import (
    Box,
    ImageRecord,
    LabelVector,
    Proposal,
    SaliencyMap,
    SuperpixelGrid,
    iou,
    proposal_from_superpixels,
)
from .dataio import (
    DatasetError,
    DatasetManifest,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .evaluate import (
    DetectionTable,
    EvalReport,
    classification_ap,
    corloc,
    detection_ap,
    evaluate,
    nms,
    score_dataset,
)
from .model import (
    ForwardTrace,
    GradCheckReport,
    LossBreakdown,
    ModelConfig,
    ModelParams,
    ParamLayout,
    backward,
    forward,
    image_classification_loss,
    init_params,
    load_checkpoint,
    loss_and_grads,
    run_gradient_check,
    save_checkpoint,
    seed_classification_loss,
    seed_saliency_loss,
    step_losses,
)
from .seeds import (
    SeedAssignment,
    make_assignment,
    proposal_scores,
    saliency_contrast,
    select_negatives,
    select_seeds,
    threshold_baseline,
)
from .trainer import (
    TrainConfig,
    TrainLog,
    TrainingDivergedError,
    precompute_assignments,
    sgd_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "DatasetError",
    "DatasetManifest",
    "DetectionTable",
    "EvalReport",
    "ForwardTrace",
    "GradCheckReport",
    "ImageRecord",
    "LabelVector",
    "LossBreakdown",
    "ModelConfig",
    "ModelParams",
    "ParamLayout",
    "Proposal",
    "SaliencyMap",
    "SeedAssignment",
    "SuperpixelGrid",
    "SynthConfig",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "backward",
    "classification_ap",
    "corloc",
    "detection_ap",
    "evaluate",
    "forward",
    "generate_synthetic",
    "image_classification_loss",
    "init_params",
    "iou",
    "load_checkpoint",
    "load_dataset",
    "loss_and_grads",
    "make_assignment",
    "nms",
    "precompute_assignments",
    "proposal_from_superpixels",
    "proposal_scores",
    "run_gradient_check",
    "saliency_contrast",
    "save_checkpoint",
    "save_dataset",
    "score_dataset",
    "seed_classification_loss",
    "seed_saliency_loss",
    "select_negatives",
    "select_seeds",
    "sgd_step",
    "step_losses",
    "threshold_baseline",
    "train",
]
