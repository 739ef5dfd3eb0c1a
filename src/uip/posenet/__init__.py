"""Pose estimation network: temporal and distance-attention branches."""
from .loss import contact_term, distance_aware_loss, position_terms, rotation_term, total_loss
from .model import (
    ModelInput,
    PoseOutput,
    dagcn_branch,
    dagcn_correlation,
    fuse_positions,
    fusion_weights,
    infer,
    lstm_branch,
    normalize_distances,
)
from .params import (
    CHECKPOINT_VERSION,
    PoseNetConfig,
    PoseNetParams,
    init_params,
    zero_params,
)
from .train import TrainSettings, TrainingWindow, batch_loss, learning_rate_at, train

__all__ = [
    "CHECKPOINT_VERSION",
    "ModelInput",
    "PoseNetConfig",
    "PoseNetParams",
    "PoseOutput",
    "TrainSettings",
    "TrainingWindow",
    "batch_loss",
    "contact_term",
    "dagcn_branch",
    "dagcn_correlation",
    "distance_aware_loss",
    "fuse_positions",
    "fusion_weights",
    "infer",
    "init_params",
    "learning_rate_at",
    "lstm_branch",
    "normalize_distances",
    "position_terms",
    "rotation_term",
    "total_loss",
    "train",
    "zero_params",
]
