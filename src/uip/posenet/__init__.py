"""Pose estimation network: temporal and distance-attention branches."""
from .loss import contact_term, position_terms, rotation_term, total_loss
from .model import ModelInput, PoseOutput, fusion_weights, infer, normalize_distances
from .params import CHECKPOINT_VERSION, PoseNetConfig, PoseNetParams, init_params
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
    "fusion_weights",
    "infer",
    "init_params",
    "learning_rate_at",
    "normalize_distances",
    "position_terms",
    "rotation_term",
    "total_loss",
    "train",
]
