"""Pose estimation network: temporal and distance-attention branches."""
from .loss import contact_term, position_terms, rotation_term, total_loss
from .model import PoseOutput, check_inputs, fusion_weights, infer, normalize_distances
from .params import CHECKPOINT_VERSION, PoseNetConfig, PoseNetParams, checkpoint_body, init_params
from .train import TrainSettings, Windows, batch_loss, learning_rate_at, train

__all__ = [
    "CHECKPOINT_VERSION",
    "PoseNetConfig",
    "PoseNetParams",
    "PoseOutput",
    "TrainSettings",
    "Windows",
    "batch_loss",
    "check_inputs",
    "checkpoint_body",
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
