"""Evaluation metrics: orientation error, aligned position error, jitter.

The three pose metrics are pure functions over predicted and true
trajectories; `split_by_acceleration` aggregates per-clip numbers into
overall / slow / fast reports, with slow meaning mean acceleration
magnitude at or below 1.0 m/s^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, DataError
from .geometry import qangle, qconj, qmul, qnormalize, qrotate

# Global orientation error is reported over these four bones (the joint
# frame at the top of each upper arm and upper leg).
SIP_JOINTS = ("l_shoulder", "r_shoulder", "l_hip", "r_hip")

# Mean acceleration magnitude at or below this counts as slow motion.
SLOW_SPLIT_THRESHOLD = 1.0

# Central third differences need two frames on each side of a sample.
_JITTER_MARGIN = 4


@dataclass(frozen=True)
class MetricReport:
    """Aggregated metrics for one partition of an evaluation suite.

    distance_rmse_m holds one value per sensor pair (lexicographic i < j)
    when the run produced distance diagnostics, else None.
    """

    split: str
    sip_error_deg: float
    pos_error_cm: float
    jitter_km_s3: float
    distance_rmse_m: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.split not in ("overall", "slow", "fast"):
            raise ContractViolationError(f"unknown split tag {self.split!r}")
        values = [self.sip_error_deg, self.pos_error_cm, self.jitter_km_s3]
        if self.distance_rmse_m is not None:
            object.__setattr__(self, "distance_rmse_m", tuple(float(v) for v in self.distance_rmse_m))
            values += list(self.distance_rmse_m)
        for v in values:
            if not (math.isfinite(v) and v >= 0.0):
                raise ContractViolationError(f"metric value {v!r} not a non-negative number")

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "sip_error_deg": self.sip_error_deg,
            "pos_error_cm": self.pos_error_cm,
            "jitter_km_s3": self.jitter_km_s3,
            "distance_rmse_m": None if self.distance_rmse_m is None else list(self.distance_rmse_m),
        }


@dataclass(frozen=True)
class ClipMetrics:
    """Per-clip metric values plus the weights aggregation needs."""

    name: str
    mean_accel: float
    frames: int
    sip_error_deg: float
    pos_error_cm: float
    jitter_km_s3: float
    distance_rmse_m: tuple[float, ...] | None = None


def sip_error(
    pred: dict[str, np.ndarray], truth: dict[str, np.ndarray]
) -> float:
    """Mean global orientation error of the four SIP bones, in degrees.

    pred and truth map joint names to per-frame global orientations
    (T, 4); both must cover every SIP
    joint with equal frame counts.
    """
    angles = []
    for name in SIP_JOINTS:
        if name not in pred or name not in truth:
            raise ContractViolationError(f"missing SIP joint {name!r}")
        p, t = pred[name], truth[name]
        if len(p) != len(t) or len(p) == 0:
            raise ContractViolationError(
                f"joint {name!r}: {len(p)} predicted vs {len(t)} true frames"
            )
        angles.append(qangle(qmul(qconj(p), t)))
    return math.degrees(float(np.mean(np.concatenate(angles))))


def position_error(
    pred_pos: np.ndarray,
    pred_root_rot: np.ndarray,
    truth_pos: np.ndarray,
    truth_root_rot: np.ndarray,
    root: int = 0,
) -> float:
    """Mean joint distance in cm after per-frame rigid root alignment.

    Each frame the predicted skeleton is moved so its root position and
    orientation coincide with the truth, then distances are averaged over
    all joints. A prediction that is a rigid transform of the truth
    therefore scores zero.
    """
    pred_pos = np.asarray(pred_pos, dtype=float)
    truth_pos = np.asarray(truth_pos, dtype=float)
    if pred_pos.shape != truth_pos.shape or pred_pos.ndim != 3:
        raise ContractViolationError(
            f"position shapes differ: {pred_pos.shape} vs {truth_pos.shape}"
        )
    t_frames, n_joints = pred_pos.shape[:2]
    if not 0 <= root < n_joints:
        raise ContractViolationError(f"root index {root} outside 0..{n_joints - 1}")
    if len(pred_root_rot) != t_frames or len(truth_root_rot) != t_frames:
        raise ContractViolationError("root orientation count differs from frame count")
    align = qnormalize(qmul(truth_root_rot, qconj(pred_root_rot)))
    moved = qrotate(align[:, None], pred_pos - pred_pos[:, root : root + 1])
    gap = truth_pos[:, root : root + 1] + moved - truth_pos
    return 100.0 * float(np.sqrt((gap * gap).sum(axis=-1)).sum()) / (t_frames * n_joints)


def jitter(positions: np.ndarray, rate: float) -> float:
    """Mean jerk magnitude of joint trajectories, in km/s^3.

    Jerk comes from the central third difference
    (p[t+2] - 2 p[t+1] + 2 p[t-1] - p[t-2]) * rate^3 / 2,
    which is exact on cubic trajectories; edge frames without a full
    stencil are skipped, so at least five frames are needed.
    """
    p = np.asarray(positions, dtype=float)
    if p.ndim != 3 or p.shape[2] != 3:
        raise ContractViolationError(f"expected (frames, joints, 3), got {p.shape}")
    if rate <= 0.0:
        raise ContractViolationError(f"rate must be positive, got {rate}")
    if p.shape[0] <= _JITTER_MARGIN:
        raise DataError(
            f"jitter needs more than {_JITTER_MARGIN} frames, got {p.shape[0]}"
        )
    jerk = (p[4:] - 2.0 * p[3:-1] + 2.0 * p[1:-3] - p[:-4]) * (rate**3 / 2.0)
    return float(np.linalg.norm(jerk, axis=2).mean()) / 1000.0


def jitter_sample_count(frames: int) -> int:
    """How many interior frames contribute to the jitter mean."""
    return max(frames - _JITTER_MARGIN, 0)


def _weighted_mean(values: list[float], weights: list[float]) -> float:
    total = float(sum(weights))
    if total == 0.0:
        return 0.0
    return float(sum(v * w for v, w in zip(values, weights)) / total)


def _aggregate(split: str, clips: list[ClipMetrics]) -> MetricReport:
    frames = [float(c.frames) for c in clips]
    jitter_w = [float(jitter_sample_count(c.frames)) for c in clips]
    rmse = None
    if all(c.distance_rmse_m is not None for c in clips):
        per_pair = np.array([c.distance_rmse_m for c in clips])  # (clips, 15)
        w = np.array(frames)[:, None]
        rmse = tuple(np.sqrt((per_pair**2 * w).sum(axis=0) / w.sum()))
    return MetricReport(
        split=split,
        sip_error_deg=_weighted_mean([c.sip_error_deg for c in clips], frames),
        pos_error_cm=_weighted_mean([c.pos_error_cm for c in clips], frames),
        jitter_km_s3=_weighted_mean([c.jitter_km_s3 for c in clips], jitter_w),
        distance_rmse_m=rmse,
    )


def split_by_acceleration(
    clips: Sequence[ClipMetrics], threshold: float = SLOW_SPLIT_THRESHOLD
) -> dict[str, MetricReport]:
    """Frame-weighted reports per partition; empty partitions are absent.

    Clips at exactly the threshold count as slow. sip and position errors
    aggregate with frame weights, jitter with its interior sample counts,
    and distance RMSE pools as a frame-weighted root mean square.
    """
    groups = {
        "overall": list(clips),
        "slow": [c for c in clips if c.mean_accel <= threshold],
        "fast": [c for c in clips if c.mean_accel > threshold],
    }
    return {tag: _aggregate(tag, group) for tag, group in groups.items() if group}
