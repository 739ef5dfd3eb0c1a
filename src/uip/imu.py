"""IMU synthesis from ground truth, bias calibration, orientation filtering.

Accelerometers report specific force: world acceleration plus the +g
reaction, rotated into the sensor frame (a stationary, level sensor reads
(0, 0, +9.81)). Gyroscopes report body-frame angular velocity. Synthetic
streams add constant per-axis biases and white Gaussian noise on top of
the exact signals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ContractViolationError
from .geometry import GRAVITY_MAGNITUDE, GRAVITY_REACTION, atan2, qangle, qconj, qfrom_rotvec, qmul, qnormalize, qrotate, qrotvec, vcross

DT = 0.01  # 100 Hz sample grid used throughout
# Default stride n of synthesize_accel: its central difference spans 2 n + 1 samples.
ACCEL_STRIDE = 4


@dataclass
class ImuStream:
    """Columnar raw IMU stream at a fixed rate."""

    t: np.ndarray  # (T,)
    accel: np.ndarray  # (T, 3)
    gyro: np.ndarray  # (T, 3)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class ImuNoiseModel:
    """White noise sigmas plus constant per-axis biases."""

    accel_sigma: float = 0.08
    gyro_sigma: float = 0.006
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.accel_sigma < 0 or self.gyro_sigma < 0:
            raise ContractViolationError("noise sigmas must be non-negative")

    @staticmethod
    def sampled(
        rng: np.random.Generator,
        accel_sigma: float,
        gyro_sigma: float,
        accel_bias_sigma: float,
        gyro_bias_sigma: float,
    ) -> "ImuNoiseModel":
        ab = rng.normal(0.0, accel_bias_sigma, 3)
        gb = rng.normal(0.0, gyro_bias_sigma, 3)
        return ImuNoiseModel(accel_sigma, gyro_sigma, ab, gb)


def synthesize_accel(positions: np.ndarray, n: int = ACCEL_STRIDE, dt: float = DT) -> np.ndarray:
    """World-frame acceleration by stride-n central second difference.

    a_t = (p_{t+n} - 2 p_t + p_{t-n}) / (n dt)^2, exact on quadratics.
    The first and last n samples replicate the nearest interior value.
    """
    positions = np.asarray(positions, dtype=float)
    t_len = positions.shape[0]
    if n < 1:
        raise ContractViolationError(f"stride n must be >= 1, got {n}")
    if t_len < 2 * n + 1:
        raise ContractViolationError(f"need at least {2 * n + 1} samples for stride {n}")
    acc = np.empty_like(positions)
    denom = (n * dt) ** 2
    acc[n : t_len - n] = (positions[2 * n :] - 2.0 * positions[n : t_len - n] + positions[: t_len - 2 * n]) / denom
    acc[:n] = acc[n]
    acc[t_len - n :] = acc[t_len - n - 1]
    return acc


def synthesize_gyro(orientations, dt: float = DT) -> np.ndarray:
    """Body-frame angular velocity from consecutive orientation pairs.

    orientations: (T, 4).
    omega_t = rotvec(q_t^-1 q_{t+1}) / dt; the last sample is replicated.
    Consecutive frames must stay within a 90 degree rotation of each other
    (antipodal pairs are a contract violation).
    """
    q = np.asarray(orientations, dtype=float).reshape(-1, 4)
    rel = qnormalize(qmul(qconj(q[:-1]), q[1:]))
    too_far = np.flatnonzero(qangle(rel) > 0.5 * math.pi)
    if too_far.size:
        raise ContractViolationError(
            f"orientation step at frame {too_far[0]} exceeds 90 degrees; stream too sparse"
        )
    out = np.zeros((q.shape[0], 3))
    out[:-1] = qrotvec(rel) / dt
    if q.shape[0] > 1:
        out[-1] = out[-2]
    return out


def synthesize_imu(
    positions: np.ndarray,
    orientations,
    noise: ImuNoiseModel,
    rng: np.random.Generator,
    n: int = ACCEL_STRIDE,
    dt: float = DT,
) -> ImuStream:
    """Raw IMU stream for one sensor from its ground-truth trajectory.

    positions: (T, 3); orientations: (T, 4).
    """
    t_len = positions.shape[0]
    world_acc = synthesize_accel(positions, n=n, dt=dt)
    accel = qrotate(qconj(orientations), world_acc + GRAVITY_REACTION)
    gyro = synthesize_gyro(orientations, dt=dt)
    accel += noise.accel_bias + rng.normal(0.0, noise.accel_sigma, (t_len, 3))
    gyro += noise.gyro_bias + rng.normal(0.0, noise.gyro_sigma, (t_len, 3))
    return ImuStream(t=np.arange(t_len) * dt, accel=accel, gyro=gyro)


def tpose_calibrate(
    stream: ImuStream,
    expected_orientation,
    max_gyro_std: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate (gyro_offset, accel_offset) from a stationary T-pose window.

    The stream must cover at least 1 s. Movement during the window (any
    gyro axis std above max_gyro_std rad/s) raises CalibrationError.
    The accel offset is measured against the gravity reaction seen at the
    known T-pose orientation.
    """
    if len(stream) < 2 or float(stream.t[-1] - stream.t[0]) < 1.0 - 1e-9:
        raise CalibrationError("calibration window shorter than 1 s")
    gyro_std = stream.gyro.std(axis=0)
    if np.any(gyro_std > max_gyro_std):
        raise CalibrationError(
            f"movement during T-pose calibration (gyro std {gyro_std.max():.4f} rad/s)"
        )
    expected = qrotate(qconj(expected_orientation), GRAVITY_REACTION)
    return stream.gyro.mean(axis=0), stream.accel.mean(axis=0) - expected


# Accelerometer magnitudes (m/s^2) inside this open interval are trusted as gravity.
ACCEL_GATE = (8.5, 11.0)


def orientation_filter(
    accel,
    gyro,
    init,
    gain: float = 5e-6,
    gyro_offset=0.0,
    accel_offset=0.0,
    dt: float = DT,
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary filter: gyro integration with accelerometer tilt correction.

    accel and gyro are raw samples (T, ..., 3) of any number of sensors,
    init (..., 4) their orientations at the first sample, and the offsets
    (..., 3) are removed first. Returns per-sample orientations
    (T, ..., 4) and gravity-free world accelerations (T, ..., 3).

    Each step integrates the gyro, then, for the sensors whose accel
    magnitude is inside ACCEL_GATE, nudges the estimate about a horizontal
    axis by `gain` times the tilt discrepancy. Yaw is never corrected, so
    a yaw-rate bias shows up as linear heading drift.

    The default gain treats the accelerometer as a slow trim: during
    dynamic motion the in-gate accel direction is systematically off
    vertical, and a converged filter inherits that offset (a degree or
    two on gait), so the default keeps the correction time constant far
    beyond clip length. Raise the gain toward 1e-2 when gyro quality,
    not dynamic distortion, limits accuracy.
    """
    if not 0.0 <= gain <= 1.0:
        raise ContractViolationError(f"gain {gain} outside [0, 1]")
    accel = np.asarray(accel, dtype=float) - accel_offset
    gyro = np.asarray(gyro, dtype=float) - gyro_offset
    # gyro[i] spans the interval [t_i, t_i + dt], so it belongs to the
    # i+1 estimate; the first estimate integrates nothing.
    steps = qfrom_rotvec(np.concatenate([np.zeros_like(gyro[:1]), gyro[:-1]]) * dt)
    ax, ay, az = np.moveaxis(accel, -1, 0)
    a_norm = np.sqrt(ax * ax + ay * ay + az * az)
    gated = (ACCEL_GATE[0] < a_norm) & (a_norm < ACCEL_GATE[1])
    quats = np.empty(steps.shape)
    q = qnormalize(np.broadcast_to(init, steps.shape[1:]))
    for k in range(steps.shape[0]):
        q = qnormalize(qmul(q, steps[k]))
        hit = gated[k]
        if hit.any():
            q[hit] = _tilt_correct(q[hit], accel[k][hit], a_norm[k][hit], gain)
        quats[k] = q
    world = qrotate(quats, accel)
    world[..., 2] -= GRAVITY_MAGNITUDE
    return quats, world


def _tilt_correct(q: np.ndarray, accel: np.ndarray, a_norm: np.ndarray, gain: float) -> np.ndarray:
    """Rotate (N, 4) estimates a gain share of the way to the tilt their accel (N, 3) measures."""
    up = qrotate(q, accel) * (1.0 / a_norm)[:, None]
    axis = vcross(up, (0.0, 0.0, 1.0))
    axis_n = np.sqrt(axis[:, 0] * axis[:, 0] + axis[:, 1] * axis[:, 1] + axis[:, 2] * axis[:, 2])
    tilted = axis_n > 1e-12
    # axis is horizontal by construction, so yaw stays untouched
    angle = atan2(axis_n, up[:, 2])
    corr = qfrom_rotvec(axis * (gain * angle / np.where(tilted, axis_n, 1.0))[:, None])
    return np.where(tilted[:, None], qnormalize(qmul(corr, q)), q)
