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
from .geometry import GRAVITY_REACTION, Quaternion, Vec3, qangle, qconj, qmul, qnormalize, qrotate, qrotvec, quat_rotate

DT = 0.01  # 100 Hz sample grid used throughout


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
    accel_bias: Vec3 = field(default_factory=Vec3.zero)
    gyro_bias: Vec3 = field(default_factory=Vec3.zero)

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
        ab = Vec3.from_array(rng.normal(0.0, accel_bias_sigma, 3))
        gb = Vec3.from_array(rng.normal(0.0, gyro_bias_sigma, 3))
        return ImuNoiseModel(accel_sigma, gyro_sigma, ab, gb)


def synthesize_accel(positions: np.ndarray, n: int = 4, dt: float = DT) -> np.ndarray:
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

    orientations: (T, 4) array or sequence of Quaternion.
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
    n: int = 4,
    dt: float = DT,
) -> ImuStream:
    """Raw IMU stream for one sensor from its ground-truth trajectory.

    positions: (T, 3); orientations: (T, 4) array or sequence of Quaternion.
    """
    t_len = positions.shape[0]
    world_acc = synthesize_accel(positions, n=n, dt=dt)
    accel = qrotate(qconj(orientations), world_acc + np.asarray(GRAVITY_REACTION))
    gyro = synthesize_gyro(orientations, dt=dt)
    accel += noise.accel_bias.to_array() + rng.normal(0.0, noise.accel_sigma, (t_len, 3))
    gyro += noise.gyro_bias.to_array() + rng.normal(0.0, noise.gyro_sigma, (t_len, 3))
    return ImuStream(t=np.arange(t_len) * dt, accel=accel, gyro=gyro)


def tpose_calibrate(
    stream: ImuStream,
    expected_orientation: Quaternion,
    max_gyro_std: float = 0.05,
) -> tuple[Vec3, Vec3]:
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
    gyro_off = Vec3.from_array(stream.gyro.mean(axis=0))
    expected = quat_rotate(expected_orientation.conjugate(), GRAVITY_REACTION)
    accel_off = Vec3.from_array(stream.accel.mean(axis=0) - expected.to_array())
    return gyro_off, accel_off


class ComplementaryFilter:
    """Gyro integration with accelerometer tilt correction.

    Each step integrates the (bias-corrected) gyro, then, when the accel
    magnitude is inside the quasi-static gate, nudges the estimate about a
    horizontal axis by `gain` times the tilt discrepancy. Yaw is never
    corrected, so a yaw-rate bias shows up as linear heading drift. Any
    orientation estimator with this step interface can be swapped in.

    The default gain treats the accelerometer as a slow trim: during
    dynamic motion the in-gate accel direction is systematically off
    vertical, and a converged filter inherits that offset (a degree or
    two on gait), so the default keeps the correction time constant far
    beyond clip length. Raise the gain toward 1e-2 when gyro quality,
    not dynamic distortion, limits accuracy.
    """

    def __init__(
        self,
        init: Quaternion,
        gain: float = 5e-6,
        accel_gate: tuple[float, float] = (8.5, 11.0),
        dt: float = DT,
    ):
        if not 0.0 <= gain <= 1.0:
            raise ContractViolationError(f"gain {gain} outside [0, 1]")
        self.q = init.normalized()
        self.gain = gain
        self.accel_gate = accel_gate
        self.dt = dt

    def step(self, accel: Vec3, gyro: Vec3) -> tuple[Quaternion, Vec3]:
        """One sample -> (orientation, gravity-free world acceleration)."""
        q = self.q * Quaternion.from_rotvec(gyro.scaled(self.dt))
        q = q.normalized()
        a_norm = accel.norm()
        lo, hi = self.accel_gate
        if lo < a_norm < hi:
            up_meas = quat_rotate(q, accel).scaled(1.0 / a_norm)
            axis = up_meas.cross(Vec3(0.0, 0.0, 1.0))
            axis_n = axis.norm()
            if axis_n > 1e-12:
                # axis is horizontal by construction, so yaw stays untouched
                angle = math.atan2(axis_n, up_meas.z)
                corr = Quaternion.from_rotvec(axis.scaled(self.gain * angle / axis_n))
                q = (corr * q).normalized()
        self.q = q
        a_world = quat_rotate(q, accel)
        return q, Vec3(a_world.x, a_world.y, a_world.z - GRAVITY_REACTION.z)


def orientation_filter(
    stream: ImuStream,
    init: Quaternion,
    gain: float = 5e-6,
    gyro_offset: Vec3 | None = None,
    accel_offset: Vec3 | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the complementary filter over a raw stream, offsets removed first.

    Returns per-sample orientations (T, 4) and gravity-free world
    accelerations (T, 3).
    """
    accel = (stream.accel - np.asarray(accel_offset or Vec3.zero())).tolist()
    # gyro[i] spans the interval [t_i, t_i + dt], so it belongs to the
    # i+1 estimate; the first estimate integrates nothing.
    gyro = [[0.0, 0.0, 0.0]] + (stream.gyro[:-1] - np.asarray(gyro_offset or Vec3.zero())).tolist()
    dt = float(stream.t[1] - stream.t[0]) if len(stream) > 1 else DT
    filt = ComplementaryFilter(init, gain=gain, dt=dt)
    quats, accel_world = np.zeros((len(stream), 4)), np.zeros((len(stream), 3))
    for k, (a, g) in enumerate(zip(accel, gyro)):
        quats[k], accel_world[k] = filt.step(Vec3(*a), Vec3(*g))
    return quats, accel_world
