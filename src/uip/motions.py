"""Procedural motion clips for the simulator.

Every clip is sinusoid-plus-noise: deterministic parametric curves per
joint, smooth knot-interpolated noise on top, and a 2 s static T-pose
lead-in (used downstream for bias calibration and filter init) that
ramps into the motion. All randomness flows through the provided seed.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import Quaternion, Vec3
from .rng import derive_rng
from .skeleton import MotionClip, Skeleton, default_skeleton, validate_kind

MOTION_KINDS = (
    "walk",
    "squat",
    "arm-swing",
    "arm-swing-slow",
    "sit-stand",
    "sit-stand-slow",
    "reach",
    "idle",
)

LEAD_IN_S = 2.0
RAMP_S = 1.0

_AXES = {
    "x": Vec3(1.0, 0.0, 0.0),
    "y": Vec3(0.0, 1.0, 0.0),
    "z": Vec3(0.0, 0.0, 1.0),
}


def _smooth_noise(rng: np.random.Generator, n: int, rate: float, knot_s: float, sigma_deg: float) -> np.ndarray:
    """Low-frequency noise: Gaussian knots every knot_s seconds, cosine-blended."""
    n_knots = int(n / (rate * knot_s)) + 3
    knots = rng.normal(0.0, math.radians(sigma_deg), n_knots)
    pos = np.arange(n) / (rate * knot_s)
    i0 = np.floor(pos).astype(int)
    f = pos - i0
    s = 0.5 - 0.5 * np.cos(np.pi * f)
    return knots[i0] * (1.0 - s) + knots[i0 + 1] * s


def _ramp(n: int, rate: float, start: float = LEAD_IN_S) -> np.ndarray:
    """0 until `start` (the lead-in), smoothstep up to 1 over RAMP_S, then 1."""
    t = np.arange(n) / rate
    u = np.clip((t - start) / RAMP_S, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _build_clip(
    name: str,
    kind: str,
    skel: Skeleton,
    rate: float,
    channels: dict[str, list[tuple[str, np.ndarray]]],
    root_xyz: np.ndarray,
    meta: dict,
) -> MotionClip:
    n = root_xyz.shape[0]
    name_to_idx = {j.name: i for i, j in enumerate(skel.joints)}
    idq = Quaternion.identity()
    frames: list[list[Quaternion]] = []
    # precompose per-joint quaternions frame by frame
    per_joint: list[tuple[int, list[tuple[Vec3, np.ndarray]]]] = []
    for jname, parts in channels.items():
        per_joint.append((name_to_idx[jname], [(_AXES[ax], arr) for ax, arr in parts]))
    for t in range(n):
        row = [idq] * skel.n_joints
        for jidx, parts in per_joint:
            q = None
            for axis, arr in parts:
                r = Quaternion.from_axis_angle(axis, float(arr[t]))
                q = r if q is None else q * r
            row[jidx] = q.normalized()
        frames.append(row)
    root = [Vec3(float(p[0]), float(p[1]), float(p[2])) for p in root_xyz]
    return MotionClip(name=name, kind=kind, rate=rate, local_rot=frames, root_pos=root, meta=meta)


def _standing_root(skel: Skeleton, n: int) -> np.ndarray:
    z0 = 0.96 * skel.body_height / 1.70
    root = np.zeros((n, 3))
    root[:, 2] = z0
    return root


def _generate_one(
    kind: str, name: str, seed: int, index: int, skel: Skeleton, duration: float, rate: float
) -> MotionClip:
    rng = derive_rng(seed, "motion", kind, index)
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    env = _ramp(n, rate)
    root = _standing_root(skel, n)
    ch: dict[str, list[tuple[str, np.ndarray]]] = {}

    def noisy(sigma_deg: float, knot_s: float = 0.5, envelope: np.ndarray = env) -> np.ndarray:
        return _smooth_noise(rng, n, rate, knot_s, sigma_deg) * envelope

    phase = rng.uniform(0.0, 2.0 * np.pi)

    if kind == "walk":
        f = 0.95 + rng.uniform(-0.05, 0.05)
        w = 2.0 * np.pi * f
        swing = np.sin(w * t + phase)
        swing_opp = np.sin(w * t + phase + np.pi)
        speed = (0.95 + rng.uniform(-0.1, 0.1)) * env
        root[:, 0] = np.cumsum(speed) / rate
        root[:, 2] += 0.025 * np.sin(2.0 * w * t + 2.0 * phase) * env
        root[:, 1] += 0.015 * np.sin(w * t + phase) * env
        hip = math.radians(24.0)
        knee = math.radians(32.0)
        ch["l_hip"] = [("y", hip * swing * env + noisy(1.2))]
        ch["r_hip"] = [("y", hip * swing_opp * env + noisy(1.2))]
        ch["l_knee"] = [("y", knee * (0.5 - 0.5 * np.cos(w * t + phase)) * env + noisy(1.0))]
        ch["r_knee"] = [("y", knee * (0.5 - 0.5 * np.cos(w * t + phase + np.pi)) * env + noisy(1.0))]
        ch["l_ankle"] = [("y", math.radians(-8.0) * swing * env + noisy(0.8))]
        ch["r_ankle"] = [("y", math.radians(-8.0) * swing_opp * env + noisy(0.8))]
        # swing listed first: it acts in the parent frame on the already
        # hung arm (a y-rotation after the hang would just twist the bone)
        hang = math.radians(75.0)
        arm = math.radians(18.0)
        ch["l_shoulder"] = [("y", arm * swing_opp * env + noisy(1.2)), ("x", -hang * env + noisy(1.0))]
        ch["r_shoulder"] = [("y", arm * swing * env + noisy(1.2)), ("x", hang * env + noisy(1.0))]
        ch["l_elbow"] = [("z", -(math.radians(15.0) + math.radians(8.0) * swing_opp) * env + noisy(1.0))]
        ch["r_elbow"] = [("z", (math.radians(15.0) + math.radians(8.0) * swing) * env + noisy(1.0))]
        ch["spine"] = [("z", math.radians(4.0) * swing * env + noisy(0.6)), ("y", math.radians(3.0) * env)]
        ch["head"] = [("z", math.radians(-2.0) * swing * env + noisy(0.5))]

    elif kind == "squat":
        f = 0.55 + rng.uniform(-0.04, 0.04)
        w = 2.0 * np.pi * f
        d = (0.5 - 0.5 * np.cos(w * t + 0.0)) * env  # 0..1 squat depth
        root[:, 2] -= 0.32 * d
        root[:, 0] -= 0.05 * d
        ch["l_hip"] = [("y", -math.radians(75.0) * d + noisy(1.0))]
        ch["r_hip"] = [("y", -math.radians(75.0) * d + noisy(1.0))]
        ch["l_knee"] = [("y", math.radians(95.0) * d + noisy(1.0))]
        ch["r_knee"] = [("y", math.radians(95.0) * d + noisy(1.0))]
        ch["l_ankle"] = [("y", -math.radians(18.0) * d + noisy(0.8))]
        ch["r_ankle"] = [("y", -math.radians(18.0) * d + noisy(0.8))]
        ch["spine"] = [("y", math.radians(16.0) * d + noisy(0.8))]
        ch["l_shoulder"] = [("x", -math.radians(60.0) * env + noisy(1.0)), ("z", -math.radians(55.0) * d + noisy(1.0))]
        ch["r_shoulder"] = [("x", math.radians(60.0) * env + noisy(1.0)), ("z", math.radians(55.0) * d + noisy(1.0))]
        ch["l_elbow"] = [("z", -math.radians(10.0) * d + noisy(0.8))]
        ch["r_elbow"] = [("z", math.radians(10.0) * d + noisy(0.8))]

    elif kind in ("arm-swing", "arm-swing-slow"):
        slow = kind.endswith("slow")
        f = (0.22 if slow else 0.8) * (1.0 + rng.uniform(-0.08, 0.08))
        amp = math.radians(20.0 if slow else 38.0)
        w = 2.0 * np.pi * f
        swing = np.sin(w * t + phase)
        hang = math.radians(70.0)
        ch["l_shoulder"] = [("y", amp * swing * env + noisy(1.0)), ("x", -hang * env + noisy(0.8))]
        ch["r_shoulder"] = [("y", -amp * swing * env + noisy(1.0)), ("x", hang * env + noisy(0.8))]
        ch["l_elbow"] = [("z", -math.radians(12.0) * env + noisy(0.8))]
        ch["r_elbow"] = [("z", math.radians(12.0) * env + noisy(0.8))]
        ch["spine"] = [("z", math.radians(3.0 if not slow else 1.5) * swing * env + noisy(0.5))]
        ch["l_hip"] = [("y", noisy(0.5, 0.8))]
        ch["r_hip"] = [("y", noisy(0.5, 0.8))]

    elif kind in ("sit-stand", "sit-stand-slow"):
        slow = kind.endswith("slow")
        f = (0.12 if slow else 0.22) * (1.0 + rng.uniform(-0.06, 0.06))
        w = 2.0 * np.pi * f
        d = (0.5 - 0.5 * np.cos(w * t)) * env
        root[:, 2] -= 0.32 * d
        root[:, 0] -= 0.08 * d
        ch["l_hip"] = [("y", -math.radians(85.0) * d + noisy(0.8))]
        ch["r_hip"] = [("y", -math.radians(85.0) * d + noisy(0.8))]
        ch["l_knee"] = [("y", math.radians(88.0) * d + noisy(0.8))]
        ch["r_knee"] = [("y", math.radians(88.0) * d + noisy(0.8))]
        ch["spine"] = [("y", math.radians(18.0) * np.sin(np.pi * d) + noisy(0.6))]
        ch["l_shoulder"] = [("x", -math.radians(65.0) * env + noisy(0.8)), ("z", -math.radians(25.0) * d + noisy(0.8))]
        ch["r_shoulder"] = [("x", math.radians(65.0) * env + noisy(0.8)), ("z", math.radians(25.0) * d + noisy(0.8))]

    elif kind == "reach":
        # Slow free reaching. Unlike the phase-locked kinds, every arm
        # channel wanders independently: shoulder y/x/z plus elbow z is
        # four joint degrees of freedom against the three the wrist
        # orientation observes, so a one-parameter arm-fold family is
        # invisible to the wrist IMU and only the wrist's position (the
        # inter-sensor distances) pins it down. Each arm leaves the T-pose
        # on its own schedule, one in the first tenth of the motion and the
        # other 40-60% into it, so no shared descent locks the arms together.
        hang = math.radians(55.0)
        span = n / rate - LEAD_IN_S
        start_l, start_r = LEAD_IN_S + span * rng.permutation(rng.uniform((0.0, 0.4), (0.1, 0.6)))
        env_l, env_r = _ramp(n, rate, start_l), _ramp(n, rate, start_r)
        ch["l_shoulder"] = [
            ("y", noisy(14.0, 2.2, env_l)),
            ("x", -hang * env_l + noisy(12.0, 2.0, env_l)),
            ("z", noisy(12.0, 2.6, env_l)),
        ]
        ch["r_shoulder"] = [
            ("y", noisy(14.0, 2.5, env_r)),
            ("x", hang * env_r + noisy(12.0, 2.3, env_r)),
            ("z", noisy(12.0, 1.9, env_r)),
        ]
        ch["l_elbow"] = [("z", -math.radians(35.0) * env_l + noisy(12.0, 2.1, env_l))]
        ch["r_elbow"] = [("z", math.radians(35.0) * env_r + noisy(12.0, 2.4, env_r))]
        ch["spine"] = [("y", noisy(1.5, 2.0)), ("z", noisy(1.2, 2.4))]
        ch["l_hip"] = [("y", noisy(0.8, 1.6))]
        ch["r_hip"] = [("y", noisy(0.8, 1.9))]
        ch["head"] = [("z", noisy(1.0, 1.8))]

    elif kind == "idle":
        sway = math.radians(0.4) * np.sin(2.0 * np.pi * 0.1 * t + phase) * env
        ch["spine"] = [("x", sway + noisy(0.4, 1.0)), ("y", noisy(0.4, 1.0))]
        ch["l_shoulder"] = [("x", -math.radians(72.0) * env + noisy(0.5, 1.0))]
        ch["r_shoulder"] = [("x", math.radians(72.0) * env + noisy(0.5, 1.0))]
        ch["l_hip"] = [("y", noisy(0.4, 1.0))]
        ch["r_hip"] = [("y", noisy(0.4, 1.0))]
        ch["head"] = [("z", noisy(0.4, 1.2))]

    else:
        validate_kind(kind, MOTION_KINDS)

    meta = {"kind": kind, "seed": seed, "index": index}
    return _build_clip(name, kind, skel, rate, ch, root, meta)


def generate_motion_suite(
    seed: int,
    catalog: list[str] | tuple[str, ...],
    duration_s: float = 10.0,
    rate: float = 100.0,
    skel: Skeleton | None = None,
) -> list[MotionClip]:
    """Deterministic clip list, one per catalog entry (kinds may repeat)."""
    if skel is None:
        skel = default_skeleton()
    for kind in catalog:
        validate_kind(kind, MOTION_KINDS)
    clips = []
    for i, kind in enumerate(catalog):
        name = f"clip_{i:03d}_{kind.replace('-', '_')}"
        clips.append(_generate_one(kind, name, seed, i, skel, duration_s, rate))
    return clips
