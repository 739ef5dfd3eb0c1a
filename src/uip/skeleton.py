"""Articulated body model: skeleton tree, forward kinematics, sensors, capsules.

The body is a 15-joint tree (pelvis root, spine, head, and per side
shoulder/elbow/wrist plus hip/knee/ankle) posed by per-joint local
rotations and a root translation. Six sensors are rigidly mounted:
pelvis (index 0), left/right wrist, left/right knee, head (index 5).
Body volume for line-of-sight tests is a set of capsules stretched
between joint pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolationError
from .geometry import qangle, qconj, qfrom_axis_angle, qmul, qnormalize, qrotate

PELVIS_SENSOR = 0
L_WRIST_SENSOR = 1
R_WRIST_SENSOR = 2
L_KNEE_SENSOR = 3
R_KNEE_SENSOR = 4
HEAD_SENSOR = 5
N_SENSORS = 6
# The 15 unordered sensor pairs i < j in lexicographic order: pair p joins
# sensors PAIR_I[p] and PAIR_J[p]. Every per-pair array uses this order.
PAIR_I, PAIR_J = np.triu_indices(N_SENSORS, 1)
PAIR_I.flags.writeable = PAIR_J.flags.writeable = False

SENSOR_NAMES = ("pelvis", "l_wrist", "r_wrist", "l_knee", "r_knee", "head")


@dataclass(frozen=True, slots=True)
class Joint:
    name: str
    parent: int  # -1 for root
    offset: tuple[float, float, float]  # from parent, in the parent frame


@dataclass(frozen=True, slots=True)
class Capsule:
    """Body segment volume: a sphere of the given radius swept from joint j0 to j1."""

    j0: int
    j1: int
    radius: float


@dataclass(frozen=True)
class Skeleton:
    joints: tuple[Joint, ...]
    capsules: tuple[Capsule, ...]
    body_height: float

    def __post_init__(self):
        if not 1.5 <= self.body_height <= 2.0:
            raise ContractViolationError(f"body height {self.body_height} outside [1.5, 2.0] m")
        if self.joints[0].parent != -1:
            raise ContractViolationError("joint 0 must be the root")
        for i, j in enumerate(self.joints[1:], start=1):
            if not 0 <= j.parent < i:
                raise ContractViolationError(f"joint {i} parent {j.parent} breaks tree order")

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    def joint_index(self, name: str) -> int:
        for i, j in enumerate(self.joints):
            if j.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True, slots=True)
class SensorMount:
    joint: int
    offset: tuple[float, float, float]  # in the joint frame
    rotation: tuple[float, float, float, float]  # sensor frame relative to the joint frame


@dataclass(frozen=True)
class SensorPlacement:
    mounts: tuple[SensorMount, ...]

    def __post_init__(self):
        if len(self.mounts) != N_SENSORS:
            raise ContractViolationError(f"expected {N_SENSORS} sensor mounts")


@dataclass
class MotionClip:
    """Posed motion at a fixed frame rate: per-frame local rotations + root path."""

    name: str
    kind: str
    rate: float  # Hz
    local_rot: np.ndarray  # (T, J, 4)
    root_pos: np.ndarray  # (T, 3)
    meta: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return len(self.local_rot)

    @property
    def duration(self) -> float:
        return self.n_frames / self.rate


def default_skeleton(height: float = 1.70) -> Skeleton:
    """Symmetric adult skeleton scaled uniformly to the given standing height."""
    s = height / 1.70
    j = [
        Joint("pelvis", -1, (0.0, 0.0, 0.0)),
        Joint("spine", 0, (0.0, 0.0, 0.26 * s)),
        Joint("head", 1, (0.0, 0.0, 0.31 * s)),
        Joint("l_shoulder", 1, (0.0, 0.19 * s, 0.17 * s)),
        Joint("l_elbow", 3, (0.0, 0.28 * s, 0.0)),
        Joint("l_wrist", 4, (0.0, 0.26 * s, 0.0)),
        Joint("r_shoulder", 1, (0.0, -0.19 * s, 0.17 * s)),
        Joint("r_elbow", 6, (0.0, -0.28 * s, 0.0)),
        Joint("r_wrist", 7, (0.0, -0.26 * s, 0.0)),
        Joint("l_hip", 0, (0.0, 0.095 * s, -0.06 * s)),
        Joint("l_knee", 9, (0.0, 0.0, -0.42 * s)),
        Joint("l_ankle", 10, (0.0, 0.0, -0.41 * s)),
        Joint("r_hip", 0, (0.0, -0.095 * s, -0.06 * s)),
        Joint("r_knee", 12, (0.0, 0.0, -0.42 * s)),
        Joint("r_ankle", 13, (0.0, 0.0, -0.41 * s)),
    ]
    caps = [
        Capsule(0, 1, 0.13 * s),  # lower torso
        Capsule(1, 2, 0.10 * s),  # chest + neck
        Capsule(2, 2, 0.11 * s),  # head (sphere)
        Capsule(3, 4, 0.045 * s),  # upper arms
        Capsule(6, 7, 0.045 * s),
        Capsule(4, 5, 0.04 * s),  # forearms
        Capsule(7, 8, 0.04 * s),
        Capsule(9, 10, 0.075 * s),  # thighs
        Capsule(12, 13, 0.075 * s),
        Capsule(10, 11, 0.055 * s),  # shins
        Capsule(13, 14, 0.055 * s),
    ]
    return Skeleton(tuple(j), tuple(caps), height)


def default_placement(skel: Skeleton) -> SensorPlacement:
    """Standard six-sensor strap-down placement on the default skeleton."""
    yaw180 = tuple(qfrom_axis_angle((0.0, 0.0, 1.0), np.pi).tolist())
    tilt = tuple(qfrom_axis_angle((0.0, 1.0, 0.0), 0.25).tolist())
    level = (1.0, 0.0, 0.0, 0.0)
    mounts = (
        SensorMount(skel.joint_index("pelvis"), (-0.11, 0.0, 0.03), yaw180),
        SensorMount(skel.joint_index("l_wrist"), (0.0, 0.02, 0.035), level),
        SensorMount(skel.joint_index("r_wrist"), (0.0, -0.02, 0.035), level),
        SensorMount(skel.joint_index("l_knee"), (0.06, 0.0, -0.06), tilt),
        SensorMount(skel.joint_index("r_knee"), (0.06, 0.0, -0.06), tilt),
        SensorMount(skel.joint_index("head"), (-0.09, 0.0, 0.05), yaw180),
    )
    return SensorPlacement(mounts)


def fk_batch(skel: Skeleton, local_rot, root_pos) -> tuple[np.ndarray, np.ndarray]:
    """Global joint positions (..., J, 3) and orientations (..., J, 4).

    local_rot is (..., J, 4) and root_pos (..., 3), one row per posed
    frame. Child global orientation composes the parent global with the
    child local; child position adds the parent-rotated offset.
    """
    local_rot = np.asarray(local_rot, dtype=float)
    n = skel.n_joints
    if local_rot.shape[-2:] != (n, 4):
        raise ContractViolationError(f"expected {n} local rotations, got shape {local_rot.shape}")
    rot = np.empty_like(local_rot)
    pos = np.empty(local_rot.shape[:-1] + (3,))
    rot[..., 0, :] = local_rot[..., 0, :]
    pos[..., 0, :] = root_pos
    for i, joint in enumerate(skel.joints[1:], start=1):
        p = joint.parent
        rot[..., i, :] = qnormalize(qmul(rot[..., p, :], local_rot[..., i, :]))
        pos[..., i, :] = pos[..., p, :] + qrotate(rot[..., p, :], joint.offset)
    return pos, rot


def mount_poses(mounts, joint_pos, joint_rot) -> tuple[np.ndarray, np.ndarray]:
    """World positions (..., M, 3) and orientations (..., M, 4) of sensor mounts.

    joint_pos (..., J, 3) and joint_rot (..., J, 4) are posed frames from FK.
    """
    joints = [m.joint for m in mounts]
    rot = np.asarray(joint_rot, dtype=float)[..., joints, :]
    pos = np.asarray(joint_pos, dtype=float)[..., joints, :] + qrotate(rot, [m.offset for m in mounts])
    return pos, qnormalize(qmul(rot, [m.rotation for m in mounts]))


def tpose(skel: Skeleton) -> tuple[np.ndarray, np.ndarray]:
    """The calibration pose: identity rotations, root at standing height -> (J, 3), (J, 4)."""
    local = np.zeros((skel.n_joints, 4))
    local[:, 0] = 1.0
    return fk_batch(skel, local, (0.0, 0.0, 0.96 * skel.body_height / 1.70))


def world_capsules(skel: Skeleton, joint_pos) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Capsule endpoints in world coordinates for a posed frame."""
    jp = np.asarray(joint_pos, dtype=float)
    return [(jp[c.j0], jp[c.j1], c.radius) for c in skel.capsules]


def sensor_exclusions(skel: Skeleton, placement: SensorPlacement) -> np.ndarray:
    """(6, C) mask of the capsules each sensor's occlusion tests ignore: its mounting segments."""
    return np.array([[m.joint in (c.j0, c.j1) for c in skel.capsules] for m in placement.mounts])


def _occluded_share(capsules, p_i, p_j, skip, resolution: int) -> np.ndarray:
    """Per sight line, the share of its samples inside any capsule it does not skip.

    capsules are world_capsules' (c0, c1, radius) triples; p_i, p_j (P, 3)
    are the sight-line ends and skip (P, C) marks each line's excluded
    capsules. Works on (3, P, resolution, C) temporaries: one frame's
    sight lines, never a clip's.
    """
    if resolution < 32:
        raise ContractViolationError(f"occlusion resolution {resolution} < 32")
    c0, c1, radius = (np.array(col, dtype=float) for col in zip(*capsules))
    k = np.arange(resolution)
    w2 = (k + 0.5) / resolution
    w1 = (resolution - k - 0.5) / resolution
    # component-first, so each op runs on whole (P, S, C) planes: sample
    # points (3, P, S, 1) against capsule axes (3, 1, 1, C)
    points = np.moveaxis(w1[:, None] * p_i[:, None, :] + w2[:, None] * p_j[:, None, :], -1, 0)[..., None]
    c0, d = c0.T[:, None, None, :], (c1 - c0).T[:, None, None, :]
    rel = points - c0
    len2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    # a zero-length capsule is a sphere: t = 0 puts the foot point at c0
    t = np.clip((rel[0] * d[0] + rel[1] * d[1] + rel[2] * d[2]) / np.where(len2 == 0.0, 1.0, len2), 0.0, 1.0)
    gap = points - (c0 + t * d)
    inside = (np.sqrt(gap[0] * gap[0] + gap[1] * gap[1] + gap[2] * gap[2]) <= radius) & ~skip[:, None, :]
    share = inside.any(axis=-1).sum(axis=-1) / resolution
    too_short = np.sqrt(((p_j - p_i) ** 2).sum(axis=-1)) < 1e-3
    return np.where(too_short, 0.0, share)


def occlusion_ratio(
    capsules: list[tuple[np.ndarray, np.ndarray, float]],
    p_i: np.ndarray,
    p_j: np.ndarray,
    resolution: int = 64,
    exclude: tuple[int, ...] = (),
) -> float:
    """Fraction of the sight line between two points that runs inside the body.

    Samples `resolution` midpoints along the segment and counts those inside
    any capsule not listed in `exclude` (the two mounting segments). Segments
    shorter than 1 mm return 0. The sample weights are built symmetrically,
    so swapping the endpoints gives the bitwise-identical answer.
    """
    p_i, p_j = (np.asarray(p, dtype=float)[None] for p in (p_i, p_j))
    skip = np.isin(np.arange(len(capsules)), exclude)[None]
    return float(_occluded_share(capsules, p_i, p_j, skip, resolution)[0])


def pairwise_occlusion(
    skel: Skeleton,
    placement: SensorPlacement,
    joint_pos,
    sensor_pos: np.ndarray,
    resolution: int = 64,
) -> np.ndarray:
    """Occlusion ratio for all 15 sensor pairs of a posed frame -> (6, 6) symmetric."""
    sp = np.asarray(sensor_pos, dtype=float)
    mounted = sensor_exclusions(skel, placement)
    out = np.zeros((N_SENSORS, N_SENSORS))
    out[PAIR_I, PAIR_J] = out[PAIR_J, PAIR_I] = _occluded_share(
        world_capsules(skel, joint_pos), sp[PAIR_I], sp[PAIR_J], mounted[PAIR_I] | mounted[PAIR_J], resolution
    )
    return out


def check_continuity(clip: MotionClip, max_step_deg: float = 20.0) -> None:
    """Raise if any joint rotates more than max_step_deg between frames."""
    q = np.asarray(clip.local_rot, dtype=float)
    step = qangle(qnormalize(qmul(qconj(q[:-1]), q[1:])))
    jumps = np.argwhere(step > np.deg2rad(max_step_deg))
    if jumps.size:
        t, j = jumps[0]
        raise ContractViolationError(
            f"clip {clip.name}: joint {j} jumps {np.rad2deg(step[t, j]):.1f} deg at frame {t + 1}"
        )


def validate_kind(kind: str, known: tuple[str, ...]) -> None:
    if kind not in known:
        raise ConfigError(f"unknown motion kind '{kind}' (known: {', '.join(known)})")
