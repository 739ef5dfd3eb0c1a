"""Articulated body model: skeleton tree, forward kinematics, sensors, capsules.

The body is a 15-joint tree (pelvis root, spine, head, and per side
shoulder/elbow/wrist plus hip/knee/ankle) posed by per-joint local
rotations and a root translation. Six sensors are rigidly mounted:
pelvis (index 0), left/right wrist (1, 2), left/right knee (3, 4), head (5).
Body volume for line-of-sight tests is a set of capsules stretched
between joint pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolationError
from .geometry import qfrom_axis_angle, qmul, qnormalize, qrotate

PELVIS_SENSOR = 0
HEAD_SENSOR = 5
N_SENSORS = 6
# The 15 unordered sensor pairs i < j in lexicographic order: pair p joins
# sensors PAIR_I[p] and PAIR_J[p]. Every per-pair array uses this order.
PAIR_I, PAIR_J = np.triu_indices(N_SENSORS, 1)
PAIR_I.flags.writeable = PAIR_J.flags.writeable = False


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


# Frames per occlusion pass: its temporaries stay this size whatever the clip length.
# Past 8, bigger blocks run no faster but raise the synth stage's peak memory.
OCCLUSION_BLOCK = 8
# Slack (m) on the culling test: far above the rounding of either distance, far below any radius.
CULL_MARGIN = 1e-9


def sensor_exclusions(skel: Skeleton, placement: SensorPlacement) -> np.ndarray:
    """(6, C) mask of the capsules each sensor's occlusion tests ignore: its mounting segments."""
    return np.array([[m.joint in (c.j0, c.j1) for c in skel.capsules] for m in placement.mounts])


def _dot(u, v):
    """Component-first dot product over the leading axis of length 3, summed x, y, z in order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _segment_distance(p, d1, q, d2) -> np.ndarray:
    """Least distance between segments p + s d1 and q + t d2, s, t in [0, 1].

    Component-first arrays (3, ...) that broadcast together. The closest
    points follow Ericson, Real-Time Collision Detection (2005), 5.1.9:
    solve the unclamped pair, clamp s, take the best t for it, and if t
    clamps, take the best s for that t. Zero-length segments are points.
    """
    r = p - q
    a, b, e = _dot(d1, d1), _dot(d1, d2), _dot(d2, d2)
    c, f = _dot(d1, r), _dot(d2, r)
    denom = a * e - b * b
    # parallel or degenerate segments (denom == 0) start from s = 0
    s = np.where(denom > 0.0, np.clip((b * f - c * e) / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0), 0.0)
    t_free = (b * s + f) / np.where(e == 0.0, 1.0, e)
    t = np.clip(t_free, 0.0, 1.0)
    # a point axis (e == 0) leaves t = 0 unclamped, but s still needs its projection
    redo = (t != t_free) | (e == 0.0)
    s = np.where(redo, np.clip((t * b - c) / np.where(a == 0.0, 1.0, a), 0.0, 1.0), s)
    gap = r + s * d1 - t * d2
    return np.sqrt(_dot(gap, gap))


def pairwise_occlusion(
    skel: Skeleton,
    placement: SensorPlacement,
    joint_pos,
    sensor_pos,
    resolution: int = 64,
) -> np.ndarray:
    """Occlusion ratio of all 15 sensor pairs, frame by frame -> (..., 6, 6) symmetric.

    joint_pos (..., J, 3) and sensor_pos (..., 6, 3) are posed frames, so
    every round of a clip goes in one call. A pair's ratio is the share of
    `resolution` evenly spaced samples of its sight line that fall inside
    any capsule neither sensor is mounted on; a sight line under 1 mm
    reads 0. Only (frame, pair, capsule) triples whose sight segment comes
    within radius + CULL_MARGIN of the capsule axis are sampled: a sample
    of any other triple lies farther out, so culling changes no sample.
    """
    if resolution < 32:
        raise ContractViolationError(f"occlusion resolution {resolution} < 32")
    jp, sp = np.asarray(joint_pos, dtype=float), np.asarray(sensor_pos, dtype=float)
    lead = np.broadcast_shapes(jp.shape[:-2], sp.shape[:-2])
    jp = np.broadcast_to(jp, lead + jp.shape[-2:]).reshape(-1, *jp.shape[-2:])
    sp = np.broadcast_to(sp, lead + sp.shape[-2:]).reshape(-1, N_SENSORS, 3)
    j0 = [c.j0 for c in skel.capsules]
    j1 = [c.j1 for c in skel.capsules]
    radius = np.array([c.radius for c in skel.capsules])
    mounted = sensor_exclusions(skel, placement)
    skip = mounted[PAIR_I] | mounted[PAIR_J]  # (P, C)
    k = np.arange(resolution)
    w2 = (k + 0.5) / resolution
    w1 = (resolution - k - 0.5) / resolution
    n_pairs = PAIR_I.size
    share = np.empty((sp.shape[0], n_pairs))
    for lo in range(0, sp.shape[0], OCCLUSION_BLOCK):
        block = slice(lo, lo + OCCLUSION_BLOCK)
        # component-first (3, B, P) sight-line ends and (3, B, C) capsule axes
        p_i, p_j = np.moveaxis(sp[block, PAIR_I], -1, 0), np.moveaxis(sp[block, PAIR_J], -1, 0)
        c0 = np.moveaxis(jp[block, j0], -1, 0)
        d = np.moveaxis(jp[block, j1], -1, 0) - c0
        near = _segment_distance(p_i[..., None], (p_j - p_i)[..., None], c0[:, :, None], d[:, :, None])
        f, p, c = np.nonzero((near <= radius + CULL_MARGIN) & ~skip)
        hits = np.zeros((p_i.shape[1], n_pairs, resolution), dtype=bool)
        if f.size:
            # the per-sample test on the kept triples only: sample points
            # (3, K, S) against their capsule axes (3, K, 1)
            points = w1 * p_i[:, f, p, None] + w2 * p_j[:, f, p, None]
            ck, dk = c0[:, f, c, None], d[:, f, c, None]
            len2 = _dot(dk, dk)
            # a zero-length capsule is a sphere: t = 0 puts the foot point at c0
            t = np.clip(_dot(points - ck, dk) / np.where(len2 == 0.0, 1.0, len2), 0.0, 1.0)
            gap = points - (ck + t * dk)
            inside = np.sqrt(_dot(gap, gap)) <= radius[c, None]
            # nonzero lists the triples frame- then pair-major: OR each pair's run
            fp = f * n_pairs + p
            first = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
            hits.reshape(-1, resolution)[fp[first]] = np.logical_or.reduceat(inside, first, axis=0)
        share[block] = hits.sum(axis=-1) / resolution
    too_short = np.sqrt(((sp[:, PAIR_J] - sp[:, PAIR_I]) ** 2).sum(axis=-1)) < 1e-3
    out = np.zeros((sp.shape[0], N_SENSORS, N_SENSORS))
    out[:, PAIR_I, PAIR_J] = out[:, PAIR_J, PAIR_I] = np.where(too_short, 0.0, share)
    return out.reshape(lead + (N_SENSORS, N_SENSORS))


def validate_kind(kind: str, known: tuple[str, ...]) -> None:
    if kind not in known:
        raise ConfigError(f"unknown motion kind '{kind}' (known: {', '.join(known)})")
