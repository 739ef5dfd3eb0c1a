"""Skeleton table, forward kinematics, sensors, and occlusion geometry."""
import math

import numpy as np
import pytest

from conftest import check_continuity
from uip.errors import ContractViolationError
from uip.geometry import qangle, qconj, qfrom_axis_angle, qfrom_rotvec, qmul, qnormalize, qrotate
from uip.motions import generate_motion_suite
from uip.rng import derive_rng
from uip.skeleton import (
    MotionClip,
    N_SENSORS,
    default_placement,
    default_skeleton,
    fk_batch,
    mount_poses,
    pairwise_occlusion,
    sensor_exclusions,
    tpose,
    world_capsules,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def identities(n: int) -> np.ndarray:
    return np.tile(IDENTITY, (n, 1))


def angle_between(a, b) -> float:
    return float(qangle(qmul(qconj(a), b)))


JOINT_ORDER = (
    "pelvis",
    "spine",
    "head",
    "l_shoulder",
    "l_elbow",
    "l_wrist",
    "r_shoulder",
    "r_elbow",
    "r_wrist",
    "l_hip",
    "l_knee",
    "l_ankle",
    "r_hip",
    "r_knee",
    "r_ankle",
)


def test_joint_table_order_and_tree(skel, placement):
    assert tuple(j.name for j in skel.joints) == JOINT_ORDER
    assert skel.n_joints == 15
    assert skel.joints[0].parent == -1
    for i, j in enumerate(skel.joints[1:], start=1):
        assert 0 <= j.parent < i
    mounted = tuple(skel.joints[m.joint].name for m in placement.mounts)
    assert mounted == ("pelvis", "l_wrist", "r_wrist", "l_knee", "r_knee", "head")


def test_joint_index_lookup(skel):
    assert skel.joint_index("pelvis") == 0
    assert skel.joint_index("r_ankle") == 14
    with pytest.raises(KeyError):
        skel.joint_index("tail")


def test_height_scaling_is_uniform():
    a, b = default_skeleton(1.60), default_skeleton(2.00)
    ratio = 2.00 / 1.60
    for ja, jb in zip(a.joints[1:], b.joints[1:]):
        assert np.allclose(jb.offset, np.multiply(ja.offset, ratio), atol=1e-12)
    for ca, cb in zip(a.capsules, b.capsules):
        assert math.isclose(cb.radius, ca.radius * ratio, rel_tol=1e-12)


def test_height_bounds_enforced():
    with pytest.raises(ContractViolationError):
        default_skeleton(1.2)
    with pytest.raises(ContractViolationError):
        default_skeleton(2.3)


def test_fk_identity_matches_offset_sums(skel):
    # With identity local rotations, each joint sits at the sum of offsets
    # along its chain: FK reduced to pure translation.
    root = np.array([0.3, -0.2, 1.0])
    pos, rot = fk_batch(skel, identities(skel.n_joints), root)
    for i in range(skel.n_joints):
        expect = root.copy()
        j = i
        while skel.joints[j].parent >= 0:
            expect += skel.joints[j].offset
            j = skel.joints[j].parent
        assert np.allclose(pos[i], expect, atol=1e-12)
        assert angle_between(rot[i], IDENTITY) == 0.0


def test_fk_root_rotation_rotates_everything(skel):
    q = qfrom_axis_angle([0, 0, 1], 0.9)
    local = identities(skel.n_joints)
    local[0] = q
    root = np.array([0.0, 0.0, 1.0])
    pos, _ = fk_batch(skel, local, root)
    base, _ = fk_batch(skel, identities(skel.n_joints), root)
    for i in range(skel.n_joints):
        want = qrotate(q, base[i] - root) + root
        assert np.allclose(pos[i], want, atol=1e-12)


def test_fk_elbow_bend_moves_only_descendants(skel):
    local = identities(skel.n_joints)
    local[skel.joint_index("l_elbow")] = qfrom_axis_angle([1, 0, 0], 0.8)
    bent, _ = fk_batch(skel, local, np.zeros(3))
    straight, _ = fk_batch(skel, identities(skel.n_joints), np.zeros(3))
    wrist = skel.joint_index("l_wrist")
    for i in range(skel.n_joints):
        same = np.allclose(bent[i], straight[i], atol=1e-12)
        assert same == (i != wrist)


def test_fk_wrong_arity_rejected(skel):
    with pytest.raises(ContractViolationError):
        fk_batch(skel, identities(14), np.zeros(3))


def test_bone_lengths_survive_posing(skel):
    rng = derive_rng(4, "skel", "bones")
    for _ in range(10):
        local = qfrom_rotvec(rng.normal(0, 0.4, (skel.n_joints, 3)))
        pos, _ = fk_batch(skel, local, rng.normal(0, 1, 3))
        for i in range(1, skel.n_joints):
            p = skel.joints[i].parent
            length = np.linalg.norm(pos[i] - pos[p])
            assert math.isclose(length, np.linalg.norm(skel.joints[i].offset), abs_tol=1e-10)


def test_tpose_head_near_standing_height(skel):
    pos, rot = tpose(skel)
    assert pos.shape == (skel.n_joints, 3)
    assert rot.shape == (skel.n_joints, 4)
    head = pos[skel.joint_index("head")]
    assert 0.8 * skel.body_height < head[2] < 1.05 * skel.body_height
    for q in rot:
        assert angle_between(q, IDENTITY) == 0.0
    # Ankles nearly on the floor.
    for name in ("l_ankle", "r_ankle"):
        assert abs(pos[skel.joint_index(name), 2]) < 0.12


def test_sensor_pose_applies_mount(skel, placement):
    pos, rot = tpose(skel)
    spos, srot = mount_poses(placement.mounts, pos, rot)
    assert spos.shape == (N_SENSORS, 3) and srot.shape == (N_SENSORS, 4)
    for s in range(N_SENSORS):
        m = placement.mounts[s]
        want_p = pos[m.joint] + qrotate(rot[m.joint], m.offset)
        assert np.allclose(spos[s], want_p, atol=1e-12)
        assert angle_between(srot[s], qnormalize(qmul(rot[m.joint], m.rotation))) < 1e-12


def test_sensor_truth_matches_manual_fk(skel, placement):
    # Sensor trajectories of a clip: the mounts of a clip's FK, against FK
    # and the mount transform written out one joint and one sensor at a time.
    frames = 3
    rng = derive_rng(4, "skel", "truth")
    clip = MotionClip(
        name="t",
        kind="idle",
        rate=100.0,
        local_rot=qfrom_rotvec(rng.normal(0, 0.2, (frames, skel.n_joints, 3))),
        root_pos=rng.normal(0, 0.5, (frames, 3)),
    )
    pos, quats = mount_poses(placement.mounts, *fk_batch(skel, clip.local_rot, clip.root_pos))
    assert pos.shape == (frames, N_SENSORS, 3)
    assert quats.shape == (frames, N_SENSORS, 4)
    for t in range(frames):
        jp, jr = _scalar_fk(skel, clip.local_rot[t], clip.root_pos[t])
        for s, m in enumerate(placement.mounts):
            assert np.allclose(pos[t, s], jp[m.joint] + qrotate(jr[m.joint], m.offset), atol=1e-12)
            assert angle_between(quats[t, s], qnormalize(qmul(jr[m.joint], m.rotation))) < 1e-12


def _scalar_fk(skel, local_rot, root_pos):
    """Reference FK for one frame, one joint at a time."""
    pos, rot = [np.asarray(root_pos, dtype=float)], [np.asarray(local_rot[0], dtype=float)]
    for i in range(1, skel.n_joints):
        p = skel.joints[i].parent
        rot.append(qnormalize(qmul(rot[p], local_rot[i])))
        pos.append(pos[p] + qrotate(rot[p], skel.joints[i].offset))
    return np.array(pos), np.array(rot)


def test_batched_fk_equals_per_frame_fk(skel, placement):
    clip = generate_motion_suite(11, ("walk",), 3.0, 50.0, skel)[0]
    pos, rot = fk_batch(skel, clip.local_rot, clip.root_pos)
    spos, srot = mount_poses(placement.mounts, pos, rot)
    assert pos.shape == (clip.n_frames, skel.n_joints, 3)
    assert rot.shape == (clip.n_frames, skel.n_joints, 4)
    for t in range(0, clip.n_frames, 7):
        ref_pos, ref_rot = _scalar_fk(skel, clip.local_rot[t], clip.root_pos[t])
        jp, jr = fk_batch(skel, clip.local_rot[t], clip.root_pos[t])
        assert np.array_equal(pos[t], ref_pos) and np.array_equal(rot[t], ref_rot)
        assert np.array_equal(pos[t], jp) and np.array_equal(rot[t], jr)
        for s in range(N_SENSORS):
            p, q = mount_poses(placement.mounts[s : s + 1], jp, jr)
            assert np.array_equal(spos[t, s], p[0]) and np.array_equal(srot[t, s], q[0])


def test_occlusion_ratio_endpoints(skel, placement):
    # Wrist sensors 1 and 2 moved onto chosen sight lines of the T-pose
    # body; their own arm capsules are skipped, the torso is not.
    pos, _ = tpose(skel)
    sensor_pos, _ = mount_poses(placement.mounts, *tpose(skel))
    # A segment far above the body is fully clear.
    sensor_pos[1], sensor_pos[2] = (0.0, -2.0, 3.5), (0.0, 2.0, 3.5)
    assert pairwise_occlusion(skel, placement, pos, sensor_pos)[1, 2] == 0.0
    # A segment running through the torso capsule is mostly covered.
    sensor_pos[1], sensor_pos[2] = (0.0, 0.0, 0.9), (0.0, 0.0, 1.1)
    assert pairwise_occlusion(skel, placement, pos, sensor_pos)[1, 2] > 0.8


def _scalar_occlusion(capsules, p_i, p_j, exclude, resolution=64):
    """Reference ratio: every sample against every capsule, one at a time."""
    if np.linalg.norm(p_j - p_i) < 1e-3:
        return 0.0
    hits = 0
    for k in range(resolution):
        w2 = (k + 0.5) / resolution
        point = (1.0 - w2) * p_i + w2 * p_j
        for idx, (c0, c1, r) in enumerate(capsules):
            d = c1 - c0
            len2 = float(d @ d)
            t = 0.0 if len2 == 0.0 else min(max(float((point - c0) @ d) / len2, 0.0), 1.0)
            if idx not in exclude and np.linalg.norm(point - (c0 + t * d)) <= r:
                hits += 1
                break
    return hits / resolution


def test_pairwise_occlusion_symmetric_zero_diagonal(skel, placement):
    pos, rot = tpose(skel)
    spos, _ = mount_poses(placement.mounts, pos, rot)
    frames = [(pos, spos)]
    for c in generate_motion_suite(12, ("squat", "arm-swing"), 4.0, 25.0, skel):
        jp, jr = fk_batch(skel, c.local_rot, c.root_pos)
        sp, _ = mount_poses(placement.mounts, jp, jr)
        frames += [(jp[t], sp[t]) for t in (60, 75, 90)]
    excl = sensor_exclusions(skel, placement)
    covered = 0
    for jp, sp in frames:
        occ = pairwise_occlusion(skel, placement, jp, sp)
        assert occ.shape == (N_SENSORS, N_SENSORS)
        assert np.array_equal(occ, occ.T)
        assert np.array_equal(np.diag(occ), np.zeros(N_SENSORS))
        assert np.all((occ >= 0.0) & (occ <= 1.0))
        caps = world_capsules(skel, jp)
        for i in range(N_SENSORS):
            for j in range(i + 1, N_SENSORS):
                ref = _scalar_occlusion(caps, sp[i], sp[j], np.flatnonzero(excl[i] | excl[j]))
                # summation order differs from the kernel's: allow one sample
                # landing on the other side of a capsule surface
                assert abs(occ[i, j] - ref) <= 1.0 / 64
        covered += int(np.count_nonzero(occ))
    assert covered > 0


def test_check_continuity_accepts_smooth_rejects_jump(skel):
    idq = identities(skel.n_joints)
    turned = idq.copy()
    turned[3] = qfrom_axis_angle([1, 0, 0], math.radians(45.0))
    smooth = MotionClip(
        name="s", kind="idle", rate=100.0, local_rot=np.stack([idq, idq]), root_pos=np.zeros((2, 3))
    )
    check_continuity(smooth)
    jumpy = MotionClip(
        name="j", kind="idle", rate=100.0, local_rot=np.stack([idq, turned]), root_pos=np.zeros((2, 3))
    )
    with pytest.raises(AssertionError):
        check_continuity(jumpy)
