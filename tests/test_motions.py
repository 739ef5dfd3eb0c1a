"""Procedural motion suite: determinism, lead-in, continuity."""
import numpy as np
import pytest

from conftest import check_continuity
from uip.config import MotionSettings
from uip.errors import ConfigError
from uip.geometry import qangle, qconj, qmul
from uip.motions import LEAD_IN_S, MOTION_KINDS, generate_motion_suite

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
RATE = 50.0


def angles_between(a, b) -> np.ndarray:
    return qangle(qmul(qconj(a), b))
DURATION = 5.0


def test_suite_shape_and_names(skel):
    clips = generate_motion_suite(7, ("walk", "idle", "walk"), DURATION, RATE, skel)
    assert [c.name for c in clips] == ["clip_000_walk", "clip_001_idle", "clip_002_walk"]
    assert [c.kind for c in clips] == ["walk", "idle", "walk"]
    for c in clips:
        assert c.n_frames == int(DURATION * RATE)
        assert c.duration == pytest.approx(DURATION)
        assert c.local_rot.shape == (c.n_frames, skel.n_joints, 4)
        assert c.root_pos.shape == (c.n_frames, 3)


def test_suite_is_deterministic(skel):
    a = generate_motion_suite(7, ("walk",), DURATION, RATE, skel)[0]
    b = generate_motion_suite(7, ("walk",), DURATION, RATE, skel)[0]
    assert np.array_equal(a.root_pos, b.root_pos)
    assert np.array_equal(a.local_rot, b.local_rot)


def test_same_kind_twice_differs(skel):
    a, b = generate_motion_suite(7, ("walk", "walk"), DURATION, RATE, skel)
    mid = a.n_frames // 2
    assert not np.array_equal(a.root_pos[mid], b.root_pos[mid])


def test_seed_changes_motion(skel):
    a = generate_motion_suite(7, ("squat",), DURATION, RATE, skel)[0]
    b = generate_motion_suite(8, ("squat",), DURATION, RATE, skel)[0]
    mid = a.n_frames // 2
    diffs = angles_between(a.local_rot[mid], b.local_rot[mid])
    assert diffs.max() > 1e-4


def test_lead_in_is_static_tpose(skel):
    clips = generate_motion_suite(7, MOTION_KINDS, DURATION, RATE, skel)
    lead_frames = int(LEAD_IN_S * RATE)
    for c in clips:
        assert np.array_equal(c.root_pos[:lead_frames], np.broadcast_to(c.root_pos[0], (lead_frames, 3)))
        assert angles_between(c.local_rot[:lead_frames], IDENTITY).max() < 1e-12


def test_every_kind_is_continuous(skel):
    clips = generate_motion_suite(7, MOTION_KINDS, DURATION, RATE, skel)
    for c in clips:
        check_continuity(c)


def test_walk_translates_root(skel):
    c = generate_motion_suite(7, ("walk",), DURATION, RATE, skel)[0]
    travel = c.root_pos[-1, 0] - c.root_pos[0, 0]
    # ~0.95 m/s for the post-ramp portion of a 5 s clip.
    assert travel > 1.0


def test_idle_stays_put(skel):
    c = generate_motion_suite(7, ("idle",), DURATION, RATE, skel)[0]
    drift = np.linalg.norm(c.root_pos - c.root_pos[0], axis=1).max()
    assert drift < 0.01


def test_reach_arms_move_independently(skel):
    c = generate_motion_suite(7, ("reach",), 10.0, RATE, skel)[0]
    l_sh, r_sh = skel.joint_index("l_shoulder"), skel.joint_index("r_shoulder")
    l_angles = angles_between(c.local_rot[:, l_sh], c.local_rot[0, l_sh])
    r_angles = angles_between(c.local_rot[:, r_sh], c.local_rot[0, r_sh])
    # both arms wander well past their noise floor...
    assert l_angles.max() > np.radians(10.0)
    assert r_angles.max() > np.radians(10.0)
    # ...on uncorrelated paths (phase-locked kinds sit near |1| here)
    corr = np.corrcoef(l_angles, r_angles)[0, 1]
    assert abs(corr) < 0.8
    # and the root never leaves the standing spot
    drift = np.linalg.norm(c.root_pos - c.root_pos[0], axis=1).max()
    assert drift < 1e-12


def test_unknown_kind_rejected(skel):
    with pytest.raises(ConfigError, match="moonwalk"):
        generate_motion_suite(7, ("moonwalk",), DURATION, RATE, skel)


def test_config_and_suite_refuse_an_unknown_kind_alike(skel):
    with pytest.raises(ConfigError) as from_config:
        MotionSettings(catalog=("walk", "moonwalk"))
    with pytest.raises(ConfigError) as from_suite:
        generate_motion_suite(7, ("walk", "moonwalk"), DURATION, RATE, skel)
    assert str(from_config.value) == str(from_suite.value)
    assert str(from_suite.value) == f"unknown motion kind 'moonwalk' (known: {', '.join(MOTION_KINDS)})"
