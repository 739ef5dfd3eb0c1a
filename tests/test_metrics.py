"""Metric oracles: orientation error, aligned position error, jitter."""
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError, DataError
from uip.geometry import qfrom_rotvec, qmul, qnormalize, qrotate
from uip.metrics import (
    ClipMetrics,
    MetricReport,
    SIP_JOINTS,
    jitter,
    jitter_sample_count,
    position_error,
    sip_error,
    split_by_acceleration,
)
from uip.rng import derive_rng

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat_about(axis, deg: float) -> np.ndarray:
    return qfrom_rotvec(np.asarray(axis, dtype=float) * math.radians(deg))


def test_sip_error_uniform_perturbation_is_exact():
    frames = 7
    truth = {}
    pred = {}
    rng = derive_rng(41, "metrics", "sip")
    for name in SIP_JOINTS:
        qs = qfrom_rotvec(0.3 * rng.normal(size=(frames, 3)))
        truth[name] = qs
        axis = rng.normal(size=3)
        pred[name] = qmul(qs, quat_about(axis / np.linalg.norm(axis), 10.0))
    assert sip_error(pred, truth) == pytest.approx(10.0, abs=1e-9)


def test_sip_error_zero_on_identical_input():
    qs = {name: [IDENTITY] * 3 for name in SIP_JOINTS}
    assert sip_error(qs, qs) == pytest.approx(0.0, abs=1e-9)


def test_sip_error_ignores_non_sip_joints_and_checks_coverage():
    qs = {name: [IDENTITY] * 2 for name in SIP_JOINTS}
    noisy = dict(qs)
    noisy["head"] = [quat_about((0.0, 0.0, 1.0), 90.0)] * 2
    assert sip_error(noisy, qs) == pytest.approx(0.0, abs=1e-12)
    missing = {n: qs[n] for n in SIP_JOINTS[:-1]}
    with pytest.raises(ContractViolationError):
        sip_error(missing, qs)
    short = dict(qs)
    short["l_hip"] = [IDENTITY]
    with pytest.raises(ContractViolationError):
        sip_error(short, qs)


def test_position_error_invariant_under_rigid_transform():
    rng = derive_rng(42, "metrics", "pos")
    frames, joints = 5, 15
    truth = rng.normal(0.0, 0.5, (frames, joints, 3))
    truth_rot = np.array([qfrom_rotvec(0.4 * rng.normal(size=3)) for _ in range(frames)])
    pred = np.empty_like(truth)
    pred_rot = np.empty_like(truth_rot)
    for k in range(frames):
        move = qfrom_rotvec(rng.normal(size=3))
        shift = rng.normal(0.0, 2.0, 3)
        pred[k] = qrotate(move, truth[k]) + shift
        pred_rot[k] = qnormalize(qmul(move, truth_rot[k]))
    assert position_error(pred, pred_rot, truth, truth_rot) < 1e-9


def test_position_error_hand_value():
    # Identity alignment, every joint off by 3 cm in x: the mean is 3 cm,
    # except the root which is pinned by the alignment.
    frames, joints = 2, 4
    truth = np.zeros((frames, joints, 3))
    truth[:, :, 1] = np.arange(joints)
    pred = truth.copy()
    pred[:, 1:, 0] += 0.03
    rots = [IDENTITY] * frames
    want = 100.0 * (0.03 * (joints - 1)) / joints
    assert position_error(pred, rots, truth, rots) == pytest.approx(want, rel=1e-12)


def test_position_error_validates_shapes():
    rots = [IDENTITY] * 2
    with pytest.raises(ContractViolationError):
        position_error(np.zeros((2, 3, 3)), rots, np.zeros((2, 4, 3)), rots)
    with pytest.raises(ContractViolationError):
        position_error(np.zeros((2, 3, 3)), [IDENTITY], np.zeros((2, 3, 3)), rots)


def test_jitter_exact_on_cubic():
    # Dyadic rate and integer-cube samples keep every intermediate exact:
    # jerk of t^3 is the constant 6 m/s^3, 0.006 km/s^3.
    rate = 2.0
    t = np.arange(12) / rate
    positions = np.zeros((12, 2, 3))
    positions[:, 0, 0] = t**3
    positions[:, 1, 1] = t**3
    assert jitter(positions, rate) == 0.006


def test_jitter_zero_on_quadratic():
    rate = 8.0
    t = np.arange(20) / rate
    positions = np.zeros((20, 1, 3))
    positions[:, 0, 0] = 1.5 * t**2 - 0.25 * t + 2.0
    assert jitter(positions, rate) == 0.0


def test_jitter_needs_a_full_stencil():
    with pytest.raises(DataError):
        jitter(np.zeros((4, 1, 3)), 10.0)
    with pytest.raises(ContractViolationError):
        jitter(np.zeros((8, 1, 2)), 10.0)
    with pytest.raises(ContractViolationError):
        jitter(np.zeros((8, 1, 3)), 0.0)
    assert jitter_sample_count(12) == 8
    assert jitter_sample_count(3) == 0


def clip(name, accel, frames, sip=1.0, pos=1.0, jit=1.0, rmse=None):
    return ClipMetrics(
        name=name,
        mean_accel=accel,
        frames=frames,
        sip_error_deg=sip,
        pos_error_cm=pos,
        jitter_km_s3=jit,
        distance_rmse_m=rmse,
    )


def test_split_threshold_and_missing_partitions():
    groups = split_by_acceleration([clip("a", 1.0, 10), clip("b", 3.0, 10)])
    assert set(groups) == {"overall", "slow", "fast"}
    assert groups["slow"].sip_error_deg == 1.0
    only_slow = split_by_acceleration([clip("a", 0.5, 10)])
    assert set(only_slow) == {"overall", "slow"}


def test_aggregation_weights_frames_and_jitter_samples():
    a = clip("a", 0.5, 10, sip=2.0, pos=4.0, jit=1.0)
    b = clip("b", 0.5, 30, sip=6.0, pos=8.0, jit=3.0)
    got = split_by_acceleration([a, b])["overall"]
    assert got.sip_error_deg == pytest.approx((2.0 * 10 + 6.0 * 30) / 40)
    assert got.pos_error_cm == pytest.approx((4.0 * 10 + 8.0 * 30) / 40)
    # jitter weights by interior samples: 10-4=6 and 30-4=26
    assert got.jitter_km_s3 == pytest.approx((1.0 * 6 + 3.0 * 26) / 32)


def test_distance_rmse_pools_as_root_mean_square():
    pair = [0.0] * 15
    a = clip("a", 0.5, 10, rmse=tuple([0.03] + pair[1:]))
    b = clip("b", 0.5, 30, rmse=tuple([0.05] + pair[1:]))
    got = split_by_acceleration([a, b])["overall"]
    want = math.sqrt((0.03**2 * 10 + 0.05**2 * 30) / 40)
    assert got.distance_rmse_m[0] == pytest.approx(want, rel=1e-12)
    mixed = split_by_acceleration([a, clip("c", 0.5, 10)])["overall"]
    assert mixed.distance_rmse_m is None


def test_report_validation_and_to_dict():
    with pytest.raises(ContractViolationError):
        MetricReport(split="weird", sip_error_deg=1.0, pos_error_cm=1.0, jitter_km_s3=1.0)
    with pytest.raises(ContractViolationError):
        MetricReport(split="slow", sip_error_deg=-1.0, pos_error_cm=1.0, jitter_km_s3=1.0)
    with pytest.raises(ContractViolationError):
        MetricReport(split="slow", sip_error_deg=math.nan, pos_error_cm=1.0, jitter_km_s3=1.0)
    rep = MetricReport(
        split="fast", sip_error_deg=2.0, pos_error_cm=3.0, jitter_km_s3=0.5,
        distance_rmse_m=(0.01,) * 15,
    )
    d = rep.to_dict()
    assert d["split"] == "fast"
    assert d["distance_rmse_m"] == [0.01] * 15
