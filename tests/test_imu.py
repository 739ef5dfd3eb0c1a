"""IMU synthesis, bias calibration, and the orientation filter."""
import math

import numpy as np
import pytest

from uip.errors import CalibrationError, ContractViolationError
from uip.geometry import GRAVITY_REACTION, Quaternion, Vec3, quat_angle_between, quat_rotate
from uip.imu import (
    ComplementaryFilter,
    ImuNoiseModel,
    ImuStream,
    orientation_filter,
    synthesize_accel,
    synthesize_gyro,
    synthesize_imu,
    tpose_calibrate,
)
from uip.rng import derive_rng

DT = 0.01


def quiet_noise() -> ImuNoiseModel:
    return ImuNoiseModel(
        accel_sigma=0.0,
        gyro_sigma=0.0,
        accel_bias=Vec3.zero(),
        gyro_bias=Vec3.zero(),
    )


def test_accel_exact_on_quadratic():
    t = np.arange(60) * DT
    a_true = np.array([0.7, -1.3, 2.1])
    pos = 0.5 * a_true[None, :] * t[:, None] ** 2 + np.array([0.2, 0.0, 1.0])
    acc = synthesize_accel(pos, dt=DT)
    assert np.allclose(acc, np.tile(a_true, (60, 1)), atol=1e-9)


def test_accel_edges_replicate_interior():
    rng = derive_rng(5, "imu", "edges")
    pos = rng.normal(size=(30, 3))
    acc = synthesize_accel(pos, n=4, dt=DT)
    for k in range(4):
        assert np.array_equal(acc[k], acc[4])
        assert np.array_equal(acc[29 - k], acc[25])


def test_accel_needs_enough_samples():
    with pytest.raises(ContractViolationError):
        synthesize_accel(np.zeros((8, 3)), n=4)


def test_gyro_exact_on_constant_rate():
    w_true = Vec3(0.3, -0.2, 0.5)
    quats = [Quaternion.from_rotvec(w_true.scaled(k * DT)) for k in range(40)]
    gyro = synthesize_gyro(quats, dt=DT)
    assert np.allclose(gyro, np.tile(w_true.to_array(), (40, 1)), atol=1e-9)


def test_gyro_rejects_giant_steps():
    quats = [Quaternion.identity(), Quaternion.from_axis_angle(Vec3(1, 0, 0), 2.0)]
    with pytest.raises(ContractViolationError):
        synthesize_gyro(quats, dt=DT)


def test_static_stream_reads_gravity_reaction():
    q = Quaternion.from_axis_angle(Vec3(0, 1, 0), 0.4)
    pos = np.zeros((50, 3))
    stream = synthesize_imu(pos, [q] * 50, quiet_noise(), derive_rng(5, "imu", "static"), dt=DT)
    want = quat_rotate(q.conjugate(), GRAVITY_REACTION).to_array()
    assert np.allclose(stream.accel, np.tile(want, (50, 1)), atol=1e-12)
    assert np.allclose(stream.gyro, 0.0, atol=1e-12)
    assert math.isclose(float(np.linalg.norm(stream.accel[0])), GRAVITY_REACTION.z, abs_tol=1e-9)


def test_noise_model_sampling_is_deterministic():
    a = ImuNoiseModel.sampled(derive_rng(5, "imu", "nm"), 0.08, 0.006, 0.02, 0.001)
    b = ImuNoiseModel.sampled(derive_rng(5, "imu", "nm"), 0.08, 0.006, 0.02, 0.001)
    assert a.accel_bias == b.accel_bias
    assert a.gyro_bias == b.gyro_bias
    assert a.accel_sigma == 0.08


def test_tpose_calibrate_recovers_planted_bias():
    q = Quaternion.identity()
    bias_a = Vec3(0.05, -0.02, 0.03)
    bias_g = Vec3(0.002, 0.001, -0.003)
    noise = ImuNoiseModel(
        accel_sigma=0.0, gyro_sigma=0.0, accel_bias=bias_a, gyro_bias=bias_g
    )
    pos = np.zeros((220, 3))
    stream = synthesize_imu(pos, [q] * 220, noise, derive_rng(5, "imu", "cal"), dt=DT)
    gyro_off, accel_off = tpose_calibrate(stream, q)
    assert np.allclose(gyro_off.to_array(), bias_g.to_array(), atol=1e-12)
    assert np.allclose(accel_off.to_array(), bias_a.to_array(), atol=1e-12)


def test_tpose_calibrate_averages_noise_down():
    q = Quaternion.identity()
    noise = ImuNoiseModel(
        accel_sigma=0.08, gyro_sigma=0.006, accel_bias=Vec3(0.02, 0.0, -0.01), gyro_bias=Vec3.zero()
    )
    pos = np.zeros((400, 3))
    stream = synthesize_imu(pos, [q] * 400, noise, derive_rng(5, "imu", "avg"), dt=DT)
    gyro_off, accel_off = tpose_calibrate(stream, q)
    assert np.linalg.norm(accel_off.to_array() - np.array([0.02, 0.0, -0.01])) < 0.02
    assert np.linalg.norm(gyro_off.to_array()) < 0.002


def test_tpose_calibrate_rejects_short_window():
    stream = ImuStream(t=np.arange(50) * DT, accel=np.zeros((50, 3)), gyro=np.zeros((50, 3)))
    with pytest.raises(CalibrationError):
        tpose_calibrate(stream, Quaternion.identity())


def test_tpose_calibrate_rejects_movement():
    rng = derive_rng(5, "imu", "move")
    gyro = rng.normal(0.0, 0.2, (200, 3))
    stream = ImuStream(t=np.arange(200) * DT, accel=np.zeros((200, 3)), gyro=gyro)
    with pytest.raises(CalibrationError, match="movement"):
        tpose_calibrate(stream, Quaternion.identity())


def test_filter_first_estimate_is_init():
    init = Quaternion.from_axis_angle(Vec3(0, 0, 1), 0.3)
    pos = np.zeros((30, 3))
    stream = synthesize_imu(pos, [init] * 30, quiet_noise(), derive_rng(5, "imu", "f0"), dt=DT)
    quats, accel = orientation_filter(stream, init)
    assert quat_angle_between(Quaternion(*quats[0]), init) < 1e-12
    assert quats.shape == (30, 4)
    assert accel.shape == (30, 3)


def test_filter_tracks_clean_rotation():
    w = Vec3(0.0, 0.0, 1.2)  # pure yaw: accel correction never fights it
    quats = [Quaternion.from_rotvec(w.scaled(k * DT)) for k in range(200)]
    pos = np.zeros((200, 3))
    stream = synthesize_imu(pos, quats, quiet_noise(), derive_rng(5, "imu", "track"), dt=DT)
    est, _ = orientation_filter(stream, quats[0])
    for k in (50, 120, 199):
        assert quat_angle_between(Quaternion(*est[k]), quats[k]) < 1e-6


def test_filter_static_estimate_holds_and_accel_world_is_zero():
    q = Quaternion.from_axis_angle(Vec3(1, 0, 0), 0.5)
    pos = np.zeros((100, 3))
    stream = synthesize_imu(pos, [q] * 100, quiet_noise(), derive_rng(5, "imu", "hold"), dt=DT)
    quats, accel = orientation_filter(stream, q)
    for k in range(0, 100, 20):
        assert quat_angle_between(Quaternion(*quats[k]), q) < 1e-9
        assert np.linalg.norm(accel[k]) < 1e-9


def test_filter_offsets_remove_planted_bias():
    q = Quaternion.identity()
    bias_g = Vec3(0.01, -0.02, 0.015)
    noise = ImuNoiseModel(
        accel_sigma=0.0, gyro_sigma=0.0, accel_bias=Vec3.zero(), gyro_bias=bias_g
    )
    pos = np.zeros((300, 3))
    stream = synthesize_imu(pos, [q] * 300, noise, derive_rng(5, "imu", "bias"), dt=DT)
    drifted, _ = orientation_filter(stream, q)
    corrected, _ = orientation_filter(stream, q, gyro_offset=bias_g)
    assert quat_angle_between(Quaternion(*drifted[-1]), q) > 0.05
    assert quat_angle_between(Quaternion(*corrected[-1]), q) < 1e-9


def test_filter_gate_skips_dynamic_accel():
    # Accel far outside the quasi-static gate: only gyro integration runs,
    # so a wrong-direction accel cannot tilt the estimate.
    f = ComplementaryFilter(Quaternion.identity(), gain=0.5, dt=DT)
    for _ in range(50):
        f.step(Vec3(30.0, 0.0, 0.0), Vec3.zero())
    assert quat_angle_between(f.q, Quaternion.identity()) < 1e-12
    # The same accel inside the gate does pull the estimate.
    g = ComplementaryFilter(Quaternion.identity(), gain=0.5, dt=DT)
    for _ in range(50):
        g.step(Vec3(9.8, 0.0, 0.0), Vec3.zero())
    assert quat_angle_between(g.q, Quaternion.identity()) > 0.1


def test_filter_gain_bounds():
    with pytest.raises(ContractViolationError):
        ComplementaryFilter(Quaternion.identity(), gain=1.5)
