"""IMU synthesis, bias calibration, and the orientation filter."""
import math

import numpy as np
import pytest

from uip.errors import CalibrationError, ContractViolationError
from uip.geometry import GRAVITY_MAGNITUDE, GRAVITY_REACTION, qangle, qconj, qfrom_axis_angle, qfrom_rotvec, qmul, qrotate
from uip.imu import (
    ACCEL_GATE,
    ImuNoiseModel,
    ImuStream,
    orientation_filter,
    synthesize_accel,
    synthesize_gyro,
    synthesize_imu,
    tpose_calibrate,
)
from uip.motions import generate_motion_suite
from uip.rng import derive_rng
from uip.skeleton import N_SENSORS, fk_batch, mount_poses

DT = 0.01
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quiet_noise() -> ImuNoiseModel:
    return ImuNoiseModel(accel_sigma=0.0, gyro_sigma=0.0)


def angle_between(a, b) -> float:
    return float(qangle(qmul(qconj(a), b)))


def still(q, n: int) -> np.ndarray:
    return np.tile(q, (n, 1))


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
    w_true = np.array([0.3, -0.2, 0.5])
    quats = qfrom_rotvec(w_true * (np.arange(40) * DT)[:, None])
    gyro = synthesize_gyro(quats, dt=DT)
    assert np.allclose(gyro, np.tile(w_true, (40, 1)), atol=1e-9)


def test_gyro_rejects_giant_steps():
    quats = [IDENTITY, qfrom_axis_angle([1, 0, 0], 2.0)]
    with pytest.raises(ContractViolationError):
        synthesize_gyro(quats, dt=DT)


def test_static_stream_reads_gravity_reaction():
    q = qfrom_axis_angle([0, 1, 0], 0.4)
    pos = np.zeros((50, 3))
    stream = synthesize_imu(pos, still(q, 50), quiet_noise(), derive_rng(5, "imu", "static"), dt=DT)
    want = qrotate(qconj(q), GRAVITY_REACTION)
    assert np.allclose(stream.accel, np.tile(want, (50, 1)), atol=1e-12)
    assert np.allclose(stream.gyro, 0.0, atol=1e-12)
    assert math.isclose(float(np.linalg.norm(stream.accel[0])), GRAVITY_MAGNITUDE, abs_tol=1e-9)


def test_noise_model_sampling_is_deterministic():
    a = ImuNoiseModel.sampled(derive_rng(5, "imu", "nm"), 0.08, 0.006, 0.02, 0.001)
    b = ImuNoiseModel.sampled(derive_rng(5, "imu", "nm"), 0.08, 0.006, 0.02, 0.001)
    assert a.accel_bias.shape == a.gyro_bias.shape == (3,)
    assert np.array_equal(a.accel_bias, b.accel_bias)
    assert np.array_equal(a.gyro_bias, b.gyro_bias)
    assert a.accel_sigma == 0.08


def test_tpose_calibrate_recovers_planted_bias():
    q = IDENTITY
    bias_a = np.array([0.05, -0.02, 0.03])
    bias_g = np.array([0.002, 0.001, -0.003])
    noise = ImuNoiseModel(
        accel_sigma=0.0, gyro_sigma=0.0, accel_bias=bias_a, gyro_bias=bias_g
    )
    pos = np.zeros((220, 3))
    stream = synthesize_imu(pos, still(q, 220), noise, derive_rng(5, "imu", "cal"), dt=DT)
    gyro_off, accel_off = tpose_calibrate(stream, q)
    assert np.allclose(gyro_off, bias_g, atol=1e-12)
    assert np.allclose(accel_off, bias_a, atol=1e-12)


def test_tpose_calibrate_averages_noise_down():
    q = IDENTITY
    noise = ImuNoiseModel(accel_sigma=0.08, gyro_sigma=0.006, accel_bias=np.array([0.02, 0.0, -0.01]))
    pos = np.zeros((400, 3))
    stream = synthesize_imu(pos, still(q, 400), noise, derive_rng(5, "imu", "avg"), dt=DT)
    gyro_off, accel_off = tpose_calibrate(stream, q)
    assert np.linalg.norm(accel_off - np.array([0.02, 0.0, -0.01])) < 0.02
    assert np.linalg.norm(gyro_off) < 0.002


def test_tpose_calibrate_rejects_short_window():
    stream = ImuStream(t=np.arange(50) * DT, accel=np.zeros((50, 3)), gyro=np.zeros((50, 3)))
    with pytest.raises(CalibrationError):
        tpose_calibrate(stream, IDENTITY)


def test_tpose_calibrate_rejects_movement():
    rng = derive_rng(5, "imu", "move")
    gyro = rng.normal(0.0, 0.2, (200, 3))
    stream = ImuStream(t=np.arange(200) * DT, accel=np.zeros((200, 3)), gyro=gyro)
    with pytest.raises(CalibrationError, match="movement"):
        tpose_calibrate(stream, IDENTITY)


def test_filter_first_estimate_is_init():
    init = qfrom_axis_angle([0, 0, 1], 0.3)
    pos = np.zeros((30, 3))
    stream = synthesize_imu(pos, still(init, 30), quiet_noise(), derive_rng(5, "imu", "f0"), dt=DT)
    quats, accel = orientation_filter(stream.accel, stream.gyro, init)
    assert angle_between(quats[0], init) < 1e-12
    assert quats.shape == (30, 4)
    assert accel.shape == (30, 3)


def test_filter_tracks_clean_rotation():
    w = np.array([0.0, 0.0, 1.2])  # pure yaw: accel correction never fights it
    quats = qfrom_rotvec(w * (np.arange(200) * DT)[:, None])
    pos = np.zeros((200, 3))
    stream = synthesize_imu(pos, quats, quiet_noise(), derive_rng(5, "imu", "track"), dt=DT)
    est, _ = orientation_filter(stream.accel, stream.gyro, quats[0])
    for k in (50, 120, 199):
        assert angle_between(est[k], quats[k]) < 1e-6


def test_filter_static_estimate_holds_and_accel_world_is_zero():
    q = qfrom_axis_angle([1, 0, 0], 0.5)
    pos = np.zeros((100, 3))
    stream = synthesize_imu(pos, still(q, 100), quiet_noise(), derive_rng(5, "imu", "hold"), dt=DT)
    quats, accel = orientation_filter(stream.accel, stream.gyro, q)
    for k in range(0, 100, 20):
        assert angle_between(quats[k], q) < 1e-9
        assert np.linalg.norm(accel[k]) < 1e-9


def test_filter_offsets_remove_planted_bias():
    q = IDENTITY
    bias_g = np.array([0.01, -0.02, 0.015])
    noise = ImuNoiseModel(accel_sigma=0.0, gyro_sigma=0.0, gyro_bias=bias_g)
    pos = np.zeros((300, 3))
    stream = synthesize_imu(pos, still(q, 300), noise, derive_rng(5, "imu", "bias"), dt=DT)
    drifted, _ = orientation_filter(stream.accel, stream.gyro, q)
    corrected, _ = orientation_filter(stream.accel, stream.gyro, q, gyro_offset=bias_g)
    assert angle_between(drifted[-1], q) > 0.05
    assert angle_between(corrected[-1], q) < 1e-9


def test_filter_gate_skips_dynamic_accel():
    # Accel far outside the quasi-static gate: only gyro integration runs,
    # so a wrong-direction accel cannot tilt the estimate.
    zero = np.zeros((50, 3))
    quats, _ = orientation_filter(np.tile([30.0, 0.0, 0.0], (50, 1)), zero, IDENTITY, gain=0.5, dt=DT)
    assert angle_between(quats[-1], IDENTITY) < 1e-12
    # The same accel inside the gate does pull the estimate.
    quats, _ = orientation_filter(np.tile([9.8, 0.0, 0.0], (50, 1)), zero, IDENTITY, gain=0.5, dt=DT)
    assert angle_between(quats[-1], IDENTITY) > 0.1


def test_filter_gain_bounds():
    with pytest.raises(ContractViolationError):
        orientation_filter(np.zeros((5, 3)), np.zeros((5, 3)), IDENTITY, gain=1.5)


def _scalar_filter(accel, gyro, init, gain, gyro_offset, accel_offset, dt):
    """Reference complementary filter: one sensor, one sample at a time, on floats.

    Returns the orientations, the gravity-free world accelerations and how
    many samples missed the accel gate, hit it with no tilt to correct,
    and were tilt-corrected.
    """

    def normalized(q):
        w, x, y, z = q
        s = 1.0 / math.sqrt(w * w + x * x + y * y + z * z)
        if w < 0.0:
            s = -s
        return (w * s, x * s, y * s, z * s)

    def mul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def from_rotvec(r):
        x, y, z = r
        angle = math.sqrt(x * x + y * y + z * z)
        if angle < 1e-12:
            return normalized((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
        s = math.sin(0.5 * angle) / angle
        return (math.cos(0.5 * angle), x * s, y * s, z * s)

    def rotate(q, v):
        w, x, y, z = q
        vx, vy, vz = v
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        return (vx + w * tx + (y * tz - z * ty), vy + w * ty + (z * tx - x * tz), vz + w * tz + (x * ty - y * tx))

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    q = normalized(init)
    quats, world = [], []
    counts = {"miss": 0, "level": 0, "tilt": 0}
    for k in range(len(accel)):
        a = [c - o for c, o in zip(accel[k], accel_offset)]
        g = [0.0, 0.0, 0.0] if k == 0 else [c - o for c, o in zip(gyro[k - 1], gyro_offset)]
        q = normalized(mul(q, from_rotvec([c * dt for c in g])))
        a_norm = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
        if ACCEL_GATE[0] < a_norm < ACCEL_GATE[1]:
            up = [c * (1.0 / a_norm) for c in rotate(q, a)]
            axis = cross(up, (0.0, 0.0, 1.0))
            axis_n = math.sqrt(axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2])
            if axis_n > 1e-12:
                angle = math.atan2(axis_n, up[2])
                corr = from_rotvec([c * (gain * angle / axis_n) for c in axis])
                q = normalized(mul(corr, q))
                counts["tilt"] += 1
            else:
                counts["level"] += 1
        else:
            counts["miss"] += 1
        w = rotate(q, a)
        quats.append(q)
        world.append((w[0], w[1], w[2] - GRAVITY_MAGNITUDE))
    return np.array(quats), np.array(world), counts


def test_six_sensor_filter_equals_six_scalar_filters_bitwise(skel, placement):
    # Six sensors of a walking clip in one call against six one-sensor
    # reference runs. The pelvis sensor is noiseless, so it reads exact
    # gravity in the T-pose lead-in (a gate hit with no tilt to correct);
    # the others carry noise and biases, which the offsets remove.
    clip = generate_motion_suite(3, ("walk",), 4.0, 100.0, skel)[0]
    pos, rot = mount_poses(placement.mounts, *fk_batch(skel, clip.local_rot, clip.root_pos))
    rng = derive_rng(5, "imu", "six")
    accel, gyro = np.empty((clip.n_frames, N_SENSORS, 3)), np.empty((clip.n_frames, N_SENSORS, 3))
    for s in range(N_SENSORS):
        noise = quiet_noise() if s == 0 else ImuNoiseModel.sampled(rng, 0.08, 0.006, 0.05, 0.01)
        stream = synthesize_imu(pos[:, s], rot[:, s], noise, rng, dt=DT)
        accel[:, s], gyro[:, s] = stream.accel, stream.gyro
    gyro_off = rng.normal(0.0, 0.01, (N_SENSORS, 3))
    accel_off = rng.normal(0.0, 0.05, (N_SENSORS, 3))
    gyro_off[0] = accel_off[0] = 0.0
    totals = {"miss": 0, "level": 0, "tilt": 0}
    for gain in (5e-6, 0.02):
        quats, world = orientation_filter(accel, gyro, rot[0], gain, gyro_off, accel_off, dt=DT)
        assert quats.shape == (clip.n_frames, N_SENSORS, 4)
        assert world.shape == (clip.n_frames, N_SENSORS, 3)
        for s in range(N_SENSORS):
            ref_q, ref_a, counts = _scalar_filter(
                accel[:, s].tolist(), gyro[:, s].tolist(), rot[0, s].tolist(), gain,
                gyro_off[s].tolist(), accel_off[s].tolist(), DT,
            )
            assert np.array_equal(quats[:, s], ref_q)
            assert np.array_equal(world[:, s], ref_a)
            for key in totals:
                totals[key] += counts[key]
    assert min(totals.values()) > 0, totals
