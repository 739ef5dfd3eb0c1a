"""Body-shape filter mathematics: Jacobians, gating, covariance health.

A "bank" below is one BodyShapeFilter over C clips.
"""
import math

import numpy as np
import pytest

from conftest import shape_transition
from uip.errors import ContractViolationError, DivergenceError
from uip.ekf import (
    STATE,
    BodyShapeFilter,
    _distance_matrices,
    _measure,
    assert_psd,
    gate_table,
    input_jacobian,
    max_reach,
    process_noise,
    state_jacobian,
)
from uip.geometry import qfrom_rotvec
from uip.rng import derive_rng
from uip.skeleton import N_SENSORS, PAIR_I, PAIR_J, fk_batch, mount_poses, tpose

DT = 0.01
SIGMA_A = 0.3  # m/s^2, accelerometer noise per axis of each sensor
R_SIGMA = 0.06
EVERY_PAIR = ~np.eye(N_SENSORS, dtype=bool)


def make_bank(skel, placement, range_sigma=R_SIGMA, clips: int = 1) -> BodyShapeFilter:
    return BodyShapeFilter(skel, placement, SIGMA_A, range_sigma, dt=DT, clips=clips)


def random_covariances(rng, count: int) -> np.ndarray:
    a = rng.normal(0.0, 0.1, (count, STATE, STATE))
    return a @ a.swapaxes(1, 2) + 0.01 * np.eye(STATE)


def pair_mask(*pairs) -> np.ndarray:
    """(1, 6, 6) validity with exactly the given pairs measured."""
    valid = np.zeros((1, N_SENSORS, N_SENSORS), dtype=bool)
    for i, j in pairs:
        valid[0, i, j] = valid[0, j, i] = True
    return valid


def tpose_positions(skel, placement) -> np.ndarray:
    pos, _ = mount_poses(placement.mounts, *tpose(skel))
    return pos


def test_state_jacobian_matches_finite_differences(skel, placement):
    rng = derive_rng(7, "ekf", "fj")
    bank = make_bank(skel, placement, clips=2 * STATE)
    f = state_jacobian(DT)
    eps = 1e-6
    steps = eps * np.vstack([np.eye(STATE), -np.eye(STATE)])
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, STATE)
        u0 = rng.normal(0.0, 2.0, (N_SENSORS, 3))
        out = shape_transition(bank, x0 + steps, np.broadcast_to(u0, (2 * STATE, N_SENSORS, 3)))
        fd = (out[:STATE] - out[STATE:]).T / (2 * eps)
        assert np.abs(f - fd).max() < 1e-9


def test_input_jacobian_matches_finite_differences(skel, placement):
    rng = derive_rng(7, "ekf", "wj")
    inputs = 3 * N_SENSORS
    bank = make_bank(skel, placement, clips=2 * inputs)
    w = input_jacobian(DT)
    assert w.shape == (STATE, inputs)
    eps = 1e-6
    steps = eps * np.vstack([np.eye(inputs), -np.eye(inputs)]).reshape(2 * inputs, N_SENSORS, 3)
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, STATE)
        u0 = rng.normal(0.0, 2.0, (N_SENSORS, 3))
        out = shape_transition(bank, np.broadcast_to(x0, (2 * inputs, STATE)), u0 + steps)
        fd = (out[:inputs] - out[inputs:]).T / (2 * eps)
        # Sensor s > 0 drives its own block with +, the pelvis every block with -.
        assert np.abs(w - fd).max() < 1e-9


def test_measurement_jacobian_matches_finite_differences():
    rng = derive_rng(7, "ekf", "hj")
    eps = 1e-7
    checked = 0
    for _ in range(50):
        m = rng.normal(0.0, 0.5, (1, STATE))
        h, hm = _measure(m)
        if h.min() < 0.01:
            continue
        fd = np.zeros((PAIR_I.size, STATE))
        for c in range(STATE):
            mp, mm = m.copy(), m.copy()
            mp[0, c] += eps
            mm[0, c] -= eps
            fd[:, c] = (_measure(mp)[0][0] - _measure(mm)[0][0]) / (2 * eps)
        assert np.abs(hm[0] - fd).max() < 1e-6
        assert not hm[0, :, STATE // 2 :].any()  # ranges see no velocity
        checked += 1
    assert checked > 40


def test_measurement_jacobian_zeroes_degenerate_rows():
    # Sensor 1 sits on the pelvis and sensor 3 on sensor 2: pairs (0, 1)
    # and (2, 3) are under the norm floor, every other row is a unit pair.
    m = np.zeros((1, STATE))
    sensors_1_to_5 = [[0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.3, 0.1, 0.0], [0.0, 0.5, 0.2], [0.1, -0.4, 0.6]]
    m[0, : STATE // 2] = np.ravel(sensors_1_to_5)
    _, hm = _measure(m)
    degenerate = ((PAIR_I == 0) & (PAIR_J == 1)) | ((PAIR_I == 2) & (PAIR_J == 3))
    assert not hm[0, degenerate].any()
    for row, i, j in zip(hm[0, ~degenerate], PAIR_I[~degenerate], PAIR_J[~degenerate]):
        blocks = row[: STATE // 2].reshape(N_SENSORS - 1, 3)
        if j > 0:
            assert math.isclose(np.linalg.norm(blocks[j - 1]), 1.0)
        if i > 0:
            assert np.array_equal(blocks[i - 1], -blocks[j - 1])


def test_process_noise_shape_and_psd():
    q = process_noise(DT, SIGMA_A)
    assert q.shape == (STATE, STATE)
    assert_psd(q)
    w = input_jacobian(DT)
    assert np.array_equal(q, SIGMA_A**2 * (w @ w.T))
    # Pelvis noise is shared: two sensors' position blocks are correlated.
    shared = SIGMA_A**2 * (0.5 * DT * DT) ** 2
    assert np.allclose(q[0:3, 3:6], shared * np.eye(3), rtol=1e-12, atol=0.0)
    assert np.allclose(q[0:3, 0:3], 2.0 * shared * np.eye(3), rtol=1e-12, atol=0.0)


def test_predict_integrates_relative_acceleration(skel, placement):
    bank = make_bank(skel, placement)
    bank.mean[0] = 0.0
    bank.mean[0, 0:3], bank.mean[0, 15:18] = (1.0, 0.0, 0.0), (0.0, 0.2, 0.0)
    accel = np.zeros((1, N_SENSORS, 3))
    accel[0, 1] = (2.0, 0.0, 0.0)
    accel[0, 0] = (0.0, 0.0, 1.0)  # the pelvis pulls every sensor's relative z down
    bank.predict(accel)
    assert np.allclose(bank.mean[0, 0:3], [1.0 + 0.5 * 2.0 * DT**2, 0.2 * DT, -0.5 * DT**2], atol=1e-12)
    assert np.allclose(bank.mean[0, 15:18], [2.0 * DT, 0.2, -DT], atol=1e-12)
    for s in range(2, N_SENSORS):
        assert np.allclose(bank.mean[0, 3 * s - 3 : 3 * s], [0.0, 0.0, -0.5 * DT**2], atol=1e-15)


def test_predict_marks_divergence_on_nonfinite_input(skel, placement):
    # A NaN pelvis sample in clip 1 reaches every block of clip 1's state
    # and nothing of clip 0's; `run` names clip 1 at that frame.
    bank, single = make_bank(skel, placement, clips=2), make_bank(skel, placement)
    accel = np.ones((1, 2, N_SENSORS, 3))
    accel[0, 1, 0] = math.nan
    bank.predict(accel[0])
    single.predict(accel[0, :1])
    assert np.isnan(bank.mean[1]).all()
    assert np.array_equal(bank.mean[0], single.mean[0]) and np.array_equal(bank.cov[0], single.cov[0])
    no_rounds = np.zeros((0, 2, N_SENSORS, N_SENSORS))
    with pytest.raises(DivergenceError, match=r"^squat: body-shape filter diverged at frame 0$"):
        make_bank(skel, placement, clips=2).run(
            accel, np.zeros(0, dtype=int), no_rounds, no_rounds.astype(bool), names=["walk", "squat"]
        )


def test_update_moves_estimate_toward_range(skel, placement):
    bank = make_bank(skel, placement)
    bank.mean[0, 0:3], bank.cov[0] = (0.8, 0.0, 0.0), 0.04 * np.eye(STATE)
    d = np.zeros((1, N_SENSORS, N_SENSORS))
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    bank.update(d, pair_mask((0, 1)))
    dist = float(np.linalg.norm(bank.mean[0, 0:3]))
    assert 0.8 < dist <= 1.0
    assert bank.cov[0, 0, 0] < 0.04


def test_update_outside_gate_leaves_state_bitwise(skel, placement):
    rng = derive_rng(7, "ekf", "gate")
    bank = make_bank(skel, placement)
    bank.mean[0] = rng.normal(0.0, 0.5, STATE)
    bank.cov[0] = random_covariances(rng, 1)[0]
    before = bank.mean.copy(), bank.cov.copy()
    for d in (99.0, -0.5):  # past every gate, below the lower one
        bank.update(np.full((1, N_SENSORS, N_SENSORS), d), EVERY_PAIR[None])
        for held, old in zip((bank.mean, bank.cov), before):
            assert np.array_equal(held, old)


def test_update_gates_each_pair_at_its_gate_table_entry(skel, placement):
    # Clip p measures only pair p: at 0.99x its gate the clip's state moves,
    # at 1.01x it stays bitwise.
    rng = derive_rng(7, "ekf", "gate-edge")
    gates = gate_table()
    valid = np.zeros((PAIR_I.size, N_SENSORS, N_SENSORS), dtype=bool)
    valid[np.arange(PAIR_I.size), PAIR_I, PAIR_J] = valid[np.arange(PAIR_I.size), PAIR_J, PAIR_I] = True
    for scale in (0.99, 1.01):
        bank = make_bank(skel, placement, clips=PAIR_I.size)
        bank.mean[:] = rng.normal(0.0, 0.5, (PAIR_I.size, STATE))
        bank.cov[:] = random_covariances(rng, PAIR_I.size)
        before = bank.mean.copy(), bank.cov.copy()
        bank.update(np.broadcast_to(scale * gates, valid.shape), valid)
        for held, old in zip((bank.mean, bank.cov), before):
            moved = (held != old).reshape(PAIR_I.size, -1).any(axis=1)
            assert moved.all() if scale < 1.0 else not moved.any()


def test_update_keeps_covariance_psd_with_tiny_r(skel, placement):
    # 14 clips of random states take one update of all 15 ranges each with
    # 0.1 mm noise; ranges past their gate are left out.
    rng = derive_rng(7, "ekf", "joseph")
    bank = make_bank(skel, placement, 1e-4, clips=14)
    bank.mean[:] = rng.normal(0.0, 0.5, (14, STATE))
    bank.cov[:] = random_covariances(rng, 14)
    before = bank.cov.copy()
    d = np.zeros((14, N_SENSORS, N_SENSORS))
    d[:, PAIR_I, PAIR_J] = _distance_matrices(bank.mean)[:, PAIR_I, PAIR_J] + rng.normal(0.0, 0.05, (14, PAIR_I.size))
    d += d.swapaxes(1, 2)
    bank.update(d, np.broadcast_to(EVERY_PAIR, d.shape))
    assert (bank.cov != before).any(axis=(1, 2)).all()
    for cov in bank.cov:
        assert_psd(cov)


def test_gate_table_covers_tpose_distances(skel, placement):
    gates = gate_table()
    pos, _ = mount_poses(placement.mounts, *tpose(skel))
    for i in range(N_SENSORS):
        for j in range(i + 1, N_SENSORS):
            assert np.linalg.norm(pos[j] - pos[i]) < gates[i, j]
    assert np.array_equal(gates, gates.T)


def test_max_reach_bounds_random_poses(skel, placement):
    rng = derive_rng(7, "ekf", "reach")
    for _ in range(20):
        local = np.array([qfrom_rotvec(rng.normal(0.0, 0.5, 3)) for _ in range(skel.n_joints)])
        pos, _ = mount_poses(placement.mounts, *fk_batch(skel, local, np.zeros(3)))
        for i in range(N_SENSORS):
            for j in range(i + 1, N_SENSORS):
                assert np.linalg.norm(pos[j] - pos[i]) <= max_reach(skel, placement, i, j) + 1e-9


def test_bank_initial_states_match_tpose_geometry(skel, placement):
    pos = tpose_positions(skel, placement)
    bank = make_bank(skel, placement, clips=2)
    assert bank.mean.shape == (2, STATE) and STATE == 30
    assert bank.cov.shape == (2, STATE, STATE)
    for c in range(2):
        assert np.array_equal(bank.mean[c, :15].reshape(5, 3), pos[1:] - pos[0])
        assert np.array_equal(bank.mean[c, 15:], np.zeros(15))
        assert np.array_equal(np.diag(bank.cov[c]), [0.05**2] * 15 + [0.01**2] * 15)
        assert_psd(bank.cov[c])


def test_bank_tracks_a_moving_pair(skel, placement):
    # Drive the filter with exact controls for a synthetic motion (sensor 1
    # oscillating along x from rest, matching the zero initial velocity,
    # everything else still) and every range every fourth frame: the causal
    # distance of pair (0, 1) stays well under the raw noise level.
    rng = derive_rng(7, "ekf", "bank")
    bank = make_bank(skel, placement)
    base = tpose_positions(skel, placement)
    sigma = 0.05
    amp, w = 0.1, 2 * math.pi * 0.5
    frames = 400
    t = np.arange(frames) * DT
    accel = np.zeros((frames, 1, N_SENSORS, 3))
    accel[:, 0, 1, 0] = amp * w * w * np.cos(w * t)
    round_frames = np.arange(0, frames, 4)
    truth = np.repeat(base[None], frames, axis=0)
    truth[:, 1, 0] += amp * (1.0 - np.cos(w * t))
    true_d = np.linalg.norm(truth[:, :, None] - truth[:, None, :], axis=-1)
    noise = rng.normal(0.0, sigma, (round_frames.size, N_SENSORS, N_SENSORS))
    ranges = (true_d[round_frames] + noise + noise.swapaxes(1, 2))[:, None]
    est = bank.run(accel, round_frames, ranges, np.broadcast_to(EVERY_PAIR, ranges.shape))
    errs = np.abs(est[:, 0, 0, 1] - true_d[:, 0, 1])
    assert np.mean(errs[100:]) < sigma / 2


def test_bank_distance_matrix_symmetric(skel, placement):
    # The causal and the smoothed distances are symmetric bitwise, with a
    # zero diagonal; the first causal frame (at rest, no range yet) is the T-pose.
    rng = derive_rng(7, "ekf", "symmetric")
    bank = make_bank(skel, placement)
    ranges = rng.uniform(0.2, 1.0, (3, 1, N_SENSORS, N_SENSORS))
    ranges += ranges.swapaxes(2, 3)
    accel = rng.normal(0.0, 1.0, (6, 1, N_SENSORS, 3))
    accel[0] = 0.0
    causal = bank.run(accel, np.array([1, 3, 5]), ranges, ranges > 0.0)
    for d in (causal, bank.smooth()):
        assert d.shape == (6, 1, N_SENSORS, N_SENSORS)
        assert np.array_equal(d, d.swapaxes(2, 3))
        assert not d[:, :, np.arange(N_SENSORS), np.arange(N_SENSORS)].any()
    pos = tpose_positions(skel, placement)
    assert np.allclose(causal[0, 0], np.linalg.norm(pos[:, None] - pos[None], axis=-1), rtol=0.0, atol=1e-15)


# A textbook 30-state EKF and RTS smoother: explicit matrices built in
# plain loops, np.linalg.inv, and a Jacobian with only the accepted rows.


def textbook_model() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F, W and Q = sigma_a^2 W W^T of the pelvis-relative body shape."""
    f, w = np.eye(30), np.zeros((30, 18))
    for s in range(1, 6):
        for axis in range(3):
            row = 3 * (s - 1) + axis
            f[row, 15 + row] = DT
            w[row, 3 * s + axis], w[row, axis] = 0.5 * DT**2, -0.5 * DT**2
            w[15 + row, 3 * s + axis], w[15 + row, axis] = DT, -DT
    return f, w, SIGMA_A**2 * w @ w.T


def reference_predict(m, p, accel):
    f, w, q = textbook_model()
    return f @ m + w @ accel.ravel(), f @ p @ f.T + q


def reference_update(m, p, ranges):
    """Joseph-form update by the accepted ranges [(i, j, d), ...]; a pair
    under 1 mm has no direction and is left out."""
    pos = np.vstack([np.zeros(3), m[:15].reshape(5, 3)])
    rows, residuals = [], []
    for i, j, d in ranges:
        diff = pos[j] - pos[i]
        norm = np.linalg.norm(diff)
        if norm < 1e-3:
            continue
        row = np.zeros(30)
        if j > 0:
            row[3 * (j - 1) : 3 * j] = diff / norm
        if i > 0:
            row[3 * (i - 1) : 3 * i] = -diff / norm
        rows.append(row)
        residuals.append(d - norm)
    if not rows:
        return m, p
    h = np.array(rows)
    r = R_SIGMA**2 * np.eye(len(rows))
    k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
    ikh = np.eye(30) - k @ h
    return m + k @ np.array(residuals), ikh @ p @ ikh.T + k @ r @ k.T


def accepted(d, valid, gates) -> list[tuple[int, int, float]]:
    return [(i, j, d[i, j]) for i, j in zip(PAIR_I, PAIR_J) if valid[i, j] and 0.0 <= d[i, j] <= gates[i, j]]


def reference_smooth(predicted, filtered, filtered_cov):
    """Fixed-interval RTS smoother: (T, 30) means after each frame's predict
    and after its updates, (T, 30, 30) covariances after them -> smoothed means."""
    f, _, q = textbook_model()
    smoothed = [filtered[-1]]
    for k in range(len(filtered) - 2, -1, -1):
        p_p = f @ filtered_cov[k] @ f.T + q
        gain = filtered_cov[k] @ f.T @ np.linalg.inv(p_p)
        smoothed.insert(0, filtered[k] + gain @ (smoothed[0] - predicted[k + 1]))
    return np.array(smoothed)


def test_bank_matches_textbook_body_shape_filter(skel, placement):
    # A short clip of random accelerations with valid, invalid (one of
    # them NaN) and gated-out ranges: the filter follows the textbook
    # filter, and a round without an accepted range leaves it bitwise.
    rng = derive_rng(7, "ekf", "batched")
    bank = make_bank(skel, placement)
    m, p = bank.mean[0].copy(), bank.cov[0].copy()
    gates = gate_table()
    empty = 0
    with np.errstate(all="raise"):
        for k in range(120):
            accel = rng.normal(0.0, 2.0, (N_SENSORS, 3))
            bank.predict(accel[None])
            m, p = reference_predict(m, p, accel)
            if k % 3 == 0:
                d = _distance_matrices(bank.mean)[0] + rng.normal(0.0, 0.05, (N_SENSORS, N_SENSORS))
                valid = rng.random((N_SENSORS, N_SENSORS)) < (0.7 if k % 9 else 0.0)
                d[0, 3] = d[3, 0] = 99.0  # past every gate
                d[1, 4] = d[4, 1] = -0.2  # below the lower gate
                d[2, 5] = d[5, 2] = math.nan
                valid[2, 5] = valid[5, 2] = False
                before = bank.mean.copy(), bank.cov.copy()
                bank.update(d[None], valid[None])
                ranges = accepted(d, valid, gates)
                if ranges:
                    m, p = reference_update(m, p, ranges)
                else:
                    empty += 1
                    assert np.array_equal(bank.mean, before[0]) and np.array_equal(bank.cov, before[1])
            assert np.abs(bank.mean[0] - m).max() < 1e-12
            assert np.abs(bank.cov[0] - p).max() < 1e-12
    assert empty >= 10


def test_bank_smoother_matches_textbook_rts(skel, placement):
    # A causal run with ranges near the T-pose distances every third frame,
    # some invalid, NaN or gated out, then the backward pass: the smoothed
    # distances follow the textbook filter and RTS smoother, and the last
    # frame keeps its filtered distances bitwise.
    rng = derive_rng(7, "ekf", "smooth")
    frames = 90
    round_frames = np.arange(0, frames, 3)
    bank = make_bank(skel, placement)
    d0 = _distance_matrices(bank.mean)
    accel = rng.normal(0.0, 2.0, (frames, 1, N_SENSORS, 3))
    ranges = d0 + rng.normal(0.0, 0.05, (round_frames.size, 1, N_SENSORS, N_SENSORS))
    valid = rng.random(ranges.shape) < 0.7
    ranges[::4, 0, 0, 3] = 99.0  # past every gate
    ranges[1::4, 0, 2, 5] = math.nan
    valid[1::4, 0, 2, 5] = False
    gates = gate_table()
    m, p = bank.mean[0].copy(), bank.cov[0].copy()
    predicted, filtered, filtered_cov = [], [], []
    for k in range(frames):
        m, p = reference_predict(m, p, accel[k, 0])
        predicted.append(m)
        for r in np.flatnonzero(round_frames == k):
            m, p = reference_update(m, p, accepted(ranges[r, 0], valid[r, 0], gates))
        filtered.append(m)
        filtered_cov.append(p)
    expected = _distance_matrices(reference_smooth(predicted, filtered, filtered_cov))
    with np.errstate(all="raise"):
        d_stream = bank.run(accel, round_frames, ranges, valid)
        smoothed = bank.smooth()
    assert smoothed.shape == (frames, 1, N_SENSORS, N_SENSORS)
    assert np.abs(smoothed[:, 0] - expected).max() < 1e-12
    assert np.abs(d_stream[:, 0] - _distance_matrices(np.array(filtered))).max() < 1e-12
    assert np.array_equal(smoothed[-1], d_stream[-1])
    assert np.abs(smoothed[:-1] - d_stream[:-1]).max() > 1e-3  # the backward pass moved the earlier frames


def test_stacked_bank_smooths_each_clip_as_its_own_bank(skel, placement):
    rng = derive_rng(7, "ekf", "stacked", "smooth")
    frames = 60
    round_frames = np.sort(rng.integers(0, frames + 5, 30))
    accel, d, valid = _stack(_stacked_clip_inputs(rng, frames, round_frames.size))
    stacked = make_bank(skel, placement, clips=3)
    singles = [make_bank(skel, placement) for _ in range(3)]
    with pytest.raises(ContractViolationError):
        stacked.smooth()  # nothing run yet
    with np.errstate(all="raise"):
        stacked.run(accel, round_frames, d, valid)
        smoothed = stacked.smooth()
        for c, bank in enumerate(singles):
            bank.run(accel[:, [c]], round_frames, d[:, [c]], valid[:, [c]])
            assert np.array_equal(smoothed[:, c], bank.smooth()[:, 0]), c


def test_bank_nonfinite_accel_diverges_exactly_that_sensors_pairs(skel, placement):
    # An infinite sample of sensor 2 makes its block of the state, and so
    # the distances of its five pairs, non-finite; every other distance and
    # the covariance stay finite, and `run` stops at that frame.
    bank = make_bank(skel, placement)
    accel = np.ones((1, N_SENSORS, 3))
    accel[0, 2, 1] = math.inf
    with np.errstate(invalid="ignore"):
        bank.predict(accel)
        d = _distance_matrices(bank.mean)[0]
    assert np.array_equal(np.flatnonzero(~np.isfinite(bank.mean[0])), [3 + 1, 15 + 3 + 1])  # sensor 2's y, p and v
    assert np.isfinite(bank.cov).all()
    hit = np.zeros((N_SENSORS, N_SENSORS), dtype=bool)
    hit[2], hit[:, 2] = True, True
    assert np.array_equal(~np.isfinite(d), hit)
    no_rounds = np.zeros((0, 1, N_SENSORS, N_SENSORS))
    clip = np.concatenate([np.zeros((3, 1, N_SENSORS, 3)), accel[None]])
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match=r"frame 3$"):
        make_bank(skel, placement).run(clip, np.zeros(0, dtype=int), no_rounds, no_rounds > 0)


def test_bank_run_checks_shapes(skel, placement):
    bank = make_bank(skel, placement)
    ranges = np.zeros((2, 1, N_SENSORS, N_SENSORS))
    valid = ranges.astype(bool)
    d = bank.run(np.zeros((3, 1, N_SENSORS, 3)), np.array([0, 2]), ranges, valid)
    assert d.shape == (3, 1, N_SENSORS, N_SENSORS)
    for accel, frames, r, v in (
        (np.zeros((3, 1, N_SENSORS, 2)), np.array([0, 2]), ranges, valid),
        (np.zeros((3, 1, N_SENSORS, 3)), np.array([0]), ranges, valid),
        (np.zeros((3, 1, N_SENSORS, 3)), np.array([0, 2]), ranges, valid[:, :, :5]),
    ):
        with pytest.raises(ContractViolationError):
            bank.run(accel, frames, r, v)


def _stacked_clip_inputs(rng, frames: int, rounds: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Three clips' accelerations (T, 6, 3), ranges and validity (R, 6, 6).

    Clip 0 has mostly valid ranges, clip 1 NaN and gated-out ones too,
    clip 2 whole rounds without a valid range.
    """
    inputs = []
    for c in range(3):
        accel = rng.normal(0.0, 2.0, (frames, N_SENSORS, 3))
        d = rng.uniform(0.1, 1.2, (rounds, N_SENSORS, N_SENSORS))
        d = 0.5 * (d + d.swapaxes(1, 2))
        valid = rng.random((rounds, N_SENSORS, N_SENSORS)) < (0.9, 0.6, 0.5)[c]
        if c == 1:
            d[:, 0, 3] = d[:, 3, 0] = 99.0  # past every gate
            d[:, 1, 4] = d[:, 4, 1] = -0.2  # below the lower gate
            d[:, 2, 5] = d[:, 5, 2] = math.nan
            valid[:, 2, 5] = valid[:, 5, 2] = False
        if c == 2:
            valid[::3] = False
        inputs.append((accel, d, valid))
    return inputs


def _assert_banks_bitwise(stacked, singles) -> None:
    for c, single in enumerate(singles):
        for name in ("mean", "cov"):
            assert np.array_equal(getattr(stacked, name)[c], getattr(single, name)[0], equal_nan=True), (c, name)


def _stack(inputs):
    """Per-clip (accel, ranges, validity) -> the stacked filter's (T, C, ...) and (R, C, ...) arguments."""
    return [np.stack(arrays, axis=1) for arrays in zip(*inputs)]


def test_stacked_bank_steps_each_clip_as_its_own_bank(skel, placement):
    # Three clips in one filter against three one-clip filters: the state
    # and the causal (T, C, 6, 6) distances are bitwise the single ones'.
    # Rounds share frames, and a few fall past the last frame.
    rng = derive_rng(7, "ekf", "stacked")
    frames = 60
    round_frames = np.sort(rng.integers(0, frames + 5, 30))
    inputs = _stacked_clip_inputs(rng, frames, round_frames.size)
    stacked = make_bank(skel, placement, clips=3)
    singles = [make_bank(skel, placement) for _ in range(3)]
    assert stacked.mean.shape == (3, STATE) and stacked.cov.shape == (3, STATE, STATE)
    _assert_banks_bitwise(stacked, singles)
    accel, d, valid = _stack(inputs)
    with np.errstate(all="raise"):
        d_stream = stacked.run(accel, round_frames, d, valid)
        single_out = [bank.run(accel[:, [c]], round_frames, d[:, [c]], valid[:, [c]]) for c, bank in enumerate(singles)]
    assert d_stream.shape == (frames, 3, N_SENSORS, N_SENSORS)
    for c, d_single in enumerate(single_out):
        assert np.array_equal(d_stream[:, c], d_single[:, 0])
    _assert_banks_bitwise(stacked, singles)


def test_stacked_bank_divergence_stays_in_its_clip(skel, placement):
    # A finite 1e300 acceleration of sensor 4 in clip 1 overflows the range
    # update of its pairs: clip 1's state goes non-finite in the stacked
    # filter exactly as in its own, and clips 0 and 2 stay bitwise theirs.
    rng = derive_rng(7, "ekf", "stacked", "diverge")
    frames = 20
    inputs = _stacked_clip_inputs(rng, frames, frames)
    inputs[1][0][-1, 4] = 1e300
    inputs[1][1][-1] = 0.3  # inside every gate
    inputs[1][2][-1] = EVERY_PAIR
    accel, d, valid = _stack(inputs)
    stacked = make_bank(skel, placement, clips=3)
    singles = [make_bank(skel, placement) for _ in range(3)]
    with np.errstate(all="ignore"):
        for k in range(frames):
            stacked.predict(accel[k])
            stacked.update(d[k], valid[k])
            for c, bank in enumerate(singles):
                bank.predict(accel[k, [c]])
                bank.update(d[k, [c]], valid[k, [c]])
            _assert_banks_bitwise(stacked, singles)
    assert not np.isfinite(stacked.mean[1]).all()
    assert np.isfinite(stacked.mean[[0, 2]]).all() and np.isfinite(stacked.cov[[0, 2]]).all()

    # run() stops with DivergenceError at the step that went non-finite.
    stacked = make_bank(skel, placement, clips=3)
    names = ["walk", "squat", "idle"]
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match=r"^squat: body-shape filter diverged at frame 19$"):
            stacked.run(accel, np.arange(frames), d, valid, names=names)


def test_bank_run_raises_divergence_before_predicting_past_it(skel, placement):
    bank = make_bank(skel, placement)
    predicted = []
    predict = bank.predict
    bank.predict = lambda accel: (predicted.append(len(predicted)), predict(accel))
    accel = np.zeros((5, 1, N_SENSORS, 3))
    accel[2, 0, 3] = math.inf
    ranges = np.zeros((0, 1, N_SENSORS, N_SENSORS))
    with pytest.raises(DivergenceError, match=r"^clip 0: body-shape filter diverged at frame 2$"):
        bank.run(accel, np.zeros(0, dtype=int), ranges, ranges.astype(bool))
    assert predicted == [0, 1, 2]


def test_bank_clip_count_shapes(skel, placement):
    bank = make_bank(skel, placement, clips=2)
    ranges = np.zeros((2, 2, N_SENSORS, N_SENSORS))
    with pytest.raises(ContractViolationError):
        bank.run(np.zeros((3, N_SENSORS, 3)), np.array([0, 2]), ranges[:, 0], ranges[:, 0].astype(bool))
    d = bank.run(np.zeros((3, 2, N_SENSORS, 3)), np.array([0, 2]), ranges, ranges.astype(bool))
    assert d.shape == (3, 2, N_SENSORS, N_SENSORS)
    with pytest.raises(ContractViolationError):
        BodyShapeFilter(skel, placement, SIGMA_A, R_SIGMA, dt=DT, clips=0)
    with pytest.raises(TypeError):
        BodyShapeFilter(skel, placement, SIGMA_A, R_SIGMA, dt=DT)  # the clip count is required
