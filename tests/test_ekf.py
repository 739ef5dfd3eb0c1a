"""Pair filter mathematics: Jacobians, gating, covariance health."""
import math

import numpy as np
import pytest

from conftest import pair_transition
from uip.errors import ContractViolationError, DivergenceError
from uip.ekf import (
    PairFilterBank,
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
SIGMA_U = np.concatenate([np.full(6, SIGMA_A), np.zeros(6)])
R_DIAG = (0.06, 0.5)


def make_bank(skel, placement, r_diag=R_DIAG, clips: int = 1) -> PairFilterBank:
    return PairFilterBank(skel, placement, SIGMA_U, r_diag, dt=DT, clips=clips)


def random_covariances(rng, count: int) -> np.ndarray:
    a = rng.normal(0.0, 0.3, (count, 6, 6))
    return a @ a.swapaxes(1, 2) + 0.01 * np.eye(6)


def pair_mask(*pairs) -> np.ndarray:
    """(1, 6, 6) validity with exactly the given pairs measured."""
    valid = np.zeros((1, N_SENSORS, N_SENSORS), dtype=bool)
    for i, j in pairs:
        valid[0, i, j] = valid[0, j, i] = True
    return valid


def test_state_jacobian_matches_finite_differences(skel, placement):
    rng = derive_rng(7, "ekf", "fj")
    bank = make_bank(skel, placement)
    f = state_jacobian(DT)
    eps = 1e-6
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 6)
        fd = np.zeros((6, 6))
        for c in range(6):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += eps
            xm[c] -= eps
            fd[:, c] = (pair_transition(bank, xp, u0) - pair_transition(bank, xm, u0)) / (2 * eps)
        assert np.abs(f - fd).max() < 1e-9


def test_input_jacobian_matches_finite_differences(skel, placement):
    rng = derive_rng(7, "ekf", "wj")
    bank = make_bank(skel, placement)
    w = input_jacobian(DT)
    eps = 1e-6
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 6)
        fd = np.zeros((6, 6))
        for c in range(6):
            up, um = u0.copy(), u0.copy()
            up[c] += eps
            um[c] -= eps
            fd[:, c] = (pair_transition(bank, x0, up) - pair_transition(bank, x0, um)) / (2 * eps)
        # a_j columns carry +, a_i columns -.
        assert np.abs(w[:, :6] - fd).max() < 1e-9
    # The bank takes no orientation input, so those columns stay 0.
    assert not w[:, 6:].any()


def test_measurement_jacobian_matches_finite_differences():
    rng = derive_rng(7, "ekf", "hj")
    eps = 1e-7
    for _ in range(50):
        z6 = rng.normal(0.0, 0.5, 6)
        if np.linalg.norm(z6[:3]) < 0.01 or np.linalg.norm(z6[3:]) < 0.01:
            continue
        _, hm = _measure(z6[None, :3], z6[None, 3:])
        fd = np.zeros((2, 6))
        for c in range(6):
            zp, zm = z6.copy(), z6.copy()
            zp[c] += eps
            zm[c] -= eps
            hp = _measure(zp[None, :3], zp[None, 3:])[0][0]
            hmn = _measure(zm[None, :3], zm[None, 3:])[0][0]
            fd[:, c] = (hp - hmn) / (2 * eps)
        assert np.abs(hm[0] - fd).max() < 1e-6


def test_measurement_jacobian_zeroes_degenerate_rows():
    _, hm = _measure(np.zeros((1, 3)), np.array([[0.0, 0.0, 0.5]]))
    assert np.array_equal(hm[0, 0], np.zeros(6))
    assert np.allclose(hm[0, 1, 3:6], [0.0, 0.0, 1.0])


def test_process_noise_shape_and_psd():
    q = process_noise(DT, SIGMA_U)
    assert q.shape == (6, 6)
    assert_psd(q)
    with pytest.raises(ContractViolationError):
        process_noise(DT, np.ones(3))


def test_predict_integrates_relative_acceleration(skel, placement):
    bank = make_bank(skel, placement)
    bank.x[0, 0], bank.v[0, 0], bank.cov[0, 0] = (1.0, 0.0, 0.0), (0.0, 0.2, 0.0), 0.01 * np.eye(6)
    accel = np.zeros((1, N_SENSORS, 3))
    accel[0, 1] = (2.0, 0.0, 0.0)
    bank.predict_all(accel)
    assert np.allclose(bank.x[0, 0], [1.0 + 0.5 * 2.0 * DT**2, 0.2 * DT, 0.0], atol=1e-12)
    assert np.allclose(bank.v[0, 0], [2.0 * DT, 0.2, 0.0], atol=1e-12)


def test_predict_marks_divergence_on_nonfinite_input(skel, placement):
    bank = make_bank(skel, placement)
    accel = np.zeros((1, N_SENSORS, 3))
    accel[0, 0, 0] = math.nan
    bank.predict_all(accel)
    assert np.array_equal(bank.diverged[0], PAIR_I == 0)
    with pytest.raises(ContractViolationError):
        bank.predict_all(np.zeros((1, N_SENSORS, 3)))


def test_update_moves_estimate_toward_range(skel, placement):
    bank = make_bank(skel, placement)
    bank.x[0, 0], bank.v[0, 0], bank.cov[0, 0] = (0.8, 0.0, 0.0), 0.0, 0.04 * np.eye(6)
    d = np.zeros((1, N_SENSORS, N_SENSORS))
    d[0, 0, 1] = d[0, 1, 0] = 1.0
    bank.update_all(d, pair_mask((0, 1)))
    dist = float(np.linalg.norm(bank.x[0, 0]))
    assert 0.8 < dist <= 1.0
    assert bank.cov[0, 0, 0, 0] < 0.04


def test_update_outside_gate_leaves_state_bitwise(skel, placement):
    rng = derive_rng(7, "ekf", "gate")
    bank = make_bank(skel, placement)
    bank.x[0], bank.v[0] = rng.normal(0.0, 0.5, (2, PAIR_I.size, 3))
    bank.cov[0] = random_covariances(rng, PAIR_I.size)
    before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
    every_pair = ~np.eye(N_SENSORS, dtype=bool)[None]
    for d in (99.0, -0.5):  # past every gate, below the lower one
        bank.update_all(np.full((1, N_SENSORS, N_SENSORS), d), every_pair)
        for held, old in zip((bank.x, bank.v, bank.cov), before):
            assert np.array_equal(held, old)


def test_update_gates_each_pair_at_its_gate_table_entry(skel, placement):
    # Every pair measured at 0.99x its gate updates; at 1.01x it stays bitwise.
    rng = derive_rng(7, "ekf", "gate-edge")
    gates = gate_table()
    every_pair = ~np.eye(N_SENSORS, dtype=bool)[None]
    for scale in (0.99, 1.01):
        bank = make_bank(skel, placement)
        bank.x[0], bank.v[0] = rng.normal(0.0, 0.5, (2, PAIR_I.size, 3))
        bank.cov[0] = random_covariances(rng, PAIR_I.size)
        before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
        bank.update_all((scale * gates)[None], every_pair)
        for held, old in zip((bank.x, bank.v, bank.cov), before):
            moved = (held != old).reshape(PAIR_I.size, -1).any(axis=1)
            assert moved.all() if scale < 1.0 else not moved.any()


def test_update_keeps_covariance_psd_with_tiny_r(skel, placement):
    # 210 random pair states (14 clips of 15 pairs) take one range update
    # each with 0.1 mm noise; pairs whose range falls past their gate keep
    # their (PSD) state.
    rng = derive_rng(7, "ekf", "joseph")
    bank = make_bank(skel, placement, (1e-4, 1e-4), clips=14)
    bank.x[:], bank.v[:] = rng.normal(0.0, 0.5, (2, 14, PAIR_I.size, 3))
    bank.cov[:] = random_covariances(rng, 14 * PAIR_I.size).reshape(14, PAIR_I.size, 6, 6)
    before = bank.cov.copy()
    d = np.zeros((14, N_SENSORS, N_SENSORS))
    d[:, PAIR_I, PAIR_J] = np.linalg.norm(bank.x, axis=2) + rng.normal(0.0, 0.05, (14, PAIR_I.size))
    d += d.swapaxes(1, 2)
    bank.update_all(d, np.broadcast_to(~np.eye(N_SENSORS, dtype=bool), d.shape))
    updated = (bank.cov != before).any(axis=(2, 3))
    assert updated.sum() > 100
    for cov in bank.cov.reshape(-1, 6, 6):
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
    pos, _ = mount_poses(placement.mounts, *tpose(skel))
    bank = make_bank(skel, placement)
    assert bank.x.shape == bank.v.shape == (1, 15, 3)
    assert bank.cov.shape == (1, 15, 6, 6)
    assert not bank.diverged.any()
    for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J)):
        assert np.array_equal(bank.x[0, p], pos[j] - pos[i])
        assert np.array_equal(bank.v[0, p], np.zeros(3))
        assert_psd(bank.cov[0, p])


def test_bank_tracks_a_moving_pair(skel, placement):
    # Drive the full bank with exact controls for a synthetic relative
    # motion; the range updates must keep distance error well under the
    # raw noise level.
    rng = derive_rng(7, "ekf", "bank")
    bank = make_bank(skel, placement)
    base = {(i, j): bank.x[0, p].copy() for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J))}
    sigma = 0.05
    amp, w = 0.1, 2 * math.pi * 0.5
    errs = []
    for k in range(400):
        t = k * DT
        # sensor 1 oscillates along x starting from rest (matching the
        # filter's zero initial velocity); everything else is still
        a1 = amp * w * w * math.cos(w * t)
        accel = np.zeros((1, N_SENSORS, 3))
        accel[0, 1, 0] = a1
        bank.predict_all(accel)
        offset = amp * (1.0 - math.cos(w * t))
        if k % 4 == 0:
            d = np.zeros((1, N_SENSORS, N_SENSORS))
            for i in range(N_SENSORS):
                for j in range(i + 1, N_SENSORS):
                    x = base[(i, j)].copy()
                    if i == 1:
                        x[0] -= offset
                    if j == 1:
                        x[0] += offset
                    d[0, i, j] = d[0, j, i] = np.linalg.norm(x) + rng.normal(0.0, sigma)
            bank.update_all(d, ~np.eye(N_SENSORS, dtype=bool)[None])
        est, mask = bank.distance_matrix()
        assert mask[0, 0, 1]
        x_true = base[(0, 1)].copy()
        x_true[0] += offset
        errs.append(abs(est[0, 0, 1] - np.linalg.norm(x_true)))
    assert np.mean(errs[100:]) < sigma / 2


def test_bank_distance_matrix_symmetric(skel, placement):
    d, mask = make_bank(skel, placement).distance_matrix()
    assert d.shape == mask.shape == (1, N_SENSORS, N_SENSORS)
    d, mask = d[0], mask[0]
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(N_SENSORS))
    assert mask[~np.eye(N_SENSORS, dtype=bool)].all()
    assert not mask.diagonal().any()


def reference_predict(x, v, p, da):
    """Constant-velocity EKF prediction of one pair, from the textbook equations.

    The relative acceleration da = a_j - a_i drives (x, v) through
    G = [dt^2/2 I; dt I]; as the difference of two sensors' independent
    noises it has variance 2 sigma_a^2 per axis, so Q = 2 sigma_a^2 G G^T.
    """
    f = np.block([[np.eye(3), DT * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
    g = np.vstack([0.5 * DT**2 * np.eye(3), DT * np.eye(3)])
    q = 2.0 * SIGMA_A**2 * g @ g.T
    return x + DT * v + 0.5 * DT**2 * da, v + DT * da, f @ p @ f.T + q


def reference_update(x, v, p, d):
    """Range update of one pair, from the textbook equations.

    h = [|x|, |v|]; a Jacobian row is zero where its norm is under 1 mm
    (1 mm/s). The speed row's innovation is zero. The covariance takes the
    Joseph form.
    """
    h = np.zeros((2, 6))
    for row, vec in enumerate((x, v)):
        norm = np.linalg.norm(vec)
        if norm >= 1e-3:
            h[row, 3 * row : 3 * row + 3] = vec / norm
    r = np.diag(np.square(R_DIAG))
    s = h @ p @ h.T + r
    k = p @ h.T @ np.linalg.inv(s)
    dz = k @ np.array([d - np.linalg.norm(x), 0.0])
    ikh = np.eye(6) - k @ h
    return x + dz[:3], v + dz[3:], ikh @ p @ ikh.T + k @ r @ k.T


def test_bank_matches_fifteen_single_pair_filters(skel, placement):
    # A short clip of random accelerations with valid, invalid (one of
    # them NaN) and gated-out ranges: every bank row must follow its own
    # textbook filter, and a pair without an accepted range must not move
    # at all in the update.
    rng = derive_rng(7, "ekf", "batched")
    bank = make_bank(skel, placement)
    states = [(bank.x[0, p].copy(), bank.v[0, p].copy(), bank.cov[0, p].copy()) for p in range(PAIR_I.size)]
    gates = gate_table()
    skipped = 0
    with np.errstate(all="raise"):
        for k in range(120):
            accel = rng.normal(0.0, 2.0, (N_SENSORS, 3))
            bank.predict_all(accel[None])
            states = [reference_predict(*st, accel[j] - accel[i]) for st, i, j in zip(states, PAIR_I, PAIR_J)]
            if k % 3 == 0:
                d, _ = bank.distance_matrix()
                d = d[0] + rng.normal(0.0, 0.05, (N_SENSORS, N_SENSORS))
                valid = rng.random((N_SENSORS, N_SENSORS)) < 0.7
                d[0, 3] = d[3, 0] = 99.0  # past every gate
                d[1, 4] = d[4, 1] = -0.2  # below the lower gate
                d[2, 5] = d[5, 2] = math.nan
                valid[2, 5] = valid[5, 2] = False
                before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
                bank.update_all(d[None], valid[None])
                for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J)):
                    if valid[i, j] and 0.0 <= d[i, j] <= gates[i, j]:
                        states[p] = reference_update(*states[p], d[i, j])
                    else:
                        skipped += 1
                        for held, old in zip((bank.x, bank.v, bank.cov), before):
                            assert np.array_equal(held[0, p], old[0, p])
            for p, (x, v, cov) in enumerate(states):
                assert np.abs(bank.x[0, p] - x).max() < 1e-12
                assert np.abs(bank.v[0, p] - v).max() < 1e-12
                assert np.abs(bank.cov[0, p] - cov).max() < 1e-12
    assert skipped >= 3 * 40
    assert not bank.diverged.any()


def test_bank_skips_singular_updates_bitwise(skel, placement):
    # With zero measurement noise, a pair whose |x| and |v| are both under
    # the norm floor has H = 0 and S = 0: its update is skipped.
    bank = make_bank(skel, placement, (0.0, 0.0))
    bank.predict_all(np.arange(N_SENSORS * 3, dtype=float).reshape(1, N_SENSORS, 3))
    bank.x[0, 3] = bank.v[0, 3] = 0.0
    before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
    d = np.full((1, N_SENSORS, N_SENSORS), 0.5)
    with np.errstate(all="raise"):
        bank.update_all(d, ~np.eye(N_SENSORS, dtype=bool)[None])
    for held, old in zip((bank.x, bank.v, bank.cov), before):
        assert np.array_equal(held[0, 3], old[0, 3])
    assert (bank.x != before[0]).any(axis=2).sum() == PAIR_I.size - 1


def test_bank_nonfinite_accel_diverges_exactly_that_sensors_pairs(skel, placement):
    bank = make_bank(skel, placement)
    before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
    accel = np.ones((1, N_SENSORS, 3))
    accel[0, 2, 1] = math.inf
    hit = (PAIR_I == 2) | (PAIR_J == 2)
    with np.errstate(all="raise"):
        bank.predict_all(accel)
        assert np.array_equal(bank.diverged[0], hit)
        assert hit.sum() == 5
        for held, old in zip((bank.x, bank.v, bank.cov), before):
            assert np.array_equal(held[0, hit], old[0, hit])
        d, mask = bank.distance_matrix()
        d, mask = d[0], mask[0]
        assert not mask[2].any() and not mask[:, 2].any()
        assert np.array_equal(d[2], np.zeros(N_SENSORS))
        others = np.delete(np.delete(mask, 2, axis=0), 2, axis=1)
        assert others[~np.eye(N_SENSORS - 1, dtype=bool)].all()
        ones = np.ones((1, N_SENSORS, N_SENSORS))
        bank.update_all(ones, pair_mask((0, 1)))  # measures no diverged pair
        with pytest.raises(ContractViolationError):
            bank.update_all(ones, pair_mask((0, 1), (1, 2)))
        with pytest.raises(ContractViolationError):
            bank.predict_all(np.zeros((1, N_SENSORS, 3)))


def test_bank_run_checks_shapes(skel, placement):
    bank = make_bank(skel, placement)
    ranges = np.zeros((2, 1, N_SENSORS, N_SENSORS))
    valid = ranges.astype(bool)
    d, mask = bank.run(np.zeros((3, 1, N_SENSORS, 3)), np.array([0, 2]), ranges, valid)
    assert d.shape == mask.shape == (3, 1, N_SENSORS, N_SENSORS)
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
        for name in ("x", "v", "cov", "diverged"):
            assert np.array_equal(getattr(stacked, name)[c], getattr(single, name)[0]), (c, name)


def _stack(inputs):
    """Per-clip (accel, ranges, validity) -> the stacked bank's (T, C, ...) and (R, C, ...) arguments."""
    return [np.stack(arrays, axis=1) for arrays in zip(*inputs)]


def test_stacked_bank_steps_each_clip_as_its_own_bank(skel, placement):
    # Three clips in one bank against three one-clip banks: every state
    # array and both (T, C, 6, 6) streams are bitwise the single banks'.
    # Rounds share frames, and a few fall past the last frame.
    rng = derive_rng(7, "ekf", "stacked")
    frames = 60
    round_frames = np.sort(rng.integers(0, frames + 5, 30))
    inputs = _stacked_clip_inputs(rng, frames, round_frames.size)
    stacked = make_bank(skel, placement, clips=3)
    singles = [make_bank(skel, placement) for _ in range(3)]
    assert stacked.x.shape == (3, 15, 3) and stacked.cov.shape == (3, 15, 6, 6)
    _assert_banks_bitwise(stacked, singles)
    accel, d, valid = _stack(inputs)
    with np.errstate(all="raise"):
        d_stream, mask_stream = stacked.run(accel, round_frames, d, valid)
        single_out = [bank.run(accel[:, [c]], round_frames, d[:, [c]], valid[:, [c]]) for c, bank in enumerate(singles)]
    assert d_stream.shape == mask_stream.shape == (frames, 3, N_SENSORS, N_SENSORS)
    for c, (d_single, mask_single) in enumerate(single_out):
        assert np.array_equal(d_stream[:, c], d_single[:, 0])
        assert np.array_equal(mask_stream[:, c], mask_single[:, 0])
    _assert_banks_bitwise(stacked, singles)
    assert not stacked.diverged.any()


def test_stacked_bank_divergence_stays_in_its_clip(skel, placement):
    # A finite 1e300 acceleration of sensor 4 in clip 1 overflows the
    # range update of its measured pairs: they diverge in the stacked bank
    # exactly as in clip 1's own bank, clips 0 and 2 stay bitwise their
    # banks, and the stacked bank then refuses to predict.
    rng = derive_rng(7, "ekf", "stacked", "diverge")
    frames = 20
    inputs = _stacked_clip_inputs(rng, frames, frames)
    inputs[1][0][-1, 4] = 1e300
    inputs[1][1][-1] = 0.3  # inside every gate
    inputs[1][2][-1] = ~np.eye(N_SENSORS, dtype=bool)
    accel, d, valid = _stack(inputs)
    stacked = make_bank(skel, placement, clips=3)
    singles = [make_bank(skel, placement) for _ in range(3)]
    with np.errstate(all="ignore"):
        for k in range(frames):
            stacked.predict_all(accel[k])
            stacked.update_all(d[k], valid[k])
            for c, bank in enumerate(singles):
                bank.predict_all(accel[k, c])
                bank.update_all(d[k, c], valid[k, c])
            _assert_banks_bitwise(stacked, singles)
            d_now, mask_now = stacked.distance_matrix()
            for c, bank in enumerate(singles):
                d_single, mask_single = bank.distance_matrix()
                assert np.array_equal(d_now[c], d_single[0]) and np.array_equal(mask_now[c], mask_single[0])
    hit = (PAIR_I == 4) | (PAIR_J == 4)
    assert np.array_equal(stacked.diverged[1], hit)
    assert not stacked.diverged[[0, 2]].any()
    with pytest.raises(ContractViolationError):
        stacked.predict_all(accel[0])

    # run() stops with DivergenceError at the step that diverged the pair.
    stacked = make_bank(skel, placement, clips=3)
    names = ["walk", "squat", "idle"]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"^squat: pair \(0, 4\) diverged at frame 19$"):
        stacked.run(accel, np.arange(frames), d, valid, names=names)


def test_bank_run_raises_divergence_before_predicting_past_it(skel, placement):
    bank = make_bank(skel, placement)
    accel = np.zeros((5, 1, N_SENSORS, 3))
    accel[2, 0, 3] = math.inf
    ranges = np.zeros((0, 1, N_SENSORS, N_SENSORS))
    with pytest.raises(DivergenceError, match=r"^clip 0: pair \(0, 3\) diverged at frame 2$"):
        bank.run(accel, np.zeros(0, dtype=int), ranges, ranges.astype(bool))


def test_bank_clip_count_shapes(skel, placement):
    bank = make_bank(skel, placement, clips=2)
    ranges = np.zeros((2, 2, N_SENSORS, N_SENSORS))
    with pytest.raises(ContractViolationError):
        bank.run(np.zeros((3, N_SENSORS, 3)), np.array([0, 2]), ranges[:, 0], ranges[:, 0].astype(bool))
    d, mask = bank.run(np.zeros((3, 2, N_SENSORS, 3)), np.array([0, 2]), ranges, ranges.astype(bool))
    assert d.shape == mask.shape == (3, 2, N_SENSORS, N_SENSORS)
    with pytest.raises(ContractViolationError):
        PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=0)
    with pytest.raises(TypeError):
        PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)  # the clip count is required
