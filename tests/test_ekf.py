"""Pair filter mathematics: Jacobians, gating, covariance health."""
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError, DivergenceError
from uip.ekf import (
    ControlInput,
    PairFilterBank,
    PairState,
    assert_psd,
    gate_table,
    input_jacobian,
    max_reach,
    measurement,
    measurement_jacobian,
    predict,
    process_noise,
    state_jacobian,
    update,
)
from uip.geometry import qconj, qfrom_axis_angle, qfrom_rotvec, qmul, qnormalize
from uip.rng import derive_rng
from uip.skeleton import N_SENSORS, PAIR_I, PAIR_J, fk_batch, mount_poses, tpose

DT = 0.01
SIGMA_U = np.concatenate([np.full(6, 0.3), np.zeros(6)])
R_DIAG = (0.06, 0.5)
IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def random_state(rng) -> PairState:
    a = rng.normal(0.0, 0.3, (6, 6))
    cov = a @ a.T + 0.01 * np.eye(6)
    return PairState(
        x=rng.normal(0.0, 0.5, 3),
        v=rng.normal(0.0, 0.5, 3),
        q=IDENT,
        cov=cov,
    )


def random_control(rng) -> ControlInput:
    return ControlInput(
        a_i=rng.normal(0.0, 2.0, 3),
        a_j=rng.normal(0.0, 2.0, 3),
        q_i=IDENT,
        q_j=IDENT,
    )


def transition(x6: np.ndarray, u12: np.ndarray) -> np.ndarray:
    """The mean propagation as a plain function of state and input."""
    st = PairState(x=x6[:3].copy(), v=x6[3:].copy(), q=IDENT, cov=np.eye(6))
    u = ControlInput(
        a_i=u12[0:3],
        a_j=u12[3:6],
        q_i=IDENT,
        q_j=IDENT,
    )
    out = predict(st, u, DT, SIGMA_U)
    return np.concatenate([out.x, out.v])


def test_state_jacobian_matches_finite_differences():
    rng = derive_rng(7, "ekf", "fj")
    f = state_jacobian(DT)
    eps = 1e-6
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 12)
        fd = np.zeros((6, 6))
        for c in range(6):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += eps
            xm[c] -= eps
            fd[:, c] = (transition(xp, u0) - transition(xm, u0)) / (2 * eps)
        assert np.abs(f - fd).max() < 1e-9


def test_input_jacobian_matches_finite_differences():
    rng = derive_rng(7, "ekf", "wj")
    w = input_jacobian(DT)
    eps = 1e-6
    for _ in range(50):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 12)
        fd = np.zeros((6, 12))
        for c in range(12):
            up, um = u0.copy(), u0.copy()
            up[c] += eps
            um[c] -= eps
            fd[:, c] = (transition(x0, up) - transition(x0, um)) / (2 * eps)
        # a_j columns carry +, a_i columns -, orientation columns stay 0.
        assert np.abs(w - fd).max() < 1e-9


def test_measurement_jacobian_matches_finite_differences():
    rng = derive_rng(7, "ekf", "hj")
    eps = 1e-7
    for _ in range(50):
        st = random_state(rng)
        if np.linalg.norm(st.x) < 0.01 or np.linalg.norm(st.v) < 0.01:
            continue
        hm = measurement_jacobian(st)
        z6 = np.concatenate([st.x, st.v])
        fd = np.zeros((2, 6))
        for c in range(6):
            zp, zm = z6.copy(), z6.copy()
            zp[c] += eps
            zm[c] -= eps
            hp = measurement(PairState(zp[:3], zp[3:], st.q, st.cov))
            hmn = measurement(PairState(zm[:3], zm[3:], st.q, st.cov))
            fd[:, c] = (hp - hmn) / (2 * eps)
        assert np.abs(hm - fd).max() < 1e-6


def test_measurement_jacobian_zeroes_degenerate_rows():
    st = PairState(np.zeros(3), np.array([0.0, 0.0, 0.5]), IDENT, np.eye(6))
    hm = measurement_jacobian(st)
    assert np.array_equal(hm[0], np.zeros(6))
    assert np.allclose(hm[1, 3:6], [0.0, 0.0, 1.0])


def test_process_noise_shape_and_psd():
    q = process_noise(DT, SIGMA_U)
    assert q.shape == (6, 6)
    assert_psd(q)
    with pytest.raises(ContractViolationError):
        process_noise(DT, np.ones(3))


def test_predict_integrates_relative_acceleration():
    st = PairState(
        x=np.array([1.0, 0.0, 0.0]),
        v=np.array([0.0, 0.2, 0.0]),
        q=IDENT,
        cov=np.eye(6) * 0.01,
    )
    q_i = qfrom_axis_angle([0, 0, 1], 0.4)
    q_j = qfrom_axis_angle([1, 0, 0], -0.7)
    u = ControlInput(a_i=np.array([0.0, 0.0, 0.0]), a_j=np.array([2.0, 0.0, 0.0]), q_i=q_i, q_j=q_j)
    out = predict(st, u, DT, SIGMA_U)
    assert np.allclose(out.x, [1.0 + 0.5 * 2.0 * DT**2, 0.2 * DT, 0.0], atol=1e-12)
    assert np.allclose(out.v, [2.0 * DT, 0.2, 0.0], atol=1e-12)
    assert np.array_equal(out.q, qnormalize(qmul(qconj(q_i), q_j)))


def test_predict_marks_divergence_on_nonfinite_input():
    st = random_state(derive_rng(7, "ekf", "div"))
    u = ControlInput(
        a_i=np.array([math.nan, 0.0, 0.0]),
        a_j=np.zeros(3),
        q_i=IDENT,
        q_j=IDENT,
    )
    out = predict(st, u, DT, SIGMA_U)
    assert out.diverged
    with pytest.raises(ContractViolationError):
        predict(out, random_control(derive_rng(7, "ekf", "x")), DT, SIGMA_U)


def test_update_moves_estimate_toward_range():
    st = PairState(
        x=np.array([0.8, 0.0, 0.0]),
        v=np.zeros(3),
        q=IDENT,
        cov=np.eye(6) * 0.04,
    )
    out = update(st, 1.0, (0.0, 3.0), R_DIAG)
    d = float(np.linalg.norm(out.x))
    assert 0.8 < d <= 1.0
    assert out.cov[0, 0] < st.cov[0, 0]


def test_update_outside_gate_returns_same_object():
    st = random_state(derive_rng(7, "ekf", "gate"))
    out = update(st, 99.0, (0.0, 3.0), R_DIAG)
    assert out is st
    out = update(st, -0.5, (0.0, 3.0), R_DIAG)
    assert out is st


def test_update_keeps_covariance_psd_with_tiny_r():
    rng = derive_rng(7, "ekf", "joseph")
    for _ in range(200):
        st = random_state(rng)
        d = float(np.linalg.norm(st.x)) + rng.normal(0.0, 0.05)
        out = update(st, d, (0.0, 10.0), (1e-4, 1e-4))
        if out is not st:
            assert_psd(out.cov)


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
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    assert bank.x.shape == bank.v.shape == (15, 3)
    assert bank.cov.shape == (15, 6, 6)
    assert not bank.diverged.any()
    for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J)):
        assert np.array_equal(bank.x[p], pos[j] - pos[i])
        assert np.array_equal(bank.v[p], np.zeros(3))
        assert_psd(bank.cov[p])


def test_bank_tracks_a_moving_pair(skel, placement):
    # Drive the full bank with exact controls for a synthetic relative
    # motion; the range updates must keep distance error well under the
    # raw noise level.
    rng = derive_rng(7, "ekf", "bank")
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    base = {(i, j): bank.x[p].copy() for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J))}
    sigma = 0.05
    amp, w = 0.1, 2 * math.pi * 0.5
    errs = []
    for k in range(400):
        t = k * DT
        # sensor 1 oscillates along x starting from rest (matching the
        # filter's zero initial velocity); everything else is still
        a1 = amp * w * w * math.cos(w * t)
        accel = np.zeros((N_SENSORS, 3))
        accel[1, 0] = a1
        bank.predict_all(accel)
        offset = amp * (1.0 - math.cos(w * t))
        if k % 4 == 0:
            d = np.zeros((N_SENSORS, N_SENSORS))
            valid = np.ones((N_SENSORS, N_SENSORS), dtype=bool)
            np.fill_diagonal(valid, False)
            for i in range(N_SENSORS):
                for j in range(i + 1, N_SENSORS):
                    x = base[(i, j)].copy()
                    if i == 1:
                        x[0] -= offset
                    if j == 1:
                        x[0] += offset
                    d[i, j] = d[j, i] = np.linalg.norm(x) + rng.normal(0.0, sigma)
            bank.update_all(d, valid)
        est, mask = bank.distance_matrix()
        assert mask[0, 1]
        x_true = base[(0, 1)].copy()
        x_true[0] += offset
        errs.append(abs(est[0, 1] - np.linalg.norm(x_true)))
    assert np.mean(errs[100:]) < sigma / 2


def test_bank_distance_matrix_symmetric(skel, placement):
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    d, mask = bank.distance_matrix()
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(N_SENSORS))
    assert mask[~np.eye(N_SENSORS, dtype=bool)].all()
    assert not mask.diagonal().any()


def _single_pair_states(bank) -> list[PairState]:
    return [
        PairState(bank.x[p].copy(), bank.v[p].copy(), IDENT, bank.cov[p].copy())
        for p in range(PAIR_I.size)
    ]


def test_bank_matches_fifteen_single_pair_filters(skel, placement):
    # A short clip of random accelerations with valid, invalid (one of
    # them NaN) and gated-out ranges: every bank row must follow its own
    # single-pair filter, and a pair without an accepted range must not
    # move at all in the update.
    rng = derive_rng(7, "ekf", "batched")
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    states = _single_pair_states(bank)
    gates = gate_table()
    skipped = 0
    with np.errstate(all="raise"):
        for k in range(120):
            accel = rng.normal(0.0, 2.0, (N_SENSORS, 3))
            bank.predict_all(accel)
            states = [
                predict(st, ControlInput(accel[i], accel[j], IDENT, IDENT), DT, SIGMA_U)
                for st, i, j in zip(states, PAIR_I, PAIR_J)
            ]
            if k % 3 == 0:
                d, _ = bank.distance_matrix()
                d = d + rng.normal(0.0, 0.05, d.shape)
                valid = rng.random((N_SENSORS, N_SENSORS)) < 0.7
                d[0, 3] = d[3, 0] = 99.0  # past every gate
                d[1, 4] = d[4, 1] = -0.2  # below the lower gate
                d[2, 5] = d[5, 2] = math.nan
                valid[2, 5] = valid[5, 2] = False
                before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
                bank.update_all(d, valid)
                for p, (i, j) in enumerate(zip(PAIR_I, PAIR_J)):
                    new = update(states[p], d[i, j], (0.0, gates[i, j]), R_DIAG) if valid[i, j] else states[p]
                    if new is states[p]:
                        skipped += 1
                        for held, old in zip((bank.x, bank.v, bank.cov), before):
                            assert np.array_equal(held[p], old[p])
                    states[p] = new
            for p, st in enumerate(states):
                assert np.abs(bank.x[p] - st.x).max() < 1e-12
                assert np.abs(bank.v[p] - st.v).max() < 1e-12
                assert np.abs(bank.cov[p] - st.cov).max() < 1e-12
    assert skipped >= 3 * 40
    assert not bank.diverged.any()


def test_bank_skips_singular_updates_bitwise(skel, placement):
    # With zero measurement noise, a pair whose |x| and |v| are both under
    # the norm floor has H = 0 and S = 0: its update is skipped.
    bank = PairFilterBank(skel, placement, SIGMA_U, (0.0, 0.0), dt=DT)
    bank.predict_all(np.arange(N_SENSORS * 3, dtype=float).reshape(N_SENSORS, 3))
    bank.x[3] = bank.v[3] = 0.0
    before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
    st = PairState(bank.x[3].copy(), bank.v[3].copy(), IDENT, bank.cov[3].copy())
    assert update(st, 0.5, (0.0, 3.0), (0.0, 0.0)) is st
    d = np.full((N_SENSORS, N_SENSORS), 0.5)
    with np.errstate(all="raise"):
        bank.update_all(d, ~np.eye(N_SENSORS, dtype=bool))
    for held, old in zip((bank.x, bank.v, bank.cov), before):
        assert np.array_equal(held[3], old[3])
    assert (bank.x != before[0]).any(axis=1).sum() == PAIR_I.size - 1


def test_bank_nonfinite_accel_diverges_exactly_that_sensors_pairs(skel, placement):
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    before = bank.x.copy(), bank.v.copy(), bank.cov.copy()
    accel = np.ones((N_SENSORS, 3))
    accel[2, 1] = math.inf
    hit = (PAIR_I == 2) | (PAIR_J == 2)
    with np.errstate(all="raise"):
        bank.predict_all(accel)
        assert np.array_equal(bank.diverged, hit)
        assert hit.sum() == 5
        for held, old in zip((bank.x, bank.v, bank.cov), before):
            assert np.array_equal(held[hit], old[hit])
        d, mask = bank.distance_matrix()
        assert not mask[2].any() and not mask[:, 2].any()
        assert np.array_equal(d[2], np.zeros(N_SENSORS))
        others = np.delete(np.delete(mask, 2, axis=0), 2, axis=1)
        assert others[~np.eye(N_SENSORS - 1, dtype=bool)].all()
        valid = np.zeros((N_SENSORS, N_SENSORS), dtype=bool)
        valid[0, 1] = valid[1, 0] = True
        bank.update_all(np.ones((N_SENSORS, N_SENSORS)), valid)  # measures no diverged pair
        valid[1, 2] = valid[2, 1] = True
        with pytest.raises(ContractViolationError):
            bank.update_all(np.ones((N_SENSORS, N_SENSORS)), valid)
        with pytest.raises(ContractViolationError):
            bank.predict_all(np.zeros((N_SENSORS, 3)))


def test_bank_run_checks_shapes(skel, placement):
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    ranges = np.zeros((2, N_SENSORS, N_SENSORS))
    valid = ranges.astype(bool)
    d, mask = bank.run(np.zeros((3, N_SENSORS, 3)), np.array([0, 2]), ranges, valid)
    assert d.shape == mask.shape == (3, N_SENSORS, N_SENSORS)
    for accel, frames, r, v in (
        (np.zeros((3, N_SENSORS, 2)), np.array([0, 2]), ranges, valid),
        (np.zeros((3, N_SENSORS, 3)), np.array([0]), ranges, valid),
        (np.zeros((3, N_SENSORS, 3)), np.array([0, 2]), ranges, valid[:, :5]),
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
            assert np.array_equal(getattr(stacked, name)[c], getattr(single, name)), (c, name)


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
    stacked = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=3)
    singles = [PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT) for _ in range(3)]
    assert stacked.x.shape == (3, 15, 3) and stacked.cov.shape == (3, 15, 6, 6)
    _assert_banks_bitwise(stacked, singles)
    accel, d, valid = _stack(inputs)
    with np.errstate(all="raise"):
        d_stream, mask_stream = stacked.run(accel, round_frames, d, valid)
        single_out = [bank.run(a, round_frames, dd, v) for bank, (a, dd, v) in zip(singles, inputs)]
    assert d_stream.shape == mask_stream.shape == (frames, 3, N_SENSORS, N_SENSORS)
    for c, (d_single, mask_single) in enumerate(single_out):
        assert np.array_equal(d_stream[:, c], d_single)
        assert np.array_equal(mask_stream[:, c], mask_single)
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
    stacked = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=3)
    singles = [PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT) for _ in range(3)]
    with np.errstate(all="ignore"):
        for k in range(frames):
            stacked.predict_all(accel[k])
            stacked.update_all(d[k], valid[k])
            for bank, (a, dd, v) in zip(singles, inputs):
                bank.predict_all(a[k])
                bank.update_all(dd[k], v[k])
            _assert_banks_bitwise(stacked, singles)
            d_now, mask_now = stacked.distance_matrix()
            for c, bank in enumerate(singles):
                d_single, mask_single = bank.distance_matrix()
                assert np.array_equal(d_now[c], d_single) and np.array_equal(mask_now[c], mask_single)
    hit = (PAIR_I == 4) | (PAIR_J == 4)
    assert np.array_equal(stacked.diverged[1], hit)
    assert not stacked.diverged[[0, 2]].any()
    with pytest.raises(ContractViolationError):
        stacked.predict_all(accel[0])

    # run() stops with DivergenceError at the step that diverged the pair.
    stacked = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=3)
    names = ["walk", "squat", "idle"]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"^squat: pair \(0, 4\) diverged at frame 19$"):
        stacked.run(accel, np.arange(frames), d, valid, names=names)


def test_bank_run_raises_divergence_before_predicting_past_it(skel, placement):
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    accel = np.zeros((5, N_SENSORS, 3))
    accel[2, 3] = math.inf
    ranges = np.zeros((0, N_SENSORS, N_SENSORS))
    with pytest.raises(DivergenceError, match=r"^clip 0: pair \(0, 3\) diverged at frame 2$"):
        bank.run(accel, np.zeros(0, dtype=int), ranges, ranges.astype(bool))


def test_bank_clip_count_shapes(skel, placement):
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=2)
    ranges = np.zeros((2, 2, N_SENSORS, N_SENSORS))
    with pytest.raises(ContractViolationError):
        bank.run(np.zeros((3, N_SENSORS, 3)), np.array([0, 2]), ranges[:, 0], ranges[:, 0].astype(bool))
    d, mask = bank.run(np.zeros((3, 2, N_SENSORS, 3)), np.array([0, 2]), ranges, ranges.astype(bool))
    assert d.shape == mask.shape == (3, 2, N_SENSORS, N_SENSORS)
    with pytest.raises(ContractViolationError):
        PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=0)
