"""Pair filter mathematics: Jacobians, gating, covariance health."""
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError
from uip.ekf import (
    ControlInput,
    PairFilterBank,
    PairState,
    assert_psd,
    distance_estimate,
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
from uip.geometry import Quaternion, Vec3, quat_relative
from uip.rng import derive_rng
from uip.skeleton import N_SENSORS

DT = 0.01
SIGMA_U = np.concatenate([np.full(6, 0.3), np.zeros(6)])
R_DIAG = (0.06, 0.5)


def random_state(rng) -> PairState:
    a = rng.normal(0.0, 0.3, (6, 6))
    cov = a @ a.T + 0.01 * np.eye(6)
    return PairState(
        x=rng.normal(0.0, 0.5, 3),
        v=rng.normal(0.0, 0.5, 3),
        q=Quaternion.identity(),
        cov=cov,
    )


def random_control(rng) -> ControlInput:
    return ControlInput(
        a_i=Vec3(*rng.normal(0.0, 2.0, 3)),
        a_j=Vec3(*rng.normal(0.0, 2.0, 3)),
        q_i=Quaternion.identity(),
        q_j=Quaternion.identity(),
    )


def transition(x6: np.ndarray, u12: np.ndarray) -> np.ndarray:
    """The mean propagation as a plain function of state and input."""
    st = PairState(x=x6[:3].copy(), v=x6[3:].copy(), q=Quaternion.identity(), cov=np.eye(6))
    u = ControlInput(
        a_i=Vec3(*u12[0:3]),
        a_j=Vec3(*u12[3:6]),
        q_i=Quaternion.identity(),
        q_j=Quaternion.identity(),
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
    st = PairState(np.zeros(3), np.array([0.0, 0.0, 0.5]), Quaternion.identity(), np.eye(6))
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
        q=Quaternion.identity(),
        cov=np.eye(6) * 0.01,
    )
    u = ControlInput(
        a_i=Vec3(0.0, 0.0, 0.0), a_j=Vec3(2.0, 0.0, 0.0), q_i=Quaternion.identity(), q_j=Quaternion.identity()
    )
    out = predict(st, u, DT, SIGMA_U)
    assert np.allclose(out.x, [1.0 + 0.5 * 2.0 * DT**2, 0.2 * DT, 0.0], atol=1e-12)
    assert np.allclose(out.v, [2.0 * DT, 0.2, 0.0], atol=1e-12)


def test_predict_marks_divergence_on_nonfinite_input():
    st = random_state(derive_rng(7, "ekf", "div"))
    u = ControlInput(
        a_i=Vec3(math.nan, 0.0, 0.0),
        a_j=Vec3.zero(),
        q_i=Quaternion.identity(),
        q_j=Quaternion.identity(),
    )
    out = predict(st, u, DT, SIGMA_U)
    assert out.diverged
    with pytest.raises(ContractViolationError):
        predict(out, random_control(derive_rng(7, "ekf", "x")), DT, SIGMA_U)


def test_update_moves_estimate_toward_range():
    st = PairState(
        x=np.array([0.8, 0.0, 0.0]),
        v=np.zeros(3),
        q=Quaternion.identity(),
        cov=np.eye(6) * 0.04,
    )
    out = update(st, 1.0, (0.0, 3.0), R_DIAG)
    d = distance_estimate(out)
    assert 0.8 < d <= 1.0
    assert out.cov[0, 0] < st.cov[0, 0]


def test_update_outside_gate_returns_same_object():
    st = random_state(derive_rng(7, "ekf", "gate"))
    out = update(st, 99.0, (0.0, 3.0), R_DIAG)
    assert out is st
    out = update(st, -0.5, (0.0, 3.0), R_DIAG)
    assert out is st


def test_update_rejects_unknown_speed_mode():
    st = random_state(derive_rng(7, "ekf", "mode"))
    with pytest.raises(ContractViolationError):
        update(st, 1.0, (0.0, 3.0), R_DIAG, speed_mode="psychic")


def test_update_keeps_covariance_psd_with_tiny_r():
    rng = derive_rng(7, "ekf", "joseph")
    for _ in range(200):
        st = random_state(rng)
        d = float(np.linalg.norm(st.x)) + rng.normal(0.0, 0.05)
        out = update(st, d, (0.0, 10.0), (1e-4, 1e-4))
        if out is not st:
            assert_psd(out.cov)


def test_gate_table_covers_tpose_distances(skel, placement):
    from uip.skeleton import sensor_pose, tpose

    gates = gate_table()
    jp, jr = tpose(skel)
    for i in range(N_SENSORS):
        for j in range(i + 1, N_SENSORS):
            pi, _ = sensor_pose(placement, i, jp, jr)
            pj, _ = sensor_pose(placement, j, jp, jr)
            assert (pj - pi).norm() < gates[i, j]
    assert np.array_equal(gates, gates.T)


def test_max_reach_bounds_random_poses(skel, placement):
    from uip.geometry import Quaternion as Q
    from uip.skeleton import fk_pose, sensor_pose

    rng = derive_rng(7, "ekf", "reach")
    for _ in range(20):
        local = [Q.from_rotvec(Vec3(*rng.normal(0.0, 0.5, 3))) for _ in range(skel.n_joints)]
        jp, jr = fk_pose(skel, local, Vec3.zero())
        for i in range(N_SENSORS):
            for j in range(i + 1, N_SENSORS):
                pi, _ = sensor_pose(placement, i, jp, jr)
                pj, _ = sensor_pose(placement, j, jp, jr)
                assert (pj - pi).norm() <= max_reach(skel, placement, i, j) + 1e-9


def test_bank_initial_states_match_tpose_geometry(skel, placement):
    from uip.skeleton import sensor_pose, tpose

    jp, jr = tpose(skel)
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    for i, j in bank.pairs:
        st = bank.states[(i, j)]
        p_i, q_i = sensor_pose(placement, i, jp, jr)
        p_j, q_j = sensor_pose(placement, j, jp, jr)
        assert np.array_equal(st.x, (p_j - p_i).to_array())
        assert st.q == quat_relative(q_i, q_j)
        assert np.array_equal(st.v, np.zeros(3))
        assert_psd(st.cov)


def test_bank_tracks_a_moving_pair(skel, placement):
    # Drive the full bank with exact controls for a synthetic relative
    # motion; the range updates must keep distance error well under the
    # raw noise level.
    rng = derive_rng(7, "ekf", "bank")
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT)
    base = {p: bank.states[p].x.copy() for p in bank.pairs}
    idq = Quaternion.identity()
    sigma = 0.05
    amp, w = 0.1, 2 * math.pi * 0.5
    errs = []
    for k in range(400):
        t = k * DT
        # sensor 1 oscillates along x starting from rest (matching the
        # filter's zero initial velocity); everything else is still
        a1 = amp * w * w * math.cos(w * t)
        controls = [(Vec3.zero(), idq) for _ in range(N_SENSORS)]
        controls[1] = (Vec3(a1, 0.0, 0.0), idq)
        bank.predict_all(controls)
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
            bank.update_all(d, valid, t)
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
