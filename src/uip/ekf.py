"""Per-pair EKF over relative sensor position and velocity.

Fifteen independent filters, one per unordered sensor pair (i, j). The
estimated state is x_ij (relative position) and v_ij (relative velocity)
with a 6x6 covariance; the relative orientation q_ij is overwritten
deterministically from the per-sensor orientation estimates each predict,
so orientation carries no covariance.

Prediction integrates the difference of the gravity-free world-frame
acceleration estimates at 100 Hz; the update consumes the calibrated UWB
range (25 Hz) through h(x) = [|x|, |v|] with the analytic Jacobian, plus
a speed pseudo-measurement. Ranges outside the anthropometric gate leave
the state untouched bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .geometry import Quaternion, Vec3, quat_relative, quat_rotate
from .skeleton import N_SENSORS, Skeleton, SensorPlacement, default_placement, default_skeleton, mount_poses, tpose

SIGMA_X0 = 0.05  # m, initial relative-position std per axis
SIGMA_V0 = 0.01  # m/s, initial relative-velocity std per axis
GATE_MARGIN = 1.05
GATE_BODY_HEIGHT = 2.0  # gates come from the tallest supported body, same for everyone
_NORM_FLOOR = 1e-3  # below 1 mm (or 1 mm/s) the direction is undefined; Jacobian row zeroes


@dataclass(frozen=True)
class PairState:
    """Single-pair filter state. Instances are replaced, never mutated."""

    x: np.ndarray  # (3,) relative position j - i, world frame
    v: np.ndarray  # (3,) relative velocity
    q: Quaternion  # relative orientation q_i^-1 q_j
    cov: np.ndarray  # (6, 6) over (x, v)
    diverged: bool = False


@dataclass(frozen=True)
class ControlInput:
    """Per-step inputs for one pair: accelerations and orientations of both ends."""

    a_i: Vec3  # gravity-free world acceleration estimate, sensor i
    a_j: Vec3
    q_i: Quaternion
    q_j: Quaternion


def state_jacobian(dt: float) -> np.ndarray:
    """F = d f / d (x, v): constant-velocity-plus-acceleration transition."""
    f = np.eye(6)
    f[0:3, 3:6] = dt * np.eye(3)
    return f


def input_jacobian(dt: float) -> np.ndarray:
    """W = d f / d u for u = (a_i, a_j, q_i_vec, q_j_vec), 6x12.

    Orientation noise does not enter the (x, v) rows (orientation handling
    is decoupled), so those columns are zero.
    """
    w = np.zeros((6, 12))
    w[0:3, 0:3] = -0.5 * dt * dt * np.eye(3)
    w[0:3, 3:6] = 0.5 * dt * dt * np.eye(3)
    w[3:6, 0:3] = -dt * np.eye(3)
    w[3:6, 3:6] = dt * np.eye(3)
    return w


def process_noise(dt: float, sigma_u: np.ndarray) -> np.ndarray:
    """Q = W diag(sigma_u^2) W^T for the 12-dim input noise vector."""
    sigma_u = np.asarray(sigma_u, dtype=float)
    if sigma_u.shape != (12,):
        raise ContractViolationError(f"sigma_u must be a 12-vector, got {sigma_u.shape}")
    w = input_jacobian(dt)
    return (w * sigma_u**2) @ w.T


def predict(state: PairState, u: ControlInput, dt: float, sigma_u: np.ndarray, q_process: np.ndarray | None = None) -> PairState:
    """One prediction step. Non-finite inputs mark the filter diverged."""
    if state.diverged:
        raise ContractViolationError("filter diverged; re-init before predicting")
    if not (u.a_i.is_finite() and u.a_j.is_finite() and u.q_i.is_finite() and u.q_j.is_finite()):
        return replace(state, diverged=True)
    da = u.a_j - u.a_i
    da_arr = np.array([da.x, da.y, da.z])
    x = state.x + dt * state.v + 0.5 * dt * dt * da_arr
    v = state.v + dt * da_arr
    q = quat_relative(u.q_i, u.q_j)
    f = state_jacobian(dt)
    if q_process is None:
        q_process = process_noise(dt, sigma_u)
    cov = f @ state.cov @ f.T + q_process
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):
        return replace(state, diverged=True)
    return PairState(x=x, v=v, q=q, cov=cov)


def measurement(state: PairState) -> np.ndarray:
    """h(x) = [|x_ij|, |v_ij|]."""
    return np.array([float(np.linalg.norm(state.x)), float(np.linalg.norm(state.v))])


def measurement_jacobian(state: PairState) -> np.ndarray:
    """H = d h / d (x, v), rows zeroed where the norm is under 1 mm (or mm/s)."""
    h = np.zeros((2, 6))
    nx = float(np.linalg.norm(state.x))
    nv = float(np.linalg.norm(state.v))
    if nx >= _NORM_FLOOR:
        h[0, 0:3] = state.x / nx
    if nv >= _NORM_FLOOR:
        h[1, 3:6] = state.v / nv
    return h


def update(
    state: PairState,
    d_measured: float,
    gate: tuple[float, float],
    r_diag: tuple[float, float],
    speed_mode: str = "predicted",
    range_rate: float | None = None,
) -> PairState:
    """Range update with the speed pseudo-measurement.

    Ranges outside [gate_lo, gate_hi] are rejected: the input state is
    returned unchanged. speed_mode "predicted" feeds the predicted speed
    back (zero innovation, covariance-only); "range_rate" damps the speed
    toward |d(range)/dt| of consecutive accepted ranges when available.
    """
    if state.diverged:
        raise ContractViolationError("filter diverged; re-init before updating")
    lo, hi = gate
    if not (lo <= d_measured <= hi):
        return state
    if speed_mode not in ("predicted", "range_rate"):
        raise ContractViolationError(f"unknown speed_mode '{speed_mode}'")
    h_val = measurement(state)
    if speed_mode == "range_rate" and range_rate is not None:
        z = np.array([d_measured, abs(range_rate)])
    else:
        z = np.array([d_measured, h_val[1]])
    hm = measurement_jacobian(state)
    r = np.diag([r_diag[0] ** 2, r_diag[1] ** 2])
    s = hm @ state.cov @ hm.T + r
    det = float(np.linalg.det(s))
    if not math.isfinite(det) or abs(det) < 1e-30:
        return state  # singular innovation covariance: skip this update
    k = state.cov @ hm.T @ np.linalg.inv(s)
    innov = z - h_val
    dx = k @ innov
    x = state.x + dx[0:3]
    v = state.v + dx[3:6]
    ikh = np.eye(6) - k @ hm
    cov = ikh @ state.cov @ ikh.T + k @ r @ k.T  # Joseph form keeps PSD through rounding
    cov = 0.5 * (cov + cov.T)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v)) and np.all(np.isfinite(cov))):
        return replace(state, diverged=True)
    return PairState(x=x, v=v, q=state.q, cov=cov)


def distance_estimate(state: PairState) -> float:
    return float(np.linalg.norm(state.x))


def max_reach(skel: Skeleton, placement: SensorPlacement, i: int, j: int) -> float:
    """Upper bound on the i-j sensor distance: kinematic path length between mounts."""
    mi, mj = placement.mounts[i], placement.mounts[j]

    def path_to_root(joint: int) -> list[int]:
        path = [joint]
        while skel.joints[path[-1]].parent != -1:
            path.append(skel.joints[path[-1]].parent)
        return path

    pi = path_to_root(mi.joint)
    pj = path_to_root(mj.joint)
    common = set(pi) & set(pj)
    reach = mi.offset.norm() + mj.offset.norm()
    for joint in pi:
        if joint in common:
            break
        reach += skel.joints[joint].offset.norm()
    for joint in pj:
        if joint in common:
            break
        reach += skel.joints[joint].offset.norm()
    return reach


def gate_table(margin: float = GATE_MARGIN) -> np.ndarray:
    """(6, 6) per-pair max plausible range, shared across subjects.

    Built once from the tallest supported skeleton; entry [i, j] is the
    kinematic max reach between the two mounts times the safety margin.
    """
    skel = default_skeleton(GATE_BODY_HEIGHT)
    placement = default_placement(skel)
    table = np.zeros((N_SENSORS, N_SENSORS))
    for i in range(N_SENSORS):
        for j in range(i + 1, N_SENSORS):
            table[i, j] = table[j, i] = margin * max_reach(skel, placement, i, j)
    return table


def assert_psd(cov: np.ndarray, tol: float = -1e-9) -> None:
    """Raise unless the covariance is symmetric PSD within tolerance."""
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ContractViolationError("covariance not symmetric")
    eig = np.linalg.eigvalsh(cov)
    if float(eig.min()) <= tol:
        raise ContractViolationError(f"covariance min eigenvalue {eig.min():.3e} below {tol}")


class PairFilterBank:
    """The 15 pair filters plus distance-matrix assembly on the 100 Hz grid."""

    def __init__(
        self,
        skel: Skeleton,
        placement: SensorPlacement,
        sigma_u: np.ndarray,
        r_diag: tuple[float, float],
        dt: float = 0.01,
        speed_mode: str = "predicted",
    ):
        self.pairs = [(i, j) for i in range(N_SENSORS) for j in range(i + 1, N_SENSORS)]
        # Every pair starts from the calibration T-pose geometry.
        pos, rot = mount_poses(placement.mounts, *tpose(skel))
        quats = [Quaternion(*q) for q in rot.tolist()]
        self.states = {
            (i, j): PairState(
                x=pos[j] - pos[i],
                v=np.zeros(3),
                q=quat_relative(quats[i], quats[j]),
                cov=np.diag([SIGMA_X0**2] * 3 + [SIGMA_V0**2] * 3),
            )
            for (i, j) in self.pairs
        }
        self.sigma_u = np.asarray(sigma_u, dtype=float)
        self.r_diag = r_diag
        self.dt = dt
        self.speed_mode = speed_mode
        self.gates = gate_table()
        self._q_process = process_noise(dt, self.sigma_u)
        self._last_range: dict[tuple[int, int], tuple[float, float]] = {}

    def predict_all(self, controls: list[tuple[Vec3, Quaternion]]) -> None:
        """One 100 Hz step; controls[s] = (accel_world, orientation) for sensor s."""
        for (i, j) in self.pairs:
            a_i, q_i = controls[i]
            a_j, q_j = controls[j]
            u = ControlInput(a_i=a_i, a_j=a_j, q_i=q_i, q_j=q_j)
            self.states[(i, j)] = predict(
                self.states[(i, j)], u, self.dt, self.sigma_u, self._q_process
            )

    def update_all(self, distances: np.ndarray, valid: np.ndarray, t: float) -> None:
        """One 25 Hz measurement tick with calibrated ranges."""
        for (i, j) in self.pairs:
            if not valid[i, j]:
                continue
            d = float(distances[i, j])
            rate = None
            if self.speed_mode == "range_rate" and (i, j) in self._last_range:
                t0, d0 = self._last_range[(i, j)]
                if t > t0:
                    rate = (d - d0) / (t - t0)
            gate = (0.0, float(self.gates[i, j]))
            new = update(
                self.states[(i, j)], d, gate, self.r_diag, speed_mode=self.speed_mode, range_rate=rate
            )
            if new is not self.states[(i, j)]:
                self._last_range[(i, j)] = (t, d)
            self.states[(i, j)] = new

    def distance_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (6, 6) distance estimates and validity mask."""
        d = np.zeros((N_SENSORS, N_SENSORS))
        mask = np.zeros((N_SENSORS, N_SENSORS), dtype=bool)
        for (i, j) in self.pairs:
            st = self.states[(i, j)]
            if st.diverged:
                continue
            d[i, j] = d[j, i] = distance_estimate(st)
            mask[i, j] = mask[j, i] = True
        return d, mask
