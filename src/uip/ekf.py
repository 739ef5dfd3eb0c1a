"""Per-pair EKF over relative sensor position and velocity.

Fifteen independent filters per clip, one per unordered sensor pair
(i, j), held as one bank of arrays for C clips of equal length: relative
position x_ij (C, 15, 3), relative velocity v_ij (C, 15, 3) and their 6x6
covariances (C, 15, 6, 6), pairs in `PAIR_I`/`PAIR_J` order. The kernels
see one pair axis of C * 15 rows, so a whole dataset is filtered in one
pass per frame, and each row comes out bitwise as it would in a bank of
its own clip.

Prediction integrates the difference of the gravity-free world-frame
acceleration estimates on the IMU grid; the update consumes the
calibrated UWB range through h(x) = [|x|, |v|] with the analytic
Jacobian, where the speed row is a pseudo-measurement of the predicted
speed (zero innovation, covariance only). A pair that has no valid range,
whose range falls outside the anthropometric gate, or whose innovation
covariance is singular is left untouched bitwise.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DivergenceError
from .skeleton import N_SENSORS, PAIR_I, PAIR_J, Skeleton, SensorPlacement, default_placement, default_skeleton, mount_poses, tpose

SIGMA_X0 = 0.05  # m, initial relative-position std per axis
SIGMA_V0 = 0.01  # m/s, initial relative-velocity std per axis
GATE_MARGIN = 1.05
GATE_BODY_HEIGHT = 2.0  # gates come from the tallest supported body, same for everyone
_NORM_FLOOR = 1e-3  # below 1 mm (or 1 mm/s) the direction is undefined; Jacobian row zeroes
_SINGULAR_DET = 1e-30  # innovation covariances with |det| below this skip the update
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # adj(S) = signs * S with both axes reversed, transposed


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


# Kernels over one pair axis (P,).


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def _predict(x, v, cov, da, dt: float, q_process: np.ndarray):
    """One prediction step for (P,) pairs -> (x, v, cov, finite (P,))."""
    f = state_jacobian(dt)
    x = x + dt * v + 0.5 * dt * dt * da
    v = v + dt * da
    cov = _symmetrize(f @ cov @ f.T + q_process)
    return x, v, cov, np.isfinite(cov).all(axis=(1, 2))


def _measure(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = [|x|, |v|] (P, 2) and its Jacobian H (P, 2, 6).

    A Jacobian row is zero where its norm is under the 1 mm (1 mm/s) floor.
    """
    xv = np.stack([x, v], axis=1)
    norms = np.linalg.norm(xv, axis=2)
    unit = xv / np.where(norms < _NORM_FLOOR, np.inf, norms)[:, :, None]
    jac = np.zeros((x.shape[0], 2, 6))
    jac[:, 0, 0:3], jac[:, 1, 3:6] = unit[:, 0], unit[:, 1]
    return norms, jac


def _update(x, v, cov, d, r_diag: tuple[float, float]):
    """Range update for (P,) pairs with measured ranges d (P,).

    Returns (applied, x, v, cov, finite), each over (P,). A pair is not
    applied when its innovation covariance S is singular; its outputs are
    then finite but meaningless.
    """
    h_val, hm = _measure(x, v)
    hmt = hm.swapaxes(1, 2)
    r_var = np.square(r_diag)
    s = hm @ cov @ hmt + np.diag(r_var)
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    applied = np.isfinite(det) & (np.abs(det) >= _SINGULAR_DET)
    adj = s[:, ::-1, ::-1].swapaxes(1, 2) * _ADJUGATE_SIGNS
    k = cov @ hmt @ (adj / np.where(applied, det, 1.0)[:, None, None])
    # The speed row feeds back the predicted speed: its innovation is zero.
    dx = k[:, :, 0] * (d - h_val[:, 0])[:, None]
    ikh = np.eye(6) - k @ hm
    cov = _symmetrize(ikh @ cov @ ikh.swapaxes(1, 2) + (k * r_var) @ k.swapaxes(1, 2))  # Joseph form keeps PSD
    x, v = x + dx[:, 0:3], v + dx[:, 3:6]
    finite = np.isfinite(np.concatenate([x, v, cov.reshape(-1, 36)], axis=1)).all(axis=1)
    return applied, x, v, cov, finite


def max_reach(skel: Skeleton, placement: SensorPlacement, i: int, j: int) -> float:
    """Upper bound on the i-j sensor distance: kinematic path length between mounts."""
    mi, mj = placement.mounts[i], placement.mounts[j]

    def path_to_root(joint: int) -> list[int]:
        path = [joint]
        while skel.joints[path[-1]].parent != -1:
            path.append(skel.joints[path[-1]].parent)
        return path

    pi, pj = path_to_root(mi.joint), path_to_root(mj.joint)
    common = set(pi) & set(pj)  # the shared ancestors, which a path climbs through last
    reach = np.linalg.norm(mi.offset) + np.linalg.norm(mj.offset)
    for joint in pi + pj:
        if joint not in common:
            reach += np.linalg.norm(skel.joints[joint].offset)
    return float(reach)


def gate_table(margin: float = GATE_MARGIN) -> np.ndarray:
    """(6, 6) per-pair max plausible range, shared across subjects.

    Built once from the tallest supported skeleton; entry [i, j] is the
    kinematic max reach between the two mounts times the safety margin.
    """
    skel = default_skeleton(GATE_BODY_HEIGHT)
    placement = default_placement(skel)
    reach = np.array([max_reach(skel, placement, i, j) for i, j in zip(PAIR_I, PAIR_J)])
    table = np.zeros((N_SENSORS, N_SENSORS))
    table[PAIR_I, PAIR_J] = table[PAIR_J, PAIR_I] = margin * reach
    return table


def assert_psd(cov: np.ndarray, tol: float = -1e-9) -> None:
    """Raise unless the covariance is symmetric PSD within tolerance."""
    if not (np.abs(cov - cov.T) <= 1e-12 + 1e-5 * np.abs(cov.T)).all():  # np.allclose's test, a third of its cost
        raise ContractViolationError("covariance not symmetric")
    eig = np.linalg.eigvalsh(cov)
    if float(eig.min()) <= tol:
        raise ContractViolationError(f"covariance min eigenvalue {eig.min():.3e} below {tol}")


class PairFilterBank:
    """The 15 pair filters of each of C clips, stepped together.

    The bank holds x (C, 15, 3), v (C, 15, 3), cov (C, 15, 6, 6) and
    diverged (C, 15) in `PAIR_I`/`PAIR_J` pair order and steps on (C, 6, 3)
    accelerations and (C, 6, 6) ranges. The kernels see one pair axis of
    C * 15 rows, and every row steps exactly as in a bank of its own clip.
    A pair that diverges keeps its last finite state and leaves the
    distance mask; the next predict_all (or an update that measures it)
    raises ContractViolationError, and `run` raises DivergenceError first.
    """

    def __init__(
        self,
        skel: Skeleton,
        placement: SensorPlacement,
        sigma_u: np.ndarray,
        r_diag: tuple[float, float],
        dt: float,
        clips: int,
    ):
        if clips < 1:
            raise ContractViolationError(f"a bank needs at least one clip, got {clips}")
        self.clips = clips
        # Every pair starts from the calibration T-pose geometry.
        pos, _ = mount_poses(placement.mounts, *tpose(skel))
        n = PAIR_I.size
        self.x = np.tile(pos[PAIR_J] - pos[PAIR_I], (clips, 1, 1))
        self.v = np.zeros((clips, n, 3))
        self.cov = np.tile(np.diag([SIGMA_X0**2] * 3 + [SIGMA_V0**2] * 3), (clips, n, 1, 1))
        self.diverged = np.zeros((clips, n), dtype=bool)
        self.r_diag = r_diag
        self.dt = dt
        self.gates = np.tile(gate_table()[PAIR_I, PAIR_J], clips)
        self._q_process = process_noise(dt, sigma_u)
        # Row indices of each pair's two sensors in the flattened (C * 6, 3)
        # accelerations, and of its two entries in the flattened (C, 6, 6) ranges.
        clip = np.repeat(np.arange(clips), n)
        self._end_i = clip * N_SENSORS + np.tile(PAIR_I, clips)
        self._end_j = clip * N_SENSORS + np.tile(PAIR_J, clips)
        self._entry_ij = self._end_i * N_SENSORS + np.tile(PAIR_J, clips)
        self._entry_ji = self._end_j * N_SENSORS + np.tile(PAIR_I, clips)

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """x, v, cov and diverged as views over one pair axis of C * 15 rows."""
        return self.x.reshape(-1, 3), self.v.reshape(-1, 3), self.cov.reshape(-1, 6, 6), self.diverged.reshape(-1)

    def _commit(self, rows: np.ndarray, x, v, cov, finite: np.ndarray) -> None:
        """Store stepped pairs; a pair whose step went non-finite diverges, state kept."""
        x_all, v_all, cov_all, diverged = self._rows()
        diverged[rows[~finite]] = True
        rows = rows[finite]
        x_all[rows], v_all[rows], cov_all[rows] = x[finite], v[finite], cov[finite]

    def predict_all(self, accel: np.ndarray) -> None:
        """One IMU-rate step; accel (C, 6, 3) gravity-free world acceleration per sensor."""
        if self.diverged.any():
            raise ContractViolationError("filter diverged; re-init before predicting")
        accel = accel.reshape(-1, 3)
        x, v, cov, diverged = self._rows()
        finite = np.isfinite(accel).all(axis=1)
        ok = finite[self._end_i] & finite[self._end_j]
        diverged |= ~ok
        rows = np.flatnonzero(ok)
        da = accel[self._end_j[rows]] - accel[self._end_i[rows]]
        x, v, cov, fin = _predict(x[rows], v[rows], cov[rows], da, self.dt, self._q_process)
        self._commit(rows, x, v, cov, fin)

    def update_all(self, distances: np.ndarray, valid: np.ndarray) -> None:
        """One measurement tick: calibrated ranges (C, 6, 6) and their validity (C, 6, 6)."""
        d = distances.reshape(-1)[self._entry_ij]
        measured = valid.reshape(-1)[self._entry_ij]
        x, v, cov, diverged = self._rows()
        if (measured & diverged).any():
            raise ContractViolationError("filter diverged; re-init before updating")
        go = np.flatnonzero(measured & (0.0 <= d) & (d <= self.gates))
        applied, x, v, cov, fin = _update(x[go], v[go], cov[go], d[go], self.r_diag)
        self._commit(go[applied], x[applied], v[applied], cov[applied], fin[applied])

    def distance_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (C, 6, 6) distance estimates and validity mask."""
        x, _, _, diverged = self._rows()
        held = ~diverged
        d = np.zeros((self.clips, N_SENSORS, N_SENSORS))
        mask = np.zeros((self.clips, N_SENSORS, N_SENSORS), dtype=bool)
        flat_d, flat_mask = d.reshape(-1), mask.reshape(-1)
        flat_d[self._entry_ij] = flat_d[self._entry_ji] = np.where(held, np.linalg.norm(x, axis=1), 0.0)
        flat_mask[self._entry_ij] = flat_mask[self._entry_ji] = held
        return d, mask

    def run(
        self,
        accel: np.ndarray,
        round_frames: np.ndarray,
        distances: np.ndarray,
        valid: np.ndarray,
        names: list[str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Filter the bank's clips -> (d_stream, mask_stream), each (T, C, 6, 6).

        accel (T, C, 6, 3) is on the frame grid. Round r (distances[r] and
        valid[r], each (C, 6, 6)) updates the bank right after the predict
        of frame round_frames[r]; rounds sharing a frame apply in round
        order, and rounds past the last frame never apply. A step that
        diverges a pair raises DivergenceError naming the pair, the frame
        and its clip (by `names`, one per clip, where given).
        """
        accel_shape = (self.clips, N_SENSORS, 3)
        pair_shape = (len(round_frames), self.clips, N_SENSORS, N_SENSORS)
        if accel.shape[1:] != accel_shape or distances.shape != pair_shape or valid.shape != pair_shape:
            raise ContractViolationError(f"need accel {('T',) + accel_shape} and ranges {pair_shape}, got {accel.shape}")
        frames = accel.shape[0]
        d_stream = np.zeros((frames, self.clips, N_SENSORS, N_SENSORS))
        mask_stream = np.zeros((frames, self.clips, N_SENSORS, N_SENSORS), dtype=bool)
        rnd = 0
        for k in range(frames):
            self.predict_all(accel[k])
            self._halt_if_diverged(k, names)
            while rnd < len(round_frames) and round_frames[rnd] <= k:
                self.update_all(distances[rnd], valid[rnd])
                self._halt_if_diverged(k, names)
                rnd += 1
            d_stream[k], mask_stream[k] = self.distance_matrix()
        return d_stream, mask_stream

    def _halt_if_diverged(self, frame: int, names: list[str] | None) -> None:
        if not self.diverged.any():
            return
        row = int(np.flatnonzero(self.diverged)[0])
        clip, pair = divmod(row, PAIR_I.size)
        label = names[clip] if names else f"clip {clip}"
        raise DivergenceError(f"{label}: pair ({PAIR_I[pair]}, {PAIR_J[pair]}) diverged at frame {frame}")
