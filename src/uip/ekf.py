"""Body-shape EKF over the pelvis-relative sensor positions and velocities.

One filter per clip. Its state is the body's shape as the sensors see
it: the positions of sensors 1-5 relative to the pelvis sensor 0, then
their velocities, 30 numbers in sensor order. C clips of equal length
are held as one batch, means (C, 30) and covariances (C, 30, 30), and
each clip steps bitwise as it would alone.

Prediction integrates the gravity-free world-frame accelerations of the
six sensors on the IMU grid, m <- F m + W a: the pelvis acceleration
enters every relative block with a minus sign, so its noise
(Q = accel_noise^2 W W^T) is shared by all five sensors. One update per
ranging round takes every range inside its anthropometric gate through
h = |p_j - p_i| (p_0 = 0), with the analytic Jacobian and the Joseph
form. A pair that is not measured, is gated out or is under the 1 mm
norm floor gets a zero Jacobian row and a zero innovation, so it changes
nothing. All 15 ranges constrain one shape, so the direction that a
single range leaves open comes from the other ranges and from the
motion: localisation from pairwise ranges.

`run` is the causal filter. It keeps each frame's predicted and
filtered means, and the covariances of frame 0 and of the frames that
ran a round, so that `smooth` can then run the fixed-interval
Rauch-Tung-Striebel backward pass over the whole clip (Rauch, Tung and
Striebel, 1965; Sarkka, Bayesian Filtering and Smoothing, 2013, ch. 8):
an offline stage sees every range of a clip, so each frame's distances
can use the rounds after it too.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DivergenceError
from .skeleton import N_SENSORS, PAIR_I, PAIR_J, Skeleton, SensorPlacement, default_placement, default_skeleton, mount_poses, tpose

SIGMA_X0 = 0.05  # m, initial relative-position std per axis
SIGMA_V0 = 0.01  # m/s, initial relative-velocity std per axis
GATE_MARGIN = 1.05
GATE_BODY_HEIGHT = 2.0  # gates come from the tallest supported body, same for everyone
_NORM_FLOOR = 1e-3  # below 1 mm a range's direction is undefined; its Jacobian row zeroes
_POS = 3 * (N_SENSORS - 1)  # the position half of the state; velocities follow it
STATE = 2 * _POS
# Pair p's range moves with +u on sensor PAIR_J[p]'s position block and -u
# on PAIR_I[p]'s, u its unit direction; the pelvis has no block.
_PAIR_SIGNS = np.zeros((PAIR_I.size, N_SENSORS))
_PAIR_SIGNS[np.arange(PAIR_I.size), PAIR_J] = 1.0
_PAIR_SIGNS[np.arange(PAIR_I.size), PAIR_I] = -1.0
_PAIR_SIGNS = _PAIR_SIGNS[:, 1:]


def state_jacobian(dt: float) -> np.ndarray:
    """F = d f / d m, 30x30: constant velocity plus acceleration."""
    f = np.eye(STATE)
    f[:_POS, _POS:] = dt * np.eye(_POS)
    return f


def input_jacobian(dt: float) -> np.ndarray:
    """W = d f / d a, 30x18, for the six sensors' accelerations a in sensor order.

    Sensor s > 0 drives its own block with +, the pelvis every block with -.
    """
    relative = np.kron(np.hstack([-np.ones((N_SENSORS - 1, 1)), np.eye(N_SENSORS - 1)]), np.eye(3))
    return np.vstack([0.5 * dt * dt * relative, dt * relative])


def process_noise(dt: float, accel_noise: float) -> np.ndarray:
    """Q = accel_noise^2 W W^T: independent noise per axis of each sensor."""
    w = input_jacobian(dt)
    return accel_noise**2 * (w @ w.T)


# Kernels over a clip axis (C,).


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def _predict_mean(mean: np.ndarray, accel: np.ndarray, dt: float) -> np.ndarray:
    """F m + W a for (C, 30) means and (C, 6, 3) accelerations."""
    da = (accel[:, 1:] - accel[:, :1]).reshape(-1, _POS)
    pos, vel = mean[:, :_POS], mean[:, _POS:]
    return np.concatenate([pos + dt * vel + 0.5 * dt * dt * da, vel + dt * da], axis=1)


def _predict_cov(cov: np.ndarray, f: np.ndarray, q_process: np.ndarray) -> np.ndarray:
    """Predicted covariances (..., 30, 30): F P F^T + Q."""
    return _symmetrize(f @ cov @ f.T + q_process)


def _positions(mean: np.ndarray) -> np.ndarray:
    """Means (..., 30) -> sensor positions (..., 6, 3), the pelvis at the origin."""
    rel = mean[..., :_POS].reshape(mean.shape[:-1] + (N_SENSORS - 1, 3))
    return np.concatenate([np.zeros(mean.shape[:-1] + (1, 3)), rel], axis=-2)


def _distance_matrices(mean: np.ndarray) -> np.ndarray:
    """Means (..., 30) -> symmetric (..., 6, 6) sensor distances, zero diagonal."""
    pos = _positions(mean)
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def _measure(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = |p_j - p_i| (C, 15) in pair order and its Jacobian H (C, 15, 30).

    A Jacobian row is zero where its range is under the 1 mm floor.
    """
    pos = _positions(mean)
    diff = pos[:, PAIR_J] - pos[:, PAIR_I]
    h = np.sqrt((diff * diff).sum(-1))
    unit = diff / np.where(h < _NORM_FLOOR, np.inf, h)[..., None]
    jac = np.zeros((mean.shape[0], PAIR_I.size, STATE))
    jac[:, :, :_POS] = (_PAIR_SIGNS[:, :, None] * unit[:, :, None, :]).reshape(-1, PAIR_I.size, _POS)
    return h, jac


def _update(mean, cov, d, use, r_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form update of (C, 30) means and (C, 30, 30) covariances by the
    ranges d (C, 15) where use (C, 15) holds; every other row is zero."""
    h, jac = _measure(mean)
    use = use & (h >= _NORM_FLOOR)
    jac = np.where(use[..., None], jac, 0.0)
    innovation = np.where(use, d - h, 0.0)
    hp = jac @ cov
    s = hp @ np.ascontiguousarray(jac.swapaxes(1, 2)) + r_var * np.eye(PAIR_I.size)  # SPD: r > 0
    gain = np.ascontiguousarray(np.linalg.solve(s, hp).swapaxes(1, 2))  # K = P H^T S^-1, (C, 30, 15)
    ikh = np.eye(STATE) - gain @ jac
    cov = _symmetrize(ikh @ cov @ ikh.swapaxes(1, 2) + r_var * (gain @ gain.swapaxes(1, 2)))
    return mean + (gain * innovation[:, None, :]).sum(-1), cov


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


class BodyShapeFilter:
    """The body-shape filters of C clips, stepped together.

    `mean` (C, 30) and `cov` (C, 30, 30) start from the calibration T-pose
    and step on (C, 6, 3) accelerations and (C, 6, 6) ranges. `run` filters
    whole clips and raises DivergenceError at the first non-finite state;
    after it, `smooth` gives that run's RTS-smoothed distances.
    """

    def __init__(
        self,
        skel: Skeleton,
        placement: SensorPlacement,
        accel_noise: float,
        range_sigma: float,
        dt: float,
        clips: int,
    ):
        if clips < 1:
            raise ContractViolationError(f"a filter needs at least one clip, got {clips}")
        self.clips = clips
        self.dt = dt
        pos, _ = mount_poses(placement.mounts, *tpose(skel))
        self.mean = np.tile(np.concatenate([(pos[1:] - pos[0]).ravel(), np.zeros(_POS)]), (clips, 1))
        self.cov = np.tile(np.diag([SIGMA_X0**2] * _POS + [SIGMA_V0**2] * _POS), (clips, 1, 1))
        self.r_var = range_sigma**2
        self.gates = gate_table()[PAIR_I, PAIR_J]
        self._f = state_jacobian(dt)
        self._q_process = process_noise(dt, accel_noise)
        # The last run's per-frame means, predicted and filtered, each
        # (T, C, 30), and (frame, (C, 30, 30) filtered covariances) for
        # frame 0 and each frame that ran a round: between those, a
        # filtered covariance is its prediction.
        self._history: tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]] | None = None

    def predict(self, accel: np.ndarray) -> None:
        """One IMU-rate step; accel (C, 6, 3) gravity-free world acceleration per sensor."""
        self.mean = _predict_mean(self.mean, accel, self.dt)
        self.cov = _predict_cov(self.cov, self._f, self._q_process)

    def update(self, distances: np.ndarray, valid: np.ndarray) -> None:
        """One ranging round: calibrated ranges (C, 6, 6) and their validity (C, 6, 6)."""
        d = distances[:, PAIR_I, PAIR_J]
        use = valid[:, PAIR_I, PAIR_J] & (0.0 <= d) & (d <= self.gates)
        if use.any():
            self.mean, self.cov = _update(self.mean, self.cov, d, use, self.r_var)

    def run(
        self,
        accel: np.ndarray,
        round_frames: np.ndarray,
        distances: np.ndarray,
        valid: np.ndarray,
        names: list[str] | None = None,
    ) -> np.ndarray:
        """Filter the clips causally -> filtered distances (T, C, 6, 6).

        accel (T, C, 6, 3) is on the frame grid. Round r (distances[r] and
        valid[r], each (C, 6, 6)) updates the filter right after the predict
        of frame round_frames[r]; rounds sharing a frame apply in round
        order, and rounds past the last frame never apply. A step that
        leaves a clip's state non-finite raises DivergenceError naming the
        clip (by `names`, one per clip, where given) and the frame.
        """
        accel_shape = (self.clips, N_SENSORS, 3)
        pair_shape = (len(round_frames), self.clips, N_SENSORS, N_SENSORS)
        if accel.shape[1:] != accel_shape or distances.shape != pair_shape or valid.shape != pair_shape:
            raise ContractViolationError(f"need accel {('T',) + accel_shape} and ranges {pair_shape}, got {accel.shape}")
        frames = accel.shape[0]
        predicted, filtered = np.zeros((2, frames, self.clips, STATE))
        kept_cov = []
        self._history = None
        rnd = 0
        for k in range(frames):
            self.predict(accel[k])
            self._halt_if_diverged(k, names)
            predicted[k] = self.mean
            first_round = rnd
            while rnd < len(round_frames) and round_frames[rnd] <= k:
                self.update(distances[rnd], valid[rnd])
                self._halt_if_diverged(k, names)
                rnd += 1
            filtered[k] = self.mean
            if k == 0 or rnd > first_round:
                kept_cov.append((k, self.cov))
        self._history = predicted, filtered, kept_cov
        return _distance_matrices(filtered)

    def smooth(self) -> np.ndarray:
        """RTS-smoothed distances (T, C, 6, 6) over the frames of the last `run`.

        Backward from the last frame, which keeps its filtered mean, each
        frame's filtered mean m_f moves by G (m_s' - m_p') with the next
        frame's smoothed and predicted means and G = P_f F^T P_p^-1, where
        P_p = F P_f F^T + Q is recomputed as the prediction computes it.
        Between two frames that ran a round, the filtered covariances are
        predictions, recomputed from the earlier frame's the same way.
        """
        if self._history is None:
            raise ContractViolationError("smooth needs a completed run")
        predicted, filtered, kept_cov = self._history
        smoothed = filtered.copy()
        last = len(smoothed) - 1
        ends = [k for k, _ in kept_cov[1:]] + [last + 1]
        for (start, cov), end in zip(reversed(kept_cov), reversed(ends)):
            stop = min(end, last)
            if stop == start:
                continue
            # covs[i] is P_f of frame start + i, and the prediction from it P_p of the next frame.
            covs = [cov]
            for _ in range(start, stop):
                covs.append(_predict_cov(covs[-1], self._f, self._q_process))
            covs = np.stack(covs)
            # G^T = P_p^-1 F P_f per frame, as P_f and P_p are symmetric.
            gains = np.ascontiguousarray(np.linalg.solve(covs[1:], self._f @ covs[:-1]).swapaxes(-1, -2))
            for k in range(stop - 1, start - 1, -1):
                smoothed[k] += (gains[k - start] * (smoothed[k + 1] - predicted[k + 1])[:, None, :]).sum(-1)
        return _distance_matrices(smoothed)

    def _halt_if_diverged(self, frame: int, names: list[str] | None) -> None:
        finite = np.isfinite(self.mean).all(axis=1) & np.isfinite(self.cov).all(axis=(1, 2))
        if finite.all():
            return
        clip = int(np.flatnonzero(~finite)[0])
        label = names[clip] if names else f"clip {clip}"
        raise DivergenceError(f"{label}: body-shape filter diverged at frame {frame}")
