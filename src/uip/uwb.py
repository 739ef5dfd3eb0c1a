"""Broadcast two-way ranging over six body-worn nodes, plus calibration.

One ranging round: node 0 broadcasts a request, then each node s
transmits in its fixed TDMA slot, SLOT_S * s after the round start. Every
node timestamps every transmission it hears, and responders overhear each
other, so a single round resolves all 15 pairs: for i < j, node j's reply
answers node i's earlier transmission and

    tof_ij = 0.5 * (t_i_received - t_i_sent + t_j_received - t_j_sent)

`simulate_stream` runs one round per `round_times` entry on a (R, 6, 3)
position stack and an optional (R, 6, 6) sigma stack, as array code over
all rounds at once: the (R, 6) send stamps and the (R, 6, 6) receive
stamps, recv[k, r, s] being node r's stamp of node s's message in round
k. Only the random draws (a drop, then noise, per message) run one
message at a time, round by round, in a fixed order.

Send/receive stamps are read through each node's own clock (offset +
multiplicative skew). Offsets cancel exactly in the formula; skew leaves
an error bounded by skew * reply-delay * c; antenna delays add a constant
range bias that the affine calibration removes.

Gaussian range noise is injected as receive-timestamp jitter with sigma
sigma_m * sqrt(2) / c per message, which makes the resolved pair distance
noise come out at exactly the configured sigma_m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ContractViolationError

SPEED_OF_LIGHT = 299_792_458.0
N_NODES = 6
ROUND_PERIOD_S = 0.04  # 25 Hz round rate
SLOT_S = 0.002  # TDMA reply slot spacing inside a round

OCCLUSION_THRESHOLD = 0.2  # occlusion ratio at or above which a pair counts as NLOS

# Every message of a round in transmission order: (receiver, sender).
_MESSAGES = [(r, s) for s in range(N_NODES) for r in range(N_NODES) if r != s]
_UPPER = np.triu(np.ones((N_NODES, N_NODES), dtype=bool), 1)


def occlusion_noise_sigma(
    occlusion, sigma_los: float, sigma_nlos: float, threshold: float = OCCLUSION_THRESHOLD
) -> np.ndarray:
    """Range noise sigma for each pair, by the occlusion ratio of its sight line."""
    occ = np.asarray(occlusion, dtype=float)
    bad = ~((occ >= 0.0) & (occ <= 1.0))
    if bad.any():
        raise ContractViolationError(f"occlusion ratio {occ[bad][0]} outside [0, 1]")
    return np.where(occ >= threshold, sigma_nlos, sigma_los)


@dataclass(frozen=True, slots=True)
class NodeClock:
    """Free-running node clock: local(t) = (1 + skew_ppm * 1e-6) * t + offset."""

    skew_ppm: float = 0.0
    offset: float = 0.0
    antenna_delay: float = 0.0  # seconds, applied symmetrically on tx and rx

    def __post_init__(self):
        if abs(self.skew_ppm) > 50.0:
            raise ContractViolationError(f"clock skew {self.skew_ppm} ppm outside +-50 ppm")
        if self.antenna_delay < 0.0:
            raise ContractViolationError("antenna delay must be non-negative")


def sample_clocks(
    rng: np.random.Generator,
    skew_ppm_sigma: float = 0.01,
    offset_sigma: float = 1.0,
    antenna_delay_ns: float = 0.3,
    antenna_delay_jitter_ns: float = 0.02,
) -> tuple[NodeClock, ...]:
    """Per-node clocks; default skews model residual error after crystal trim."""
    clocks = []
    for _ in range(N_NODES):
        delay = max(0.0, antenna_delay_ns + rng.normal(0.0, antenna_delay_jitter_ns)) * 1e-9
        clocks.append(
            NodeClock(
                skew_ppm=float(rng.normal(0.0, skew_ppm_sigma)),
                offset=float(rng.normal(0.0, offset_sigma)),
                antenna_delay=delay,
            )
        )
    return tuple(clocks)


def resolve_tof(t_i_sent, t_i_received, t_j_received, t_j_sent):
    """Two-way time of flight from the four local timestamps of a pair (scalars or arrays)."""
    return 0.5 * (t_i_received - t_i_sent + t_j_received - t_j_sent)


@dataclass
class RawDistanceStream:
    """Per-round resolved distances at the round rate."""

    times: np.ndarray  # (R,) round start times
    distances: np.ndarray  # (R, 6, 6)
    valid: np.ndarray  # (R, 6, 6) bool


def round_times(duration_s: float) -> np.ndarray:
    """Start times (R,) of the rounds, every ROUND_PERIOD_S, that begin inside duration_s."""
    return np.arange(int(math.ceil(duration_s / ROUND_PERIOD_S - 1e-9))) * ROUND_PERIOD_S


def simulate_stream(
    times: np.ndarray,
    positions: np.ndarray,
    clocks: tuple[NodeClock, ...],
    rng: np.random.Generator | None = None,
    *,
    drop_prob: float = 0.0,
    sigma: np.ndarray | None = None,
) -> RawDistanceStream:
    """One round per start time (R,) at frozen node positions (R, 6, 3).

    sigma: (R, 6, 6) symmetric range noise sigmas in meters, or None for
    noise-free. A single (6, 3) position or (6, 6) sigma array stands for
    every round.
    Dropped receptions (probability drop_prob each) invalidate exactly the
    pairs that needed them: a round's distances are symmetric, 0 on the
    diagonal and for invalid pairs.
    """
    times = np.asarray(times, dtype=float)
    n_rounds = times.shape[0]
    try:
        positions = np.broadcast_to(np.asarray(positions, dtype=float), (n_rounds, N_NODES, 3))
        if sigma is not None:
            sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (n_rounds, N_NODES, N_NODES))
    except ValueError as exc:
        raise ContractViolationError(f"positions or sigma do not fit {n_rounds} rounds: {exc}") from exc

    # The random draws, round by round and message by message: a drop,
    # then (if kept) noise.
    off_diag = ~np.eye(N_NODES, dtype=bool)
    received = np.broadcast_to(off_diag, (n_rounds, N_NODES, N_NODES)).copy()
    noise = np.zeros((n_rounds, N_NODES, N_NODES))
    noisy = sigma is not None and bool((sigma[:, off_diag] > 0.0).any())
    if noisy and rng is None:
        raise ContractViolationError("noise requested without an rng")
    if rng is not None and (noisy or drop_prob > 0.0):
        scale = sigma * math.sqrt(2.0) / SPEED_OF_LIGHT if noisy else None
        for k in range(n_rounds):
            for r, s in _MESSAGES:
                if drop_prob > 0.0 and rng.random() < drop_prob:
                    received[k, r, s] = False
                elif noisy and sigma[k, r, s] > 0.0:
                    noise[k, r, s] = rng.normal(0.0, scale[k, r, s])

    skew, offset, delay = np.array([(c.skew_ppm, c.offset, c.antenna_delay) for c in clocks]).T
    gain = 1.0 + skew * 1e-6
    tx = times[:, None] + np.arange(N_NODES) * SLOT_S
    send = gain * tx + offset
    diff = positions[:, :, None, :] - positions[:, None, :, :]
    # This matmul form rounds like the per-vector np.linalg.norm.
    dist = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    arrival = (tx + delay)[:, None, :] + dist / SPEED_OF_LIGHT + delay[:, None]
    recv = gain[:, None] * arrival + offset[:, None] + noise

    # Pair (i, j), i < j, from i's stamp of j's reply and j's stamp of i's message.
    tof = resolve_tof(send[:, :, None], recv, recv.transpose(0, 2, 1), send[:, None, :])
    valid = received & received.transpose(0, 2, 1)
    distances = np.where(valid, np.where(_UPPER, tof, tof.transpose(0, 2, 1)) * SPEED_OF_LIGHT, 0.0)
    return RawDistanceStream(times, distances, valid)


@dataclass(frozen=True)
class CalibrationResult:
    """Affine corruption model raw ~ scale * truth + bias, with inlier count."""

    scale: float
    bias: float
    inliers: int


def ransac_affine_calibrate(
    raw: np.ndarray,
    truth: np.ndarray,
    rng: np.random.Generator,
    *,
    iters: int = 200,
    tol: float = 0.1,
) -> CalibrationResult:
    """RANSAC fit of raw = scale * truth + bias, refined on the inlier set.

    Deterministic for a fixed rng state. Raises CalibrationError with
    fewer than 2 samples or when every sample pair is degenerate.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if raw.shape != truth.shape:
        raise ContractViolationError("raw and truth must have equal length")
    n = raw.size
    if n < 2:
        raise CalibrationError(f"need at least 2 samples to calibrate, got {n}")
    best_inliers: np.ndarray | None = None
    best_count = 0
    for _ in range(iters):
        i, j = rng.integers(0, n, size=2)
        if i == j or abs(truth[i] - truth[j]) < 1e-9:
            continue
        scale = (raw[i] - raw[j]) / (truth[i] - truth[j])
        bias = raw[i] - scale * truth[i]
        inliers = np.abs(raw - (scale * truth + bias)) <= tol
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < 2:
        raise CalibrationError("RANSAC found no non-degenerate sample pair")
    a = np.column_stack([truth[best_inliers], np.ones(best_count)])
    coef, *_ = np.linalg.lstsq(a, raw[best_inliers], rcond=None)
    return CalibrationResult(scale=float(coef[0]), bias=float(coef[1]), inliers=best_count)


def apply_calibration(raw, cal: CalibrationResult):
    """Corrected range(s): invert the fitted corruption model."""
    if cal.scale == 0.0:
        raise CalibrationError("degenerate calibration scale 0")
    return (np.asarray(raw, dtype=float) - cal.bias) / cal.scale
