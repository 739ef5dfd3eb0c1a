"""Training losses for the pose network.

The position loss is distance-aware: per frame it takes the mean of
(1 - cosine similarity) between predicted and target sensor positions over
the sensors where both have a direction, plus a weighted sum over valid
sensor pairs of the absolute gap between predicted pairwise distance and
the measured one. Pairwise distances are rigid-motion invariants, so the
measured values need no frame alignment. The rotation head trains with
mean squared error on the 6D components and the contact head with binary
cross-entropy on logits; the total is the unit-weight sum of the three
groups, each averaged over the batch frames.
"""
from __future__ import annotations

import numpy as np

from ..autodiff import Node, Tape
from ..errors import ContractViolationError
from ..skeleton import N_SENSORS, PAIR_I, PAIR_J

# A sensor position shorter than this has no usable direction; its cosine
# term is skipped for the frame.
NORM_FLOOR = 1e-9
# Added under the pairwise-distance square root so coincident sensor
# predictions keep a finite gradient.
DIST_EPS = 1e-12


def position_terms(
    tape: Tape,
    p: Node,
    pos_targets: np.ndarray,
    d: np.ndarray,
    valid: np.ndarray,
    lam: float,
) -> list[Node]:
    """Scalar nodes for the cosine and pairwise-distance parts of the loss.

    p: (N, 18) predicted positions; pos_targets: (N, 6, 3); d, valid:
    (N, 6, 6) measured distances and mask. Either part disappears when
    nothing qualifies (all-zero targets, no valid pairs).
    """
    n = pos_targets.shape[0]
    rows = p.reshape(n * N_SENSORS, 3)
    tgt_rows = pos_targets.reshape(n * N_SENSORS, 3)
    terms: list[Node] = []

    pred_norm = np.linalg.norm(rows.value, axis=1)
    tgt_norm = np.linalg.norm(tgt_rows, axis=1)
    include = (pred_norm > NORM_FLOOR) & (tgt_norm > NORM_FLOOR)
    if np.any(include):
        picked = rows[include]
        tgt_unit = tape.const(tgt_rows[include] / tgt_norm[include][:, None])
        inv_norm = tape.recip(
            tape.sqrt(tape.add_const(tape.group_dot(picked, picked), DIST_EPS))
        )
        cos = tape.mul(tape.group_dot(picked, tgt_unit), inv_norm)
        frames = np.nonzero(include)[0] // N_SENSORS
        counts = np.bincount(frames, minlength=n)
        weights = 1.0 / (counts[frames] * n)
        terms.append(
            tape.sum(tape.scale(tape.add_const(tape.neg(cos), 1.0), weights))
        )

    frame, pair = np.nonzero(valid[:, PAIR_I, PAIR_J])
    if frame.size:
        rows3 = p.reshape(n, N_SENSORS, 3)
        i, j = PAIR_I[pair], PAIR_J[pair]
        measured = d[frame, i, j]
        diff = tape.sub(rows3[frame, i], rows3[frame, j])
        dist = tape.sqrt(tape.add_const(tape.group_dot(diff, diff), DIST_EPS))
        gaps = tape.abs(tape.add_const(dist, -measured))
        terms.append(tape.sum(tape.scale(gaps, lam / n)))
    return terms


def rotation_term(tape: Tape, rot: Node, rot_targets: np.ndarray) -> Node:
    """Mean squared error over all 6D rotation components; rot is (N, 90)."""
    n = rot_targets.shape[0]
    sq = tape.square(tape.add_const(rot, -rot_targets.reshape(n, -1)))
    return tape.sum(tape.scale(sq, 1.0 / sq.value.size))


def contact_term(tape: Tape, logits: Node, contact_targets: np.ndarray) -> Node:
    """Binary cross-entropy on (N, 2) logits: mean of softplus(z) - t*z."""
    t = np.asarray(contact_targets, dtype=float)
    bce = tape.blend(tape.softplus(logits), logits, 1.0, -t)
    return tape.sum(tape.scale(bce, 1.0 / bce.value.size))


def total_loss(tape: Tape, terms: list[Node]) -> Node:
    """Sum of scalar loss nodes; an empty list is a zero loss."""
    if not terms:
        return tape.const(0.0)
    if len(terms) == 1:
        return terms[0]
    return tape.sum(tape.stack(terms))


def distance_aware_loss(
    p_hat: np.ndarray,
    p_tilde: np.ndarray,
    d: np.ndarray,
    valid: np.ndarray | None = None,
    lam: float = 0.01,
) -> float:
    """Position loss for one frame, as a plain number.

    p_hat, p_tilde: (6, 3) predicted and target positions; d: (6, 6)
    measured distances with `valid` marking trustworthy entries (default:
    everything off the diagonal).
    """
    p_hat = np.asarray(p_hat, dtype=float)
    p_tilde = np.asarray(p_tilde, dtype=float)
    d = np.asarray(d, dtype=float)
    if p_hat.shape != (N_SENSORS, 3) or p_tilde.shape != p_hat.shape:
        raise ContractViolationError(
            f"bad position shapes {p_hat.shape}, {p_tilde.shape}"
        )
    if d.shape != (N_SENSORS, N_SENSORS):
        raise ContractViolationError(f"bad distance shape {d.shape}")
    if valid is None:
        valid = ~np.eye(N_SENSORS, dtype=bool)
    v = np.asarray(valid, dtype=bool)
    tape = Tape(grads=False)
    p = tape.const(p_hat.reshape(1, N_SENSORS * 3))
    terms = position_terms(tape, p, p_tilde[None], d[None], v[None], lam)
    return float(total_loss(tape, terms).value)
