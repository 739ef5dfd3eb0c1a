"""Loss terms: hand-checked values, masking rules, exact gradients."""
import dataclasses

import numpy as np
import pytest

from conftest import TINY_NET, random_windows
from uip.autodiff import Tape
from uip.errors import DataError
from uip.posenet import (
    batch_loss,
    contact_term,
    init_params,
    position_terms,
    rotation_term,
    total_loss,
)
from uip.posenet.loss import DIST_EPS
from uip.rng import derive_rng

PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]


def reference_position_loss(p_hat, p_tilde, d, valid, lam):
    """Independent numpy rebuild of the documented per-frame position loss."""
    cos_terms = []
    for s in range(6):
        pn = np.linalg.norm(p_hat[s])
        tn = np.linalg.norm(p_tilde[s])
        if pn > 1e-9 and tn > 1e-9:
            cos = p_hat[s] @ (p_tilde[s] / tn) / np.sqrt(pn * pn + DIST_EPS)
            cos_terms.append(1.0 - cos)
    total = float(np.mean(cos_terms)) if cos_terms else 0.0
    for i, j in PAIRS:
        if valid[i, j]:
            gap = p_hat[i] - p_hat[j]
            dist = np.sqrt(gap @ gap + DIST_EPS)
            total += lam * abs(dist - d[i, j])
    return total


def distance_aware_loss(p_hat, p_tilde, d, valid, lam=0.01):
    """The position loss of one frame as a plain number, on a values-only tape."""
    tape = Tape(grads=False)
    p = tape.const(p_hat.reshape(1, 18))
    return float(total_loss(tape, position_terms(tape, p, p_tilde[None], d[None], valid[None], lam)).value)


def frame_case(seed: int):
    rng = derive_rng(seed, "loss", "frame")
    p_hat = rng.normal(0.0, 0.4, (6, 3))
    p_tilde = rng.normal(0.0, 0.4, (6, 3))
    d0 = rng.uniform(0.3, 1.6, (6, 6))
    d = (d0 + d0.T) / 2.0
    np.fill_diagonal(d, 0.0)
    valid = np.ones((6, 6), dtype=bool)
    np.fill_diagonal(valid, False)
    valid[0, 4] = valid[4, 0] = False
    return p_hat, p_tilde, d, valid


def test_distance_loss_matches_reference():
    for seed in range(5):
        p_hat, p_tilde, d, valid = frame_case(seed)
        got = distance_aware_loss(p_hat, p_tilde, d, valid)
        want = reference_position_loss(p_hat, p_tilde, d, valid, 0.01)
        assert got == pytest.approx(want, abs=1e-12)


def test_distance_loss_hand_value():
    # Perfect directions, one valid pair measured 0.5 m long: the loss is
    # just lambda times that gap.
    p = np.zeros((6, 3))
    p[0] = (1.0, 0.0, 0.0)
    p[1] = (0.0, 1.0, 0.0)
    p[2] = (0.0, 0.0, 1.0)
    p[3] = (1.0, 1.0, 0.0)
    p[4] = (0.0, 1.0, 1.0)
    p[5] = (1.0, 0.0, 1.0)
    d = np.zeros((6, 6))
    d[0, 1] = d[1, 0] = np.sqrt(2.0) + 0.5
    valid = np.zeros((6, 6), dtype=bool)
    valid[0, 1] = valid[1, 0] = True
    got = distance_aware_loss(p, p, d, valid)
    assert got == pytest.approx(0.01 * 0.5, abs=1e-9)


def test_cosine_skips_rows_without_direction():
    # Sensor 2 has a zero target and sensor 3 a zero prediction; neither may
    # reach the cosine sum. The four remaining sensors are anti-aligned, so
    # the mean is exactly 2.
    p_hat = np.zeros((6, 3))
    p_tilde = np.zeros((6, 3))
    for s in (0, 1, 4, 5):
        v = np.zeros(3)
        v[s % 3] = 1.0
        p_hat[s] = v
        p_tilde[s] = -v
    p_hat[3] = 0.0
    p_tilde[3] = (1.0, 0.0, 0.0)
    p_hat[2] = (0.0, 1.0, 0.0)
    p_tilde[2] = 0.0
    got = distance_aware_loss(p_hat, p_tilde, np.zeros((6, 6)), np.zeros((6, 6), dtype=bool))
    assert got == pytest.approx(2.0, abs=1e-9)


def test_pair_term_scales_linearly_with_lambda():
    p_hat, p_tilde, d, valid = frame_case(11)
    base = distance_aware_loss(p_hat, p_tilde, d, valid, lam=0.0)
    one = distance_aware_loss(p_hat, p_tilde, d, valid, lam=0.01)
    two = distance_aware_loss(p_hat, p_tilde, d, valid, lam=0.02)
    assert two - base == pytest.approx(2.0 * (one - base), rel=1e-12)


def test_masking_a_pair_removes_exactly_its_gap():
    p_hat, p_tilde, d, valid = frame_case(12)
    full = distance_aware_loss(p_hat, p_tilde, d, valid)
    cut = valid.copy()
    cut[1, 5] = cut[5, 1] = False
    gap = p_hat[1] - p_hat[5]
    contribution = 0.01 * abs(np.sqrt(gap @ gap + DIST_EPS) - d[1, 5])
    got = distance_aware_loss(p_hat, p_tilde, d, cut)
    assert full - got == pytest.approx(contribution, rel=1e-9)


def test_rotation_term_is_componentwise_mse():
    rng = derive_rng(13, "loss", "rot")
    n = 3
    pred = rng.normal(size=(n, 90))
    targets = rng.normal(size=(n, 15, 6))
    tape = Tape()
    rot = tape.leaf(pred)
    value = float(rotation_term(tape, rot, targets).value)
    want = np.mean((pred - targets.reshape(n, 90)) ** 2)
    assert value == pytest.approx(want, rel=1e-14)


def test_contact_term_is_bce_on_logits():
    rng = derive_rng(14, "loss", "con")
    n = 4
    logits = rng.normal(0.0, 3.0, (n, 2))
    targets = (rng.uniform(size=(n, 2)) < 0.5).astype(float)
    tape = Tape()
    z = tape.leaf(logits)
    value = float(contact_term(tape, z, targets).value)
    want = np.mean(np.logaddexp(0.0, logits) - targets * logits)
    assert value == pytest.approx(want, rel=1e-14)


def test_total_loss_empty_is_zero():
    tape = Tape()
    assert float(total_loss(tape, []).value) == 0.0


def test_batch_loss_breakdown_sums_to_total():
    params = init_params(TINY_NET, 21)
    windows = random_windows(21, 3, frames=4)
    value, parts, grads = batch_loss(params, windows)
    assert value == pytest.approx(sum(parts.values()), rel=1e-12)
    assert set(grads) == set(params.tensors)
    assert all(np.isfinite(g).all() for g in grads.values())


def test_batch_loss_without_grads_matches():
    params = init_params(TINY_NET, 22)
    windows = random_windows(22, 2, frames=4)
    v1, _, g1 = batch_loss(params, windows, with_grads=True)
    v2, _, g2 = batch_loss(params, windows, with_grads=False)
    assert v1 == v2
    assert g1 and not g2


def test_batch_loss_gradients_match_finite_differences():
    params = init_params(TINY_NET, 23)
    windows = random_windows(23, 2, frames=3)
    _, _, grads = batch_loss(params, windows)
    rng = derive_rng(23, "loss", "probe")
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            eps = 1e-6 * max(1.0, abs(flat[idx]))
            keep = flat[idx]
            flat[idx] = keep + eps
            up, _, _ = batch_loss(params, windows, with_grads=False)
            flat[idx] = keep - eps
            down, _, _ = batch_loss(params, windows, with_grads=False)
            flat[idx] = keep
            fd = (up - down) / (2.0 * eps)
            an = grads[name].reshape(-1)[idx]
            scale = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / scale)
    assert worst < 1e-4


def test_windows_share_one_length_and_are_never_empty():
    # A batch of mixed lengths cannot be stacked and a batch of none is
    # refused, so batch_loss never sees either.
    three, four = random_windows(24, 1, frames=3), random_windows(25, 1, frames=4)
    with pytest.raises(DataError, match=r"input a has shape \(1, 4, 6, 3\), expected \(1, 3, 6, 3\)"):
        dataclasses.replace(three, a=four.a)
    with pytest.raises(DataError, match="at least one input frame"):
        three.take(np.arange(0))
