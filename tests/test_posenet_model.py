"""Pose network forward pass: shapes, masking, invariances, fusion."""
import dataclasses

import numpy as np
import pytest

from conftest import TINY_NET
from uip.autodiff import Tape
from uip.errors import ConfigError, ContractViolationError, DataError
from uip.posenet import ModelInput, PoseNetParams, fusion_weights, infer, init_params, normalize_distances
from uip.posenet.model import Forward
from uip.rng import derive_rng

HEAD, PELVIS = 5, 0


def valid_mask(invalid_pairs=()) -> np.ndarray:
    m = np.ones((6, 6), dtype=bool)
    np.fill_diagonal(m, False)
    for i, j in invalid_pairs:
        m[i, j] = m[j, i] = False
    return m


def distance_matrix(rng) -> np.ndarray:
    d0 = rng.uniform(0.3, 1.6, (6, 6))
    d = (d0 + d0.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def model_input(rng, frames: int, invalid_pairs=()) -> ModelInput:
    """A (T, ...) stack of plausible frames, drawn frame by frame."""
    draws = [
        (rng.normal(0.0, 0.4, (6, 6)), rng.normal(0.0, 2.0, (6, 3)), distance_matrix(rng))
        for _ in range(frames)
    ]
    return ModelInput(
        r=np.stack([r for r, _, _ in draws]),
        a=np.stack([a for _, a, _ in draws]),
        d=np.stack([d for _, _, d in draws]),
        valid=np.stack([valid_mask(invalid_pairs)] * frames),
    )


def run(params, mi: ModelInput):
    return infer(params, mi.r, mi.a, mi.d, mi.valid)


def values_only(params) -> Forward:
    return Forward(Tape(grads=False), params)


def correlation(params, layer: int, d: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """One frame's post-mask correlation matrix of one graph layer, (6, 6)."""
    mask = valid & ~np.eye(6, dtype=bool)
    dn = normalize_distances(d[None], mask[None])
    return values_only(params).correlation(layer, dn, mask[None]).value[0]


def spatial_branch(params, r: np.ndarray, d: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """One frame's spatial-branch positions, (6, 3)."""
    p, _ = values_only(params).dagcn(r[None], d[None], valid[None])
    return p.value.reshape(6, 3)


def test_model_input_validates_shapes_and_symmetry():
    rng = derive_rng(8, "pn", "mi")
    good = model_input(rng, 3)
    assert good.d.shape == (3, 6, 6)
    bad_d = good.d.copy()
    bad_d[1, 0, 1] += 0.01  # breaks symmetry in one frame
    with pytest.raises(ContractViolationError):
        ModelInput(r=good.r, a=good.a, d=bad_d, valid=good.valid)
    diag_d = good.d.copy()
    diag_d[2, 2, 2] = 0.4
    with pytest.raises(ContractViolationError):
        ModelInput(r=good.r, a=good.a, d=diag_d, valid=good.valid)
    with pytest.raises(ContractViolationError):
        ModelInput(r=good.r[:, :5], a=good.a, d=good.d, valid=good.valid)


def test_normalize_divides_by_head_pelvis():
    rng = derive_rng(8, "pn", "norm")
    d = distance_matrix(rng)
    dn = normalize_distances(d)
    assert np.array_equal(dn, d / d[HEAD, PELVIS])
    assert dn[HEAD, PELVIS] == 1.0


def test_normalize_rejects_collapsed_reference():
    rng = derive_rng(8, "pn", "collapse")
    d = distance_matrix(rng)
    d[HEAD, PELVIS] = d[PELVIS, HEAD] = 0.004
    with pytest.raises(DataError):
        normalize_distances(d)


def test_normalize_all_invalid_passthrough():
    rng = derive_rng(8, "pn", "allinv")
    d = distance_matrix(rng)
    dn = normalize_distances(d, np.zeros((6, 6), dtype=bool))
    assert np.array_equal(dn, d)


def test_normalize_stack_is_per_frame_and_names_the_bad_frame():
    rng = derive_rng(8, "pn", "stack")
    d = np.stack([distance_matrix(rng) for _ in range(4)])
    valid = np.ones((4, 6, 6), dtype=bool)
    valid[2] = False
    d[2, HEAD, PELVIS] = d[2, PELVIS, HEAD] = 0.004  # all-invalid: passes through
    dn = normalize_distances(d, valid)
    for f in range(4):
        want = d[f] if f == 2 else normalize_distances(d[f])
        assert dn[f].tobytes() == want.tobytes()
    assert normalize_distances(d[None], valid[None]).tobytes() == dn[None].tobytes()
    d[3, HEAD, PELVIS] = d[3, PELVIS, HEAD] = 0.01
    with pytest.raises(DataError, match=r"0\.0100 m too small to normalize by \(frame 3\)"):
        normalize_distances(d, valid)


def test_fusion_weights_clip_and_interpolate():
    w = fusion_weights(np.array([0.0, 2.0, 5.0, 8.0, 30.0]), low=2.0, high=8.0)
    assert np.array_equal(w, np.array([0.0, 0.0, 0.5, 1.0, 1.0]))
    with pytest.raises(ConfigError):
        fusion_weights(np.array([1.0]), low=5.0, high=2.0)


def test_fuse_positions_endpoints_bitwise():
    # Forward.fuse on branch outputs of three frames, every sensor at
    # acceleration norm 1, 9.5 and 5 against the default bounds (2, 8).
    rng = derive_rng(8, "pn", "fuse")
    fwd = values_only(init_params(TINY_NET, 1))
    p_t = rng.normal(size=(3, 18))
    p_s = rng.normal(size=(3, 18))
    accel = np.zeros((3, 6, 3))
    accel[:, :, 1] = np.array([1.0, 9.5, 5.0])[:, None]
    slow, fast, half = fwd.fuse(fwd.tape.const(p_t), fwd.tape.const(p_s), accel).value
    assert np.array_equal(slow, p_s[0])
    assert np.array_equal(fast, p_t[1])
    assert np.allclose(half, 0.5 * p_t[2] + 0.5 * p_s[2], atol=1e-15)


def test_correlation_rows_sum_to_one():
    rng = derive_rng(8, "pn", "corr")
    params = init_params(TINY_NET, 1)
    d = distance_matrix(rng)
    c = correlation(params, 0, d, valid_mask())
    assert c.shape == (6, 6)
    assert np.array_equal(np.diag(c), np.zeros(6))
    assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)


def test_correlation_masked_rows_and_columns_are_zero():
    rng = derive_rng(8, "pn", "corrmask")
    params = init_params(TINY_NET, 1)
    d = distance_matrix(rng)
    c_full = correlation(params, 0, d, valid_mask())
    c = correlation(params, 0, d, valid_mask([(1, 4)]))
    assert c[1, 4] == 0.0
    assert c[4, 1] == 0.0
    # untouched entries shift only through renormalization
    assert not np.array_equal(c_full, c)
    assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)


def test_dagcn_scale_invariance_bitwise():
    # Power-of-two distances make k*d exact for every k here, so the
    # head-pelvis normalization cancels the scale without rounding and the
    # output must not move by a single bit.
    rng = derive_rng(8, "pn", "scale")
    params = init_params(TINY_NET, 2)
    r = rng.normal(0.0, 0.4, (6, 6))
    d = np.array(
        [
            [0.0, 0.5, 1.0, 0.5, 0.5, 1.0],
            [0.5, 0.0, 2.0, 0.25, 1.0, 0.5],
            [1.0, 2.0, 0.0, 0.5, 0.25, 1.0],
            [0.5, 0.25, 0.5, 0.0, 0.5, 2.0],
            [0.5, 1.0, 0.25, 0.5, 0.0, 1.0],
            [1.0, 0.5, 1.0, 2.0, 1.0, 0.0],
        ]
    )
    mask = valid_mask([(2, 3)])
    base = spatial_branch(params, r, d, mask)
    for k in (0.5, 1.3, 2.0):
        scaled = spatial_branch(params, r, k * d, mask)
        assert np.array_equal(scaled, base)


def test_dagcn_output_shape_and_finiteness():
    rng = derive_rng(8, "pn", "shape")
    params = init_params(TINY_NET, 3)
    out = spatial_branch(params, rng.normal(size=(6, 6)), distance_matrix(rng), valid_mask())
    assert out.shape == (6, 3)
    assert np.isfinite(out).all()


def test_lstm_branch_shapes_and_state_carry():
    rng = derive_rng(8, "pn", "lstm")
    params = init_params(TINY_NET, 4)
    r_seq = rng.normal(0.0, 0.4, (5, 6, 6))
    a_seq = rng.normal(0.0, 2.0, (5, 6, 3))

    def temporal_branch(r):
        x = np.concatenate([r, a_seq], axis=2).reshape(1, 5, 6 * 9)
        return values_only(params).lstm(x).value.reshape(5, 6, 3)

    out = temporal_branch(r_seq)
    assert out.shape == (5, 6, 3)
    # A different first frame changes later outputs: state actually carries.
    r2 = r_seq.copy()
    r2[0] += 0.5
    out2 = temporal_branch(r2)
    assert not np.allclose(out[4], out2[4])


def test_infer_shapes_and_determinism():
    rng = derive_rng(8, "pn", "infer")
    params = init_params(TINY_NET, 5)
    inputs = model_input(rng, 4, invalid_pairs=[(0, 3)])
    a = run(params, inputs)
    b = run(params, inputs)
    assert a.p.shape == (4, 6, 3)
    assert a.p_t.shape == (4, 6, 3)
    assert a.p_s.shape == (4, 6, 3)
    assert a.rotations.shape == (4, 15, 6)
    assert a.contacts.shape == (4, 2)
    for k in range(4):
        assert np.array_equal(a.p[k], b.p[k])
        assert np.array_equal(a.rotations[k], b.rotations[k])
        assert ((a.contacts[k] > 0.0) & (a.contacts[k] < 1.0)).all()


def test_infer_rejects_empty_sequence():
    params = init_params(TINY_NET, 6)
    with pytest.raises(ContractViolationError):
        infer(params, np.zeros((0, 6, 6)), np.zeros((0, 6, 3)), np.zeros((0, 6, 6)), np.zeros((0, 6, 6), bool))


def test_zero_params_fixed_point():
    rng = derive_rng(8, "pn", "zero")
    params = PoseNetParams(TINY_NET, {k: np.zeros_like(v) for k, v in init_params(TINY_NET, 0).tensors.items()})
    out = run(params, model_input(rng, 2))
    for k in range(2):
        assert np.array_equal(out.p[k], np.zeros((6, 3)))
        assert np.array_equal(out.contacts[k], np.full(2, 0.5))


def test_fusion_blends_branches_per_sensor():
    # Hand the model one slow and one fast sensor; the fused row must equal
    # the matching branch row exactly.
    rng = derive_rng(8, "pn", "regime")
    params = init_params(TINY_NET, 7)
    a = np.zeros((6, 3))
    a[2] = (9.0, 0.0, 0.0)  # fast sensor
    out = infer(params, rng.normal(0.0, 0.4, (1, 6, 6)), a[None], distance_matrix(rng)[None], valid_mask()[None])
    assert np.array_equal(out.p[0, 0], out.p_s[0, 0])
    assert np.array_equal(out.p[0, 2], out.p_t[0, 2])


def test_fusion_follows_the_config_bounds():
    # Bounds (1, 3) instead of the defaults (2, 8): a sensor at norm 0.5
    # takes the spatial row, at 2 the exact half blend, at 3 the temporal row.
    rng = derive_rng(8, "pn", "bounds")
    config = dataclasses.replace(TINY_NET, accel_low=1.0, accel_high=3.0)
    a = np.zeros((1, 6, 3))
    a[0, :3, 2] = (0.5, 2.0, 3.0)
    out = infer(init_params(config, 8), rng.normal(0.0, 0.4, (1, 6, 6)), a, distance_matrix(rng)[None], valid_mask()[None])
    p, p_t, p_s = out.p[0], out.p_t[0], out.p_s[0]
    assert np.array_equal(p[0], p_s[0])
    assert np.array_equal(p[1], 0.5 * p_t[1] + 0.5 * p_s[1])
    assert np.array_equal(p[2], p_t[2])
    assert not np.array_equal(p_t, p_s)
