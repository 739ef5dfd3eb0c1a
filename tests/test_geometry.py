"""Quaternion and vector kernels against hand-computed oracles."""
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError
from uip.geometry import (
    qangle,
    qconj,
    qfrom_axis_angle,
    qfrom_matrix,
    qfrom_rot6d,
    qfrom_rotvec,
    qmatrix,
    qmul,
    qnormalize,
    qrotate,
    qrotvec,
    rot6d_from_quat,
    vcross,
)
from uip.rng import derive_rng

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def random_quat(rng) -> np.ndarray:
    return qnormalize(rng.normal(size=4))


def angle_between(a, b) -> float:
    """Geodesic angle between unit quaternions, radians in [0, pi]."""
    return float(qangle(qmul(qconj(a), b)))


def test_hamilton_product_oracle():
    # (1,2,3,4)(5,6,7,8) worked out from the Hamilton rules by hand.
    q = qmul([1, 2, 3, 4], [5, 6, 7, 8])
    assert q.tolist() == [-60.0, 12.0, 30.0, 24.0]


def test_product_matches_matrix_composition():
    rng = derive_rng(3, "geom", "matmul")
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        left = qmatrix(qmul(a, b))
        right = qmatrix(a) @ qmatrix(b)
        assert np.allclose(left, right, atol=1e-12)


def test_normalized_is_unit_and_canonical():
    q = qnormalize([-2.0, 1.0, -3.0, 0.5])
    assert math.isclose(float(np.linalg.norm(q)), 1.0, abs_tol=1e-12)
    assert q[0] >= 0.0
    # q and -q name the same rotation and normalize identically.
    m = qnormalize([2.0, -1.0, 3.0, -0.5])
    assert np.array_equal(q, m)
    with pytest.raises(ContractViolationError):
        qnormalize(np.zeros((2, 4)))


def test_rotate_oracle_quarter_turn():
    q = qfrom_axis_angle([0, 0, 1], math.pi / 2)
    v = qrotate(q, [1, 0, 0])
    assert math.isclose(v[0], 0.0, abs_tol=1e-15)
    assert math.isclose(v[1], 1.0, abs_tol=1e-15)
    assert math.isclose(v[2], 0.0, abs_tol=1e-15)
    with pytest.raises(ContractViolationError):
        qrotate([2.0, 0.0, 0.0, 0.0], v)


def test_rotate_matches_matrix():
    rng = derive_rng(3, "geom", "rot")
    for _ in range(50):
        q = random_quat(rng)
        v = rng.normal(size=3)
        got = qrotate(q, v)
        want = qmatrix(q) @ v
        assert np.allclose(got, want, atol=1e-12)


def test_conjugate_inverts_rotation():
    rng = derive_rng(3, "geom", "conj")
    for _ in range(20):
        q = random_quat(rng)
        v = rng.normal(size=3)
        back = qrotate(qconj(q), qrotate(q, v))
        assert np.allclose(back, v, atol=1e-12)


def test_rotvec_roundtrip():
    rng = derive_rng(3, "geom", "rotvec")
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.01, math.pi - 0.01)
        q = qfrom_axis_angle(axis, angle)
        r = qrotvec(q)
        assert math.isclose(float(np.linalg.norm(r)), angle, rel_tol=1e-10)
        q2 = qfrom_rotvec(r)
        assert angle_between(q, q2) < 1e-10


def test_rotation_angle_oracle():
    q = qfrom_axis_angle([0, 1, 0], 0.7)
    assert math.isclose(float(qangle(q)), 0.7, abs_tol=1e-12)
    assert qangle(IDENTITY) == 0.0


def test_angle_between_handles_double_cover():
    rng = derive_rng(3, "geom", "cover")
    for _ in range(20):
        q = random_quat(rng)
        assert angle_between(q, -q) < 1e-9


def test_relative_rotation():
    rng = derive_rng(3, "geom", "rel")
    for _ in range(20):
        a, b = random_quat(rng), random_quat(rng)
        rel = qnormalize(qmul(qconj(a), b))
        assert angle_between(qmul(a, rel), b) < 1e-10


def test_from_matrix_roundtrip_all_branches():
    # Near-180 degree rotations about each axis exercise every extraction
    # branch of the matrix conversion.
    for axis in np.eye(3):
        for angle in (0.01, 1.0, math.pi - 0.01):
            q = qfrom_axis_angle(axis, angle)
            q2 = qfrom_matrix(qmatrix(q))
            assert angle_between(q, q2) < 1e-9


def test_rot6d_identity_oracle():
    r6 = rot6d_from_quat(IDENTITY)
    assert np.array_equal(r6, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))


def test_rot6d_roundtrip():
    rng = derive_rng(3, "geom", "rot6d")
    for _ in range(50):
        q = random_quat(rng)
        q2 = qfrom_rot6d(rot6d_from_quat(q))
        assert angle_between(q, q2) < 1e-9


def test_rot6d_gram_schmidt_on_noisy_input():
    rng = derive_rng(3, "geom", "gs")
    for _ in range(20):
        r6 = rng.normal(size=6)
        m = qmatrix(qfrom_rot6d(r6))
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-10)
        assert math.isclose(float(np.linalg.det(m)), 1.0, abs_tol=1e-10)
    # a (T, J, 6) stack converts in one call, every row orthonormal
    m = qmatrix(qfrom_rot6d(rng.normal(size=(7, 15, 6))))
    assert m.shape == (7, 15, 3, 3)
    assert np.allclose(m @ np.swapaxes(m, -1, -2), np.eye(3), atol=1e-10)
    assert np.allclose(np.linalg.det(m), 1.0, atol=1e-10)


def test_rot6d_degenerate_falls_back_to_identity():
    degenerate = (np.zeros(6), np.array([1.0, 0, 0, 1.0, 0, 0]))
    for r6 in degenerate:
        assert angle_between(qfrom_rot6d(r6), IDENTITY) == 0.0
    # degenerate rows inside a stack give identity; their neighbours do not
    rng = derive_rng(3, "geom", "degenerate")
    stack = rng.normal(size=(3, 4, 6))
    stack[0, 1], stack[2, 3] = degenerate
    q = qfrom_rot6d(stack)
    assert np.array_equal(q[0, 1], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(q[2, 3], [1.0, 0.0, 0.0, 0.0])
    assert not np.any(np.all(q[1] == [1.0, 0.0, 0.0, 0.0], axis=-1))


def test_vcross_oracle():
    assert vcross([1, 0, 0], [0, 1, 0]).tolist() == [0.0, 0.0, 1.0]
    assert vcross([1, 2, 3], [4, -5, 6]).tolist() == [27.0, 6.0, -13.0]
    # the same products and differences as np.cross, signed zeros included
    rng = derive_rng(3, "geom", "cross")
    a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    a[::4, 1], b[::3] = -0.0, (0.0, 0.0, 1.0)
    got, want = vcross(a, b), np.cross(a, b)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_axis_angle_oracles_and_zero_axis():
    # A half turn about z, and the axis need not be unit length.
    q = qfrom_axis_angle([0.0, 0.0, 2.0], math.pi)
    assert np.allclose(q, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(qrotate(q, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)
    # One axis against a series of angles gives one row per angle.
    rows = qfrom_axis_angle([1.0, 0.0, 0.0], [0.0, 0.5, math.pi])
    assert rows.shape == (3, 4)
    assert np.array_equal(rows[0], IDENTITY)
    assert np.allclose(qangle(rows), [0.0, 0.5, math.pi], atol=1e-15)
    with pytest.raises(ContractViolationError, match="zero axis"):
        qfrom_axis_angle(np.zeros((2, 3)), 1.0)


def test_rotvec_oracles_near_zero_and_half_turn():
    # Below 1e-12 rad the first-order branch runs: (1, r / 2), normalized.
    r = np.array([3e-13, -4e-13, 0.0])
    q = qfrom_rotvec(r)
    assert q[0] == 1.0
    assert np.array_equal(q[1:], 0.5 * r)
    assert np.array_equal(qfrom_rotvec(np.zeros(3)), IDENTITY)
    assert np.allclose(qrotvec(q), r, rtol=1e-12, atol=0.0)
    # A rotation of pi about a unit axis u is (0, u).
    u = np.array([2.0, -1.0, 2.0]) / 3.0
    assert np.allclose(qfrom_rotvec(math.pi * u), [0.0, *u], atol=1e-15)
    assert math.isclose(float(qangle(qfrom_rotvec(math.pi * u))), math.pi, rel_tol=1e-15)


def test_rotvec_roundtrip_through_qrotvec_in_a_stack():
    rng = derive_rng(3, "geom", "rotvec-stack")
    axes = rng.normal(size=(5, 7, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    r = axes * rng.uniform(0.0, math.pi - 1e-3, (5, 7, 1))
    r[0, 0] = 1e-14
    q = qfrom_rotvec(r)
    assert q.shape == (5, 7, 4)
    assert np.allclose(np.linalg.norm(q, axis=-1), 1.0, atol=1e-15)
    assert np.allclose(qrotvec(q), r, atol=1e-12)
    # the axis-angle and the rotation-vector forms name the same rotation
    angle = np.linalg.norm(r[1:], axis=-1)
    assert np.allclose(qfrom_axis_angle(axes[1:], angle), q[1:], atol=1e-15)


def test_angles_round_as_libm_atan2_bitwise():
    # qangle and qrotvec round as a scalar loop over math.atan2 does:
    # numpy's vectorized arctan2 differs from it in the last bit on some
    # CPUs, which would make synthesized gyro bytes depend on the machine.
    rng = derive_rng(7, "geometry", "atan2")
    q = qnormalize(rng.normal(size=(20000, 4))) * rng.choice([-1.0, 1.0], (20000, 1))
    angle, rotvec = qangle(q), qrotvec(q)
    for k, (w, x, y, z) in enumerate(q.tolist()):
        v = math.sqrt(x * x + y * y + z * z)
        assert angle[k] == 2.0 * math.atan2(v, abs(w)), k
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        s = 2.0 * math.atan2(v, w) / v
        assert rotvec[k].tolist() == [x * s, y * s, z * s], k
