"""Quaternion and vector algebra against hand-computed oracles."""
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError
from uip.geometry import (
    Quaternion,
    Vec3,
    qconj,
    qfrom_rot6d,
    qmatrix,
    qmul,
    qnormalize,
    qrotate,
    quat_angle_between,
    quat_from_rot6d,
    quat_relative,
    quat_rotate,
    rot6d_from_quat,
)
from uip.rng import derive_rng


def random_quat(rng) -> Quaternion:
    w, x, y, z = rng.normal(size=4)
    return Quaternion(w, x, y, z).normalized()


def test_hamilton_product_oracle():
    # (1,2,3,4)(5,6,7,8) worked out from the Hamilton rules by hand.
    q = Quaternion(1, 2, 3, 4) * Quaternion(5, 6, 7, 8)
    assert (q.w, q.x, q.y, q.z) == (-60.0, 12.0, 30.0, 24.0)


def test_product_matches_matrix_composition():
    rng = derive_rng(3, "geom", "matmul")
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        left = (a * b).to_matrix()
        right = a.to_matrix() @ b.to_matrix()
        assert np.allclose(left, right, atol=1e-12)


def test_normalized_is_unit_and_canonical():
    q = Quaternion(-2.0, 1.0, -3.0, 0.5).normalized()
    assert math.isclose(q.norm(), 1.0, abs_tol=1e-12)
    assert q.w >= 0.0
    # q and -q name the same rotation and normalize identically.
    m = Quaternion(2.0, -1.0, 3.0, -0.5).normalized()
    assert (q.w, q.x, q.y, q.z) == (m.w, m.x, m.y, m.z)


def test_rotate_oracle_quarter_turn():
    q = Quaternion.from_axis_angle(Vec3(0, 0, 1), math.pi / 2)
    v = quat_rotate(q, Vec3(1, 0, 0))
    assert math.isclose(v.x, 0.0, abs_tol=1e-15)
    assert math.isclose(v.y, 1.0, abs_tol=1e-15)
    assert math.isclose(v.z, 0.0, abs_tol=1e-15)


def test_rotate_matches_matrix():
    rng = derive_rng(3, "geom", "rot")
    for _ in range(50):
        q = random_quat(rng)
        v = Vec3(*rng.normal(size=3))
        got = quat_rotate(q, v).to_array()
        want = q.to_matrix() @ v.to_array()
        assert np.allclose(got, want, atol=1e-12)


def test_conjugate_inverts_rotation():
    rng = derive_rng(3, "geom", "conj")
    for _ in range(20):
        q = random_quat(rng)
        v = Vec3(*rng.normal(size=3))
        back = quat_rotate(q.conjugate(), quat_rotate(q, v))
        assert np.allclose(back.to_array(), v.to_array(), atol=1e-12)


def test_rotvec_roundtrip():
    rng = derive_rng(3, "geom", "rotvec")
    for _ in range(50):
        axis = Vec3(*rng.normal(size=3)).normalized()
        angle = rng.uniform(0.01, math.pi - 0.01)
        q = Quaternion.from_axis_angle(axis, angle)
        r = q.to_rotvec()
        assert math.isclose(r.norm(), angle, rel_tol=1e-10)
        q2 = Quaternion.from_rotvec(r)
        assert quat_angle_between(q, q2) < 1e-10


def test_rotation_angle_oracle():
    q = Quaternion.from_axis_angle(Vec3(0, 1, 0), 0.7)
    assert math.isclose(q.rotation_angle(), 0.7, abs_tol=1e-12)
    assert Quaternion.identity().rotation_angle() == 0.0


def test_angle_between_handles_double_cover():
    rng = derive_rng(3, "geom", "cover")
    for _ in range(20):
        q = random_quat(rng)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert quat_angle_between(q, neg) < 1e-9


def test_relative_rotation():
    rng = derive_rng(3, "geom", "rel")
    for _ in range(20):
        a, b = random_quat(rng), random_quat(rng)
        rel = quat_relative(a, b)
        assert quat_angle_between(a * rel, b) < 1e-10


def test_from_matrix_roundtrip_all_branches():
    # Near-180 degree rotations about each axis exercise every extraction
    # branch of the matrix conversion.
    for axis in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)):
        for angle in (0.01, 1.0, math.pi - 0.01):
            q = Quaternion.from_axis_angle(axis, angle)
            q2 = Quaternion.from_matrix(q.to_matrix())
            assert quat_angle_between(q, q2) < 1e-9


def test_rot6d_identity_oracle():
    r6 = rot6d_from_quat(Quaternion.identity())
    assert np.array_equal(r6, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))


def test_rot6d_roundtrip():
    rng = derive_rng(3, "geom", "rot6d")
    for _ in range(50):
        q = random_quat(rng)
        q2 = quat_from_rot6d(rot6d_from_quat(q))
        assert quat_angle_between(q, q2) < 1e-9


def test_rot6d_gram_schmidt_on_noisy_input():
    rng = derive_rng(3, "geom", "gs")
    for _ in range(20):
        r6 = rng.normal(size=6)
        q = quat_from_rot6d(r6)
        m = q.to_matrix()
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
        q = quat_from_rot6d(r6)
        assert quat_angle_between(q, Quaternion.identity()) == 0.0
    # degenerate rows inside a stack give identity; their neighbours do not
    rng = derive_rng(3, "geom", "degenerate")
    stack = rng.normal(size=(3, 4, 6))
    stack[0, 1], stack[2, 3] = degenerate
    q = qfrom_rot6d(stack)
    assert np.array_equal(q[0, 1], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(q[2, 3], [1.0, 0.0, 0.0, 0.0])
    assert not np.any(np.all(q[1] == [1.0, 0.0, 0.0, 0.0], axis=-1))


def test_records_are_array_rows_and_kernels_match_record_methods():
    # Each kernel row is bitwise the record method's result, so whole
    # trajectories and the one-sample-at-a-time filters agree exactly.
    rng = derive_rng(3, "geom", "rows")
    qs = [Quaternion(*rng.normal(size=4)) for _ in range(40)]
    units = [q.normalized() for q in qs]
    vs = [Vec3(*rng.normal(size=3)) for _ in range(40)]
    assert np.asarray([units[:4], units[4:8]]).shape == (2, 4, 4)
    assert np.asarray(vs).shape == (40, 3)
    assert np.array_equal(qnormalize(qs), units)
    assert np.array_equal(qconj(units), [q.conjugate() for q in units])
    assert np.array_equal(qmul(units[:20], units[20:]), [a * b for a, b in zip(units[:20], units[20:])])
    assert np.array_equal(qrotate(units, vs), [quat_rotate(q, v) for q, v in zip(units, vs)])
    with pytest.raises(ContractViolationError):
        qrotate(qs, vs)
    with pytest.raises(ContractViolationError):
        qnormalize(np.zeros((2, 4)))


def test_vec3_cross_oracle():
    c = Vec3(1, 0, 0).cross(Vec3(0, 1, 0))
    assert (c.x, c.y, c.z) == (0.0, 0.0, 1.0)
    assert Vec3(1, 2, 3).dot(Vec3(4, -5, 6)) == 12.0


def test_vec3_normalized_rejects_zero():
    with pytest.raises(ContractViolationError):
        Vec3.zero().normalized()


def test_array_roundtrips():
    v = Vec3(0.1, -2.5, 3.75)
    assert Vec3.from_array(v.to_array()) == v
    q = Quaternion(0.5, -0.5, 0.5, 0.5)
    q2 = Quaternion.from_array(q.to_array())
    assert (q.w, q.x, q.y, q.z) == (q2.w, q2.x, q2.y, q2.z)
