"""Geometry primitives: 3-vectors, unit quaternions, rotation helpers.

Conventions, used everywhere in the package:

- the world frame is right-handed with z up; gravity is (0, 0, -9.81)
- quaternions are scalar-first (w, x, y, z) in the Hamilton convention
- normalized quaternions are canonicalized to w >= 0, so q and -q
  collapse to one representative
- a stationary accelerometer measures the +g reaction, i.e. rotating
  (0, 0, +9.81) into the sensor frame

Vectors are (..., 3) and quaternions (..., 4) float arrays. Each formula
has one kernel (the `q*` functions below), which broadcasts over any
leading shape, so one frame, a trajectory and a whole clip of joints go
through the same code.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

GRAVITY_MAGNITUDE = 9.81
GRAVITY_REACTION = np.array([0.0, 0.0, GRAVITY_MAGNITUDE])
GRAVITY_REACTION.flags.writeable = False
_UNIT_NORM_TOL = 1e-6
_LIBM_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


# -- array kernels: quaternions (..., 4), vectors (..., 3), leading shapes broadcast


def _parts(a) -> list[np.ndarray]:
    """Components along the last axis: (w, x, y, z) or (x, y, z)."""
    a = np.asarray(a, dtype=float)
    # a row (one quaternion or vector) splits into numpy scalars, the cheapest operands
    return list(a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))))


def _join(*parts) -> np.ndarray:
    """Components back into rows along a new last axis (np.stack at less overhead)."""
    out = np.empty(np.broadcast(*parts).shape + (len(parts),))
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


def vcross(a, b) -> np.ndarray:
    """Cross products a x b of vectors."""
    ax, ay, az = _parts(a)
    bx, by, bz = _parts(b)
    return _join(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def qmul(a, b) -> np.ndarray:
    """Hamilton product a * b."""
    w1, x1, y1, z1 = _parts(a)
    w2, x2, y2, z2 = _parts(b)
    return _join(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def qconj(q) -> np.ndarray:
    """Conjugate (the inverse of a unit quaternion)."""
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def qnormalize(q) -> np.ndarray:
    """Unit norm, canonicalized so that w >= 0."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = _parts(q)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    bad = (n == 0.0) | ~np.isfinite(n)
    if bad.any():
        raise ContractViolationError(f"cannot normalize quaternion with norm {n[bad].flat[0]}")
    s = 1.0 / n
    s = np.where(w < 0.0, -s, s)
    return q * s[..., None]


def qrotate(q, v) -> np.ndarray:
    """Rotate vectors v by unit quaternions q."""
    w, x, y, z = _parts(q)
    vx, vy, vz = _parts(v)
    n2 = w * w + x * x + y * y + z * z
    off = np.abs(n2 - 1.0) > 3.0 * _UNIT_NORM_TOL
    if off.any():
        raise ContractViolationError(
            f"qrotate requires a unit quaternion, |q|^2 = {n2[off].flat[0]}"
        )
    # v' = v + 2 w (u x v) + 2 u x (u x v), u = quaternion vector part
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return _join(
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def atan2(y, x) -> np.ndarray:
    """libm's atan2, elementwise: numpy's vectorized arctan2 rounds
    differently on some CPUs, so every angle goes through this one."""
    return np.asarray(_LIBM_ATAN2(y, x), dtype=float)


def qangle(q) -> np.ndarray:
    """Rotation angle of unit quaternions, radians in [0, pi]."""
    w, x, y, z = _parts(q)
    return 2.0 * atan2(np.sqrt(x * x + y * y + z * z), np.abs(w))


def qrotvec(q) -> np.ndarray:
    """Rotation vectors (axis * angle), angle in [0, pi], taking the short arc."""
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)  # q and -q encode the same rotation
    w, x, y, z = _parts(q)
    v = np.sqrt(x * x + y * y + z * z)
    small = v < 1e-12
    # small-angle: sin(a/2) ~ a/2, so vector part ~ axis * a/2
    s = np.where(small, 2.0, 2.0 * atan2(v, w) / np.where(small, 1.0, v))
    return q[..., 1:] * s[..., None]


def qfrom_rotvec(r) -> np.ndarray:
    """Unit quaternions of rotation vectors (axis * angle); qrotvec inverts it."""
    x, y, z = _parts(r)
    angle = np.sqrt(x * x + y * y + z * z)
    small = angle < 1e-12
    a = np.where(small, 1.0, angle)
    s = np.sin(0.5 * a) / a
    q = _join(np.cos(0.5 * a), x * s, y * s, z * s)
    if small.any():
        # first-order expansion keeps this smooth through zero
        q[small] = qnormalize(_join(1.0, 0.5 * x, 0.5 * y, 0.5 * z)[small])
    return q


def qfrom_axis_angle(axis, angle) -> np.ndarray:
    """Rotations by angle (radians) about axis, which need not be unit length."""
    x, y, z = _parts(axis)
    n = np.sqrt(x * x + y * y + z * z)
    if (n == 0.0).any():
        raise ContractViolationError("cannot rotate about a zero axis")
    half = 0.5 * np.asarray(angle, dtype=float)
    s = np.sin(half)
    return _join(np.cos(half), x / n * s, y / n * s, z / n * s)


def qmatrix(q) -> np.ndarray:
    """(..., 3, 3) rotation matrices of unit quaternions."""
    w, x, y, z = _parts(q)
    m = _join(
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )
    return m.reshape(m.shape[:-1] + (3, 3))


def qfrom_matrix(m) -> np.ndarray:
    """Unit quaternions from (..., 3, 3) rotation matrices (Shepperd's method).

    Row b of the symmetric matrix below is 4 q_b q. Each matrix takes the
    row with the largest diagonal entry 4 q_b^2 >= 1, so the result never
    divides by a small number.
    """
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = [_parts(col) for col in _parts(m)]
    rows = _join(
        _join(1.0 + m00 + m11 + m22, m21 - m12, m02 - m20, m10 - m01),
        _join(m21 - m12, 1.0 + m00 - m11 - m22, m01 + m10, m02 + m20),
        _join(m02 - m20, m01 + m10, 1.0 - m00 + m11 - m22, m12 + m21),
        _join(m10 - m01, m02 + m20, m12 + m21, 1.0 - m00 - m11 + m22),
    )
    pivot = np.argmax(np.diagonal(rows, axis1=-2, axis2=-1), axis=-1)
    return qnormalize(np.take_along_axis(rows, pivot[..., None, None], axis=-2)[..., 0, :])


def rot6d_from_quat(q) -> np.ndarray:
    """6D rotation representation (..., 6): the first two matrix columns."""
    m = qmatrix(q)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def qfrom_rot6d(r6) -> np.ndarray:
    """Gram-Schmidt (..., 6) representations back to unit quaternions.

    Degenerate rows (a zero first column, or a second column parallel to
    it) give identity.
    """
    r6 = np.asarray(r6, dtype=float)
    a, b = r6[..., :3], r6[..., 3:6]
    na = np.sqrt((a * a).sum(axis=-1))
    degenerate = na < 1e-8
    c0 = a / np.where(degenerate, 1.0, na)[..., None]
    b_orth = b - (b * c0).sum(axis=-1)[..., None] * c0
    nb = np.sqrt((b_orth * b_orth).sum(axis=-1))
    degenerate |= nb < 1e-8
    c1 = b_orth / np.where(degenerate, 1.0, nb)[..., None]
    m = np.stack([c0, c1, vcross(c0, c1)], axis=-1)
    return qfrom_matrix(np.where(degenerate[..., None, None], np.eye(3), m))
