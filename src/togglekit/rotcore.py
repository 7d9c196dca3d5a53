"""Numerical algebra for 3D rotations and unit vectors.

Rotations are stored as unit quaternions (w, x, y, z) and act as active,
right-handed rotations on column vectors.  That sign convention is fixed
once here and inherited by every other module: R(beta, e_z) maps e_x to
(cos beta, sin beta, 0).

All values are immutable after construction; the quaternion buffers are
marked read-only so instances can be shared freely between workers.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-12          # norm tolerance on construction
DERIVED_TOL = 1e-10       # tolerance on derived quantities
ZERO_ANGLE_TOL = 1e-9     # below this, to_axis_angle reports the identity
AXIS_INPUT_TOL = 1e-6     # how far from unit an input axis may be

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])
for _e in (E_X, E_Y, E_Z):
    _e.flags.writeable = False


def unit_vector(v) -> np.ndarray:
    """Normalize ``v`` to unit length, raising on (near-)zero or non-finite input."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel(order="K")
    n = math.sqrt(float(flat.dot(flat)))   # what np.linalg.norm(v) computes
    if not UNIT_TOL <= n < math.inf:   # NaN fails too
        raise ValueError(f"cannot normalize a vector of norm {n}")
    out = v / n
    out.flags.writeable = False
    return out


def axis_from_phase(phi: float, latitude: float = 0.0) -> np.ndarray:
    """Unit vector at azimuthal phase ``phi`` and the given latitude.

    latitude 0 gives the equatorial (cos phi, sin phi, 0); latitude +pi/2
    gives e_z regardless of phi.
    """
    if not -np.pi / 2 - UNIT_TOL <= latitude <= np.pi / 2 + UNIT_TOL:
        raise ValueError(f"latitude {latitude} outside [-pi/2, pi/2]")
    c = np.cos(latitude)
    out = np.array([c * np.cos(phi), c * np.sin(phi), np.sin(latitude)])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# quaternion kernels, broadcastable over leading axes; shape (..., 4) / (..., 3)
# ---------------------------------------------------------------------------

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (apply b first, then a, when used as rotations)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ((ax * bx + ay * by) + az * bz)
    out[..., 1] = (aw * bx + bw * ax) + (ay * bz - az * by)
    out[..., 2] = (aw * by + bw * ay) + (az * bx - ax * bz)
    out[..., 3] = (aw * bz + bw * az) + (ax * by - ay * bx)
    return out


def quat_conj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_apply(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q (active rotation q v q*)."""
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def quat_from_axis_angle(axes: np.ndarray, angles) -> np.ndarray:
    """Unit quaternion(s) for rotation about unit axes by angles (radians)."""
    angles = np.asarray(angles, dtype=float)[..., None]
    half = 0.5 * angles
    return np.concatenate([np.cos(half), np.sin(half) * np.asarray(axes, dtype=float)], axis=-1)


def rotate_about_z(v: np.ndarray, angles) -> np.ndarray:
    """Rotate vector(s) v, shape (..., 3), about e_z by ``angles``, which
    broadcast against the leading axes of v."""
    v = np.asarray(v, dtype=float)
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


def quat_to_rotation_vector(q: np.ndarray) -> np.ndarray:
    """Logarithm map of unit quaternion(s) (..., 4): angle * axis with the
    angle in [0, pi] (either axis at pi), and the zero vector below
    ZERO_ANGLE_TOL."""
    q = np.where(q[..., :1] >= 0.0, q, -q)
    vnorm = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(vnorm, q[..., :1])
    small = angle < ZERO_ANGLE_TOL
    return np.where(small, 0.0, angle * (q[..., 1:] / np.where(small, 1.0, vnorm)))


def quat_identity(shape=()) -> np.ndarray:
    q = np.zeros(shape + (4,))
    q[..., 0] = 1.0
    return q


# ---------------------------------------------------------------------------
# Rotation type
# ---------------------------------------------------------------------------

class Rotation:
    """An element of SO(3), quaternion-backed and immutable."""

    __slots__ = ("q",)

    def __init__(self, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        n = float(np.linalg.norm(q))
        if not abs(n - 1.0) <= AXIS_INPUT_TOL:   # NaN fails too
            raise ValueError(f"quaternion norm {n} too far from 1")
        q = q / n
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Rotation is immutable")

    def __repr__(self):
        e, beta = to_axis_angle(self)
        return f"Rotation(axis=({e[0]:.6g}, {e[1]:.6g}, {e[2]:.6g}), angle={beta:.6g})"

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])


IDENTITY = Rotation(np.array([1.0, 0.0, 0.0, 0.0]))


def from_axis_angle(e, beta: float) -> Rotation:
    """Right-handed active rotation of column vectors about unit ``e`` by ``beta``."""
    e = np.asarray(e, dtype=float)
    n = float(np.linalg.norm(e))
    if abs(n - 1.0) > AXIS_INPUT_TOL:
        raise ValueError(f"rotation axis must be unit length, got norm {n}")
    return Rotation(quat_from_axis_angle(e / n, float(beta)))


def from_rotation_vector(v) -> Rotation:
    """Rotation by |v| radians about v's direction; the zero vector is the identity."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle < UNIT_TOL:
        return IDENTITY
    return from_axis_angle(v / angle, angle)


def to_axis_angle(r: Rotation) -> tuple[np.ndarray, float]:
    """Canonical (axis, angle) with angle in [0, pi].

    The identity reports (e_z, 0).  At angle pi either antipodal axis is
    valid; the lexicographically larger one is returned.
    """
    q = r.q if r.q[0] >= 0.0 else -r.q
    vnorm = float(np.linalg.norm(q[1:]))
    angle = 2.0 * np.arctan2(vnorm, q[0])
    if angle < ZERO_ANGLE_TOL:
        return E_Z, 0.0
    axis = q[1:] / vnorm
    if angle > np.pi - 1e-12:
        neg = -axis
        if tuple(neg) > tuple(axis):
            axis = neg
    axis = axis.copy()
    axis.flags.writeable = False
    return axis, float(angle)


def compose(later: Rotation, earlier: Rotation) -> Rotation:
    """Rotation applying ``earlier`` first, then ``later``."""
    return Rotation(quat_normalize(quat_mul(later.q, earlier.q)))


def inverse(r: Rotation) -> Rotation:
    return Rotation(quat_conj(r.q))


def rotate(r: Rotation, v) -> np.ndarray:
    """Apply rotation ``r`` to a 3-vector (length preserving)."""
    out = quat_apply(r.q, np.asarray(v, dtype=float))
    out.flags.writeable = False
    return out


def rotation_angle_between(a: Rotation, b: Rotation) -> float:
    """Residual rotation angle of a^-1 b, in radians (SO(3) distance)."""
    _, beta = to_axis_angle(compose(inverse(a), b))
    return beta
