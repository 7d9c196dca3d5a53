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
ZERO_ANGLE_TOL = 1e-9     # below this, the log map reports the identity
AXIS_INPUT_TOL = 1e-6     # how far from unit an input axis may be

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])
for _e in (E_X, E_Y, E_Z):
    _e.flags.writeable = False


def unit_vectors(v) -> np.ndarray:
    """Every vector along the last axis of ``v`` scaled to unit length, as a
    read-only array; raises on a (near-)zero or non-finite vector.  Each
    row's norm is summed like ``np.linalg.norm`` of that row."""
    v = np.ascontiguousarray(v, dtype=float)
    with np.errstate(over="ignore"):   # an overflowing norm is inf, rejected below
        n = np.sqrt(np.vecdot(v, v))   # per contiguous row, the dot product np.linalg.norm takes
    lo = np.minimum.reduce(n, axis=None, initial=math.inf)
    hi = np.maximum.reduce(n, axis=None, initial=0.0)
    if not (UNIT_TOL <= lo and hi < math.inf):   # a NaN norm reaches both and fails
        raise ValueError(f"cannot normalize a vector of norm {lo if UNIT_TOL > lo else hi}")
    out = v / n[..., None]
    out.flags.writeable = False
    return out


def unit_vector(v) -> np.ndarray:
    """Normalize ``v`` to unit length, raising on (near-)zero or non-finite
    input: a batch of one of ``unit_vectors``, the elements of a
    multi-dimensional ``v`` taken as one vector in C order."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        raise ValueError(f"expected a vector, got the scalar {float(v)!r}")
    return unit_vectors(v.reshape(1, -1))[0].reshape(v.shape)


def axis_from_phase(phi, latitude=0.0) -> np.ndarray:
    """Unit vectors (..., 3) at azimuthal phases ``phi`` and latitudes, which
    broadcast against each other.

    latitude 0 gives the equatorial (cos phi, sin phi, 0); latitude +pi/2
    gives e_z regardless of phi.
    """
    phi = np.asarray(phi, dtype=float)
    latitude = np.asarray(latitude, dtype=float)
    inside = np.abs(latitude) <= np.pi / 2 + UNIT_TOL   # NaN is outside
    if not inside.all():
        raise ValueError(f"latitude {float(latitude[~inside].flat[0])} outside [-pi/2, pi/2]")
    c = np.cos(latitude)
    x = c * np.cos(phi)
    out = np.stack([x, c * np.sin(phi), np.broadcast_to(np.sin(latitude), x.shape)], axis=-1)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# quaternion kernels, broadcastable over leading axes; shape (..., 4) / (..., 3)
# ---------------------------------------------------------------------------

def _mul4(aw, ax, ay, az, bw, bx, by, bz):
    """Hamilton product a*b on components (arrays or numpy scalars)."""
    return (aw * bw - ((ax * bx + ay * by) + az * bz),
            (aw * bx + bw * ax) + (ay * bz - az * by),
            (aw * by + bw * ay) + (az * bx - ax * bz),
            (aw * bz + bw * az) + (ax * by - ay * bx))


def _unit4(w, x, y, z, sqrt=np.sqrt):
    """Components divided by their norm, summed in np.linalg.norm's order;
    ``sqrt`` = math.sqrt keeps Python-float components Python floats."""
    n = sqrt(((w * w + x * x) + y * y) + z * z)
    return w / n, x / n, y / n, z / n


def _unit3(x, y, z, sqrt=np.sqrt):
    n = sqrt((x * x + y * y) + z * z)
    return x / n, y / n, z / n


def _cross3(ax, ay, az, bx, by, bz):
    """Cross product a x b on components, in the operation order of np.cross."""
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def _apply3(w, x, y, z, vx, vy, vz):
    """q v q* on components: v + w t + qv x t with t = 2 qv x v."""
    cx, cy, cz = _cross3(x, y, z, vx, vy, vz)
    tx, ty, tz = 2.0 * cx, 2.0 * cy, 2.0 * cz
    cx, cy, cz = _cross3(x, y, z, tx, ty, tz)
    return (vx + w * tx) + cx, (vy + w * ty) + cy, (vz + w * tz) + cz


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (apply b first, then a, when used as rotations)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = _mul4(
        a[..., 0], a[..., 1], a[..., 2], a[..., 3], b[..., 0], b[..., 1], b[..., 2], b[..., 3])
    return out


def quat_conj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    out = np.empty(q.shape)
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = _unit4(
        q[..., 0], q[..., 1], q[..., 2], q[..., 3])
    return out


def quat_apply(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q (active rotation q v q*)."""
    v = np.asarray(v, dtype=float)
    out = np.empty(np.broadcast_shapes(q.shape[:-1], v.shape[:-1]) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = _apply3(
        q[..., 0], q[..., 1], q[..., 2], q[..., 3], v[..., 0], v[..., 1], v[..., 2])
    return out


def quat_from_axis_angle(axes: np.ndarray, angles) -> np.ndarray:
    """Unit quaternion(s) for rotation about unit axes by angles (radians)."""
    angles = np.asarray(angles, dtype=float)[..., None]
    half = 0.5 * angles
    return np.concatenate([np.cos(half), np.sin(half) * np.asarray(axes, dtype=float)], axis=-1)


def rotate_about_z(v: np.ndarray, angles) -> np.ndarray:
    """Rotate vector(s) v, shape (..., 3), about e_z by ``angles``, which
    broadcast against the leading axes of v; the three components are
    written into one output array."""
    v = np.asarray(v, dtype=float)
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast_shapes(x.shape, angles.shape) + (3,))
    np.subtract(c * x, s * y, out=out[..., 0])
    np.add(s * x, c * y, out=out[..., 1])
    out[..., 2] = z
    return out


def quat_to_axis_angle(q) -> tuple[np.ndarray, np.ndarray]:
    """Logarithm map of unit quaternion(s) (..., 4): canonical unit axes
    (..., 3) and angles (...) in [0, pi].

    Each row is flipped onto w >= 0.  Below ZERO_ANGLE_TOL a row reports
    (e_z, 0).  At angle pi either antipodal axis is valid; the one whose
    first nonzero component is positive (the lexicographically larger one)
    is returned.
    """
    v, vnorm, angles = _log_angles(np.asarray(q, dtype=float))
    small = angles < ZERO_ANGLE_TOL
    axes = np.where(small[..., None], E_Z, v / np.where(small, 1.0, vnorm)[..., None])
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    lead = np.where(x != 0.0, x, np.where(y != 0.0, y, z))
    flip = (angles > np.pi - 1e-12) & (lead < 0.0)
    return np.where(flip[..., None], -axes, axes), angles


def _log_angles(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle steps of the log map on unit quaternions (..., 4): the vector
    parts v of the rows flipped onto w >= 0 (a w of -0 stays), |v| and the
    angles 2 atan2(|v|, w), set to 0 below ZERO_ANGLE_TOL."""
    sign = np.where(q[..., 0] >= 0.0, 1.0, -1.0)
    v = q[..., 1:] * sign[..., None]
    vnorm = np.sqrt(np.vecdot(v, v))   # per contiguous row, the dot product np.linalg.norm takes
    angles = 2.0 * np.arctan2(vnorm, q[..., 0] * sign)
    return v, vnorm, np.where(angles < ZERO_ANGLE_TOL, 0.0, angles)


def quat_to_rotation_vector(q: np.ndarray) -> np.ndarray:
    """Rotation vector(s) angle * axis of unit quaternion(s) (..., 4), from
    ``quat_to_axis_angle``: the zero vector below ZERO_ANGLE_TOL."""
    axes, angles = quat_to_axis_angle(q)
    return angles[..., None] * axes


def quat_angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SO(3) distance: the rotation angle in [0, pi] of a^-1 b for unit
    quaternions a, b (..., 4), broadcast, and 0 below ZERO_ANGLE_TOL.  Each
    row takes the angle steps of ``to_axis_angle(compose(inverse(a), b))``
    and equals its angle bit for bit."""
    inv = unit_quaternions(quat_conj(np.asarray(a, dtype=float)))
    return _log_angles(unit_quaternions(quat_normalize(quat_mul(inv, b))))[2]


def quat_identity(shape=()) -> np.ndarray:
    q = np.zeros(shape + (4,))
    q[..., 0] = 1.0
    return q


# ---------------------------------------------------------------------------
# Rotation type
# ---------------------------------------------------------------------------

def unit_quaternions(q) -> np.ndarray:
    """Quaternion(s) (..., 4) divided by their norms, as a read-only array,
    after the ``Rotation`` constructor's norm check over the whole stack.
    Each row equals ``Rotation(row).q`` bit for bit."""
    q = np.ascontiguousarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError(f"quaternions must have shape (..., 4), got {q.shape}")
    n = np.sqrt(np.vecdot(q, q))   # per contiguous row, the dot product np.linalg.norm takes
    dev = np.abs(n - 1.0)
    if not np.maximum.reduce(dev, axis=None, initial=0.0) <= AXIS_INPUT_TOL:   # NaN fails too
        raise ValueError(f"quaternion norm {n[~(dev <= AXIS_INPUT_TOL)].flat[0]} too far from 1")
    out = q / n[..., None]
    out.flags.writeable = False
    return out


class Rotation:
    """An element of SO(3), quaternion-backed and immutable."""

    __slots__ = ("q",)

    def __init__(self, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        object.__setattr__(self, "q", unit_quaternions(q))

    def __setattr__(self, name, value):
        raise AttributeError("Rotation is immutable")

    def __repr__(self):
        e, beta = to_axis_angle(self)
        return f"Rotation(axis=({e[0]:.6g}, {e[1]:.6g}, {e[2]:.6g}), angle={beta:.6g})"

    def as_matrix(self) -> np.ndarray:
        return quat_apply(self.q, np.eye(3)).T


IDENTITY = Rotation(np.array([1.0, 0.0, 0.0, 0.0]))


def _as_rotation(q: np.ndarray) -> Rotation:
    """The ``Rotation`` on a row that ``unit_quaternions`` returned, as it is."""
    r = Rotation.__new__(Rotation)
    object.__setattr__(r, "q", q)
    return r


def from_axis_angle(e, beta: float) -> Rotation:
    """Right-handed active rotation of column vectors about unit ``e`` by ``beta``."""
    e = np.asarray(e, dtype=float)
    n = float(np.linalg.norm(e))
    if abs(n - 1.0) > AXIS_INPUT_TOL:
        raise ValueError(f"rotation axis must be unit length, got norm {n}")
    return Rotation(quat_from_axis_angle(e / n, float(beta)))


def to_axis_angle(r: Rotation) -> tuple[np.ndarray, float]:
    """Canonical (axis, angle) of ``r``: a batch of one of
    ``quat_to_axis_angle``, the axis read-only."""
    axis, angle = quat_to_axis_angle(r.q)
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
    return float(quat_angle_between(a.q, b.q))
