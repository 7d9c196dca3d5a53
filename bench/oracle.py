"""Independent rotation oracle for the benchmark's output checks.

Uses numpy and math only and never imports togglekit, so a fault in the
library's quaternion kernels cannot hide itself in the reference.  Every
rotation here is a 3x3 matrix built by Rodrigues' formula; chains are plain
matrix products, and the average-error orders are the direct double sums of
the Baker-Campbell-Hausdorff expansion rather than the library's prefix sums.

Conventions match the paper: rotations are active and right-handed, element
0 of a sequence acts first, and the propagator before element i is
U_i = R(beta_{i-1}, e_{i-1}) ... R(beta_0, e_0) with U_0 the identity.

The chain functions take one sequence, an (n, 3) axis array, or a batch of
sequences of one length, (..., n, 3); a batch is checked in one pass.
"""

from __future__ import annotations

import math

import numpy as np


def rodrigues(axis, angle) -> np.ndarray:
    """Rotation matrix by ``angle`` about the unit vector ``axis``: (3, 3),
    or (..., 3, 3) for axes (..., 3) and angles (...)."""
    a = np.asarray(axis, dtype=float)
    t = np.asarray(angle, dtype=float)[..., None, None]
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    o = np.zeros_like(x)
    k = np.stack([np.stack([o, -z, y], -1), np.stack([z, o, -x], -1),
                  np.stack([-y, x, o], -1)], -2)
    return np.eye(3) + np.sin(t) * k + (1.0 - np.cos(t)) * (k @ k)


def prefix_products(axes, angles) -> np.ndarray:
    """U_0 .. U_n as an (..., n+1, 3, 3) array; U_n is the net propagator."""
    axes = np.asarray(axes, dtype=float)
    steps = rodrigues(axes, np.broadcast_to(np.asarray(angles, dtype=float), axes.shape[:-1]))
    n = axes.shape[-2]
    out = np.empty(axes.shape[:-2] + (n + 1, 3, 3))
    out[..., 0, :, :] = np.eye(3)
    for i in range(n):
        out[..., i + 1, :, :] = steps[..., i, :, :] @ out[..., i, :, :]
    return out


def net(axes, angles) -> np.ndarray:
    return prefix_products(axes, angles)[..., -1, :, :]


def toggled_axes(axes, angles) -> np.ndarray:
    """One toggling-frame transformation: e_i -> U_i^T e_i."""
    axes = np.asarray(axes, dtype=float)
    u = prefix_products(axes, angles)[..., :-1, :, :]
    return np.einsum("...nji,...nj->...ni", u, axes)


def toggled_axes_iter(axes, angles, times: int) -> np.ndarray:
    for _ in range(times):
        axes = toggled_axes(axes, angles)
    return np.asarray(axes, dtype=float)


def cycle_order(axes, angles, m_max: int, tol: float = 1e-9):
    """Smallest m <= m_max with M^m s = s (axis-wise), or None."""
    axes = np.asarray(axes, dtype=float)
    cur = axes
    for m in range(1, m_max + 1):
        cur = toggled_axes(cur, angles)
        if np.max(np.abs(cur - axes)) < tol:
            return m
    return None


def untoggle(toggled, angles) -> np.ndarray:
    """The axes whose toggled image is ``toggled``: e_i = U_i f_i, with U_i
    built from the axes already recovered."""
    toggled = np.asarray(toggled, dtype=float)
    angles = np.broadcast_to(np.asarray(angles, dtype=float), toggled.shape[:-1])
    out = np.empty_like(toggled)
    u = np.eye(3)
    for i in range(toggled.shape[-2]):
        out[..., i, :] = np.einsum("...ij,...j->...i", u, toggled[..., i, :])
        u = rodrigues(out[..., i, :], angles[..., i]) @ u
    return out


def order1(vectors) -> np.ndarray:
    """First average-error order: the plain vector sum."""
    return np.asarray(vectors, dtype=float).sum(axis=0)


def order2(vectors) -> np.ndarray:
    """Second order, 1/2 sum_{i<j} e_j x e_i, summed pair by pair."""
    v = np.asarray(vectors, dtype=float)
    out = np.zeros(3)
    for j in range(len(v)):
        for i in range(j):
            out += np.cross(v[j], v[i])
    return 0.5 * out


def rotation_angle(m):
    """Rotation angle in [0, pi] of a rotation matrix, robust near 0 and pi;
    a float, or an array for a batch of matrices."""
    m = np.asarray(m, dtype=float)
    s = 0.5 * np.sqrt((m[..., 2, 1] - m[..., 1, 2]) ** 2 + (m[..., 0, 2] - m[..., 2, 0]) ** 2
                      + (m[..., 1, 0] - m[..., 0, 1]) ** 2)
    c = 0.5 * (np.trace(m, axis1=-2, axis2=-1) - 1.0)
    angle = np.arctan2(s, c)
    return float(angle) if angle.ndim == 0 else angle


def residual_angle(a, b):
    """SO(3) distance: the rotation angle of a^T b, in radians."""
    return rotation_angle(np.swapaxes(np.asarray(a, dtype=float), -1, -2)
                          @ np.asarray(b, dtype=float))


def is_rotation(m, tol: float = 1e-9) -> bool:
    m = np.asarray(m, dtype=float)
    return bool(np.max(np.abs(m.T @ m - np.eye(3))) < tol
                and abs(np.linalg.det(m) - 1.0) < tol)


def phase_axis(phase: float, latitude: float = 0.0) -> np.ndarray:
    c = math.cos(latitude)
    return np.array([c * math.cos(phase), c * math.sin(phase), math.sin(latitude)])


def sequence_from_json(d: dict) -> tuple[np.ndarray, np.ndarray]:
    """(betas, axes) of a sequence in the library's JSON schema."""
    betas, axes = [], []
    for el in d["elements"]:
        betas.append(float(el["beta"]))
        if "axis" in el:
            a = np.asarray(el["axis"], dtype=float)
            axes.append(a / np.linalg.norm(a))
        else:
            axes.append(phase_axis(float(el["phase"]), float(el.get("latitude", 0.0))))
    return np.array(betas), np.array(axes)


def symmetry_class(axes, tol: float = 1e-9) -> str:
    """'symmetric' if e_i = e_{n-1-i}; 'antisymmetric' if the reversed list
    is the xz-plane mirror or the negation of the list; else 'neither'."""
    e = np.asarray(axes, dtype=float)
    r = e[::-1]
    if np.max(np.abs(e - r)) < tol:
        return "symmetric"
    if np.max(np.abs(e - r * np.array([1.0, -1.0, 1.0]))) < tol or np.max(np.abs(e + r)) < tol:
        return "antisymmetric"
    return "neither"


_S3 = math.sqrt(3.0)
AXIS_SETS = {
    "tetrahedron": np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / _S3,
    "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
    "cube": np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) / _S3,
    "diagonal_quad": np.array([[-1, 1, 1], [1, 1, -1], [1, -1, -1], [-1, -1, 1]]) / _S3,
}
"""The polyhedral axis sets of the synthesis search, as unit vectors."""


def on_vertices(vectors, vertices, tol: float = 1e-9) -> bool:
    """Whether every vector is one of the vertices."""
    dots = np.asarray(vectors, dtype=float) @ np.asarray(vertices, dtype=float).T
    return bool(np.all(dots.max(axis=-1) > 1.0 - tol))


def _cube_rotations() -> np.ndarray:
    """The 24 proper rotations among the signed permutation matrices."""
    mats = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in np.ndindex(2, 2, 2):
            g = np.zeros((3, 3))
            g[[0, 1, 2], perm] = [1.0 - 2.0 * s for s in signs]
            if np.linalg.det(g) > 0.0:
                mats.append(g)
    return np.array(mats)


CUBE_ROTATIONS = _cube_rotations()
"""The rotation group of the cube and the octahedron, as (24, 3, 3)."""


def _rounded(axes) -> tuple:
    return tuple(np.round(np.asarray(axes, dtype=float), 6).ravel() + 0.0)


def _least(images) -> tuple:
    """The lexicographically least of (g, n, 3) images, rounded."""
    rows = np.round(images.reshape(len(images), -1), 6) + 0.0
    return tuple(rows[np.lexsort(rows.T[::-1])[0]])


def class_key(axes, symmetry: str) -> tuple:
    """A key shared by exactly the axis lists equivalent under ``symmetry``.

    'none': equal lists.  'axis_set_rotations': lists related by one of the
    24 cube rotations, applied to every axis.  'global_z': lists related by
    one rotation about z, applied to every axis, when the list has an axis
    in the xy plane; otherwise as 'axis_set_rotations'.  The z-rotation
    form turns the first axis off the z line onto +x.
    """
    a = np.asarray(axes, dtype=float)
    if symmetry == "global_z" and np.any(np.abs(a[:, 2]) <= 1e-9):
        xy = np.hypot(a[:, 0], a[:, 1])
        k = int(np.argmax(xy > 1e-6))
        c, s = a[k, 0] / xy[k], a[k, 1] / xy[k]
        turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        return _rounded(a @ turn.T)
    if symmetry in ("global_z", "axis_set_rotations"):
        return _least(np.einsum("gij,nj->gni", CUBE_ROTATIONS, a))
    if symmetry == "none":
        return _rounded(a)
    raise ValueError(f"unknown symmetry {symmetry!r}")


AXIS_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
"""The net that maps e_x -> e_y -> e_z -> e_x."""


def meets_target(m, target, tol: float = 1e-7):
    """Whether the net ``m`` is the rotation matrix ``target``, or, for the
    string targets, a pi rotation about an equatorial axis ('equatorial_pi')
    or the axis-cycling rotation ('axis_cycling').  A bool, or a boolean
    array for a batch of nets."""
    m = np.asarray(m, dtype=float)
    if not isinstance(target, str):
        hit = residual_angle(target, m) < tol
    elif target == "axis_cycling":
        hit = residual_angle(AXIS_CYCLE, m) < tol
    elif target == "equatorial_pi":
        # a pi rotation is symmetric, M = 2 a a^T - 1, with a_z = 0
        a_z2 = (m[..., 2, 2] + 1.0) / 2.0
        hit = (np.abs(rotation_angle(m) - math.pi) < tol) & (a_z2 < tol * tol)
    else:
        raise ValueError(f"unknown target {target!r}")
    return bool(hit) if np.ndim(hit) == 0 else hit
