"""Toggling-frame transformation of rotation sequences.

The map replaces each axis e_i by U_i^-1 e_i, where U_i is the propagator
of the preceding elements (U_0 = identity), keeping the flip angles.  For
uniform flip angle 2*pi/m the map is cyclic with period m, which is the
organizing fact behind everything in this package.
"""

from __future__ import annotations

import sys

import numpy as np

from . import rotcore
from .rotcore import quat_conj
from .seqmodel import RotationSequence, _propagate, _scaled_angles, integer_at_least

CYCLE_TOL = 1e-9

def toggle_axes(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """One toggling transformation on raw axis arrays.

    axes: (..., n, 3); angles: (..., n), the two broadcast against each
    other.  Vectorized over leading axes; axis i maps to U_i^-1 axes_i with
    U_0 the identity.

    The loop of ``prefix_quaternions``' chain (``seqmodel._propagate``)
    unrotates axis i by conj(U_i) as it reaches U_i, for a stack and a
    batch of one alike, so no prefix array is built and no second pass
    runs.
    """
    axes = np.asarray(axes, dtype=float)
    return _propagate(axes, angles, axes)[0]


def inverse_toggle_axes(toggled: np.ndarray, angles) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of toggle_axes on raw axis arrays: the axes whose toggling
    image is ``toggled``, and their net quaternions U_n.

    toggled: (..., n, 3); angles: (n,) or (..., n), or one angle for all.
    Returns (..., n, 3) and (..., 4).  The inverse is the forward map
    conjugated by negation, T^-1(f) = -T(-f): with P_i the prefixes of -f,
    the axes are conj(P_i) f_i and the net is conj(P_n).  So both
    directions run the one chain, unrotating in its loop as ``toggle_axes``
    does, and the rounding of recovered axes does not feed back into it.
    Over random unit axes with n <= 80, the nets stay within 1.4e-15 of a
    50-digit product (a forward reconstruction of e_i = U_i f_i reaches
    3.4e-15), and toggle_axes of the result is within 5.9e-15 of
    ``toggled``.
    """
    f = np.asarray(toggled, dtype=float)
    axes, net = _propagate(-f, angles, f)
    return axes, quat_conj(net)


def toggling_map(s: RotationSequence) -> RotationSequence:
    """One application of the toggling map (same angles, mapped axes)."""
    return s.with_axes(toggle_axes(s.axes, s.betas), name=f"{s.name}^(1)")


def toggling_map_iter(s: RotationSequence, m: int) -> RotationSequence:
    """m-fold application of the toggling map (m = 0 returns the input)."""
    m = integer_at_least("iteration count", m, 0)
    axes = s.axes
    betas = s.betas
    for _ in range(m):
        axes = toggle_axes(axes, betas)
    name = s.name if m == 0 else f"{s.name}^({m})"
    return s.with_axes(axes, name=name)


def closed_form_toggling(s: RotationSequence, m: int) -> RotationSequence:
    """Depth-m toggled axes in closed form: axis i maps through the inverse
    of the prefix product taken with every angle multiplied by m.

    Equals toggling_map_iter(s, m) for any per-element angles.  An m whose
    angles m * beta_i are not finite floats is refused.
    """
    m = integer_at_least("iteration count", m, 0)
    if m > sys.float_info.max:
        raise ValueError("iteration count is beyond the float range")
    return s.with_axes(toggle_axes(s.axes, _scaled_angles(m, s.betas)), name=f"{s.name}^({m})")


def inverse_toggling_map(s: RotationSequence) -> RotationSequence:
    """The sequence whose toggling image is ``s``.

    Valid for any flip angles, not only 2*pi/m.
    """
    return s.with_axes(inverse_toggle_axes(s.axes, s.betas)[0], name=f"{s.name}^(-1)")


def cyclicity_order(s: RotationSequence, m_max: int, tol: float = CYCLE_TOL) -> int | None:
    """Smallest m <= m_max with M^m s = s (axis-wise max deviation < tol)."""
    m_max = integer_at_least("m_max", m_max)
    ref = s.axes
    axes = ref
    betas = s.betas
    for m in range(1, m_max + 1):
        axes = toggle_axes(axes, betas)
        if float(np.max(np.abs(axes - ref))) < tol:
            return m
    return None


# ---------------------------------------------------------------------------
# equatorial phase maps (beta = pi)
# ---------------------------------------------------------------------------

def phase_map(phis) -> np.ndarray:
    """Toggling-frame phases of an all-equatorial pi-pulse phase list:
    phi_i' = phi_0 + sum_{j<=i} (-1)^j (phi_j - phi_{j-1}).
    """
    phis = np.asarray(phis, dtype=float)
    diffs = np.diff(phis)
    signs = (-1.0) ** np.arange(1, phis.size)
    out = np.empty_like(phis)
    out[0] = phis[0]
    out[1:] = phis[0] + np.cumsum(signs * diffs)
    return out


def finite_difference_duality_check(a: RotationSequence, b: RotationSequence,
                                    tol: float = 1e-9) -> bool:
    """True iff adjacent phase differences satisfy the alternating-sign
    duality: d phi_i[b] = (-1)^i d phi_i[a] (mod 2pi) for all i >= 1.
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    da = np.diff(a.phases)
    db = np.diff(b.phases)
    signs = (-1.0) ** np.arange(1, len(a))
    mismatch = np.angle(np.exp(1j * (db - signs * da)))
    return bool(np.max(np.abs(mismatch)) < tol)


def detuning_frame(s: RotationSequence) -> np.ndarray:
    """Detuning-error toggling axes (n, 3) for an equatorial pi-pulse
    sequence: the plain toggled axes with alternating +/- pi/2 rotations
    about z.
    """
    if not s.is_equatorial():
        raise ValueError("detuning frame requires an equatorial sequence")
    if abs(s.uniform_beta() - np.pi) > 1e-9:
        raise ValueError("detuning frame is defined for uniform beta = pi")
    signs = (-1.0) ** np.arange(len(s))
    return rotcore.rotate_about_z(toggle_axes(s.axes, s.betas), signs * np.pi / 2.0)


def half_band_check(s: RotationSequence, tol: float = 1e-10) -> bool:
    """True iff the toggling map sends the axis list onto itself element-wise,
    either as vectors up to sign or (for equatorial sequences) as phases up
    to sign.
    """
    if abs(s.uniform_beta() - np.pi) > 1e-9:
        raise ValueError("half-band check is defined for uniform beta = pi")
    e0 = s.axes
    e1 = toggle_axes(e0, s.betas)
    dots = np.sum(e0 * e1, axis=1)
    if np.all(np.abs(dots) > 1.0 - tol):
        return True
    if s.is_equatorial() and np.max(np.abs(e1[:, 2])) < tol:
        p0 = np.arctan2(e0[:, 1], e0[:, 0])
        p1 = np.arctan2(e1[:, 1], e1[:, 0])
        plus = np.abs(np.angle(np.exp(1j * (p1 - p0))))
        minus = np.abs(np.angle(np.exp(1j * (p1 + p0))))
        if np.all(np.minimum(plus, minus) < tol):
            return True
    return False
