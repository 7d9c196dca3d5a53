"""Sweeps over the realized flip angle: inversion profiles, trajectories,
rotation-error metrics, the glide-reflection duality check, and the
conversion of symmetric pi-inverters into balanced pi/2 sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import averaging, rotcore, toggling
from .rotcore import Rotation, quat_apply
from .seqmodel import (RotationSequence, global_phase_shift, net_propagator,
                       net_quaternions, prefix_quaternions, riffle, sequence_from_axes)

DEFAULT_GRID = np.linspace(0.0, 2.0 * np.pi, 721)   # half-degree steps
DEFAULT_GRID.flags.writeable = False


@dataclass(frozen=True)
class ProfileSample:
    beta_prime: float
    q: float
    final_vector: np.ndarray
    net_rotation: Rotation


def q_values(s: RotationSequence, e_xi, grid) -> np.ndarray:
    """Transformation amplitude e_xi . (U(beta') e_xi) over the grid."""
    e_xi = np.asarray(e_xi, dtype=float)
    quats = net_quaternions(s, grid)
    return quat_apply(quats, e_xi) @ e_xi


def q_profile(s: RotationSequence, e_xi, grid=None) -> list[ProfileSample]:
    """Inversion profile q(beta') = e_xi . (U(beta') e_xi).

    q(0) = 1 always; nominal inverters also reach q(beta'=pi) = -1.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    e_xi = np.asarray(e_xi, dtype=float)
    quats = net_quaternions(s, grid)
    finals = quat_apply(quats, e_xi)
    qs = finals @ e_xi
    return [ProfileSample(float(bp), float(qv), fv, Rotation(qq))
            for bp, qv, fv, qq in zip(grid, qs, finals, quats)]


def _require_inverter(s: RotationSequence, e_xi, tol: float = 1e-8) -> None:
    q_pi = float(q_values(s, e_xi, [np.pi])[0])
    if abs(q_pi + 1.0) > tol:
        raise ValueError(f"{s.name!r} is not a nominal inverter of the probe "
                         f"vector (q(pi) = {q_pi:.6g})")


def glide_reflection_deviations(s: RotationSequence, s_dual: RotationSequence,
                                grid=None, e_xi=rotcore.E_Z) -> tuple[float, float]:
    """Max-over-grid deviation |q_dual(b') + q_s(pi + b')| and the same for
    the pi - b' branch."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    _require_inverter(s, e_xi)
    _require_inverter(s_dual, e_xi)
    qd = q_values(s_dual, e_xi, grid)
    plus = float(np.max(np.abs(qd + q_values(s, e_xi, np.pi + grid))))
    minus = float(np.max(np.abs(qd + q_values(s, e_xi, np.pi - grid))))
    return plus, minus


def glide_reflection_check(s: RotationSequence, s_dual: RotationSequence,
                           grid=None, e_xi=rotcore.E_Z) -> float:
    """Smaller of the two branch deviations of the glide relation
    q_dual(b') = -q_s(pi +/- b')."""
    return min(glide_reflection_deviations(s, s_dual, grid, e_xi))


def trajectory(s: RotationSequence, v0, beta_prime: float) -> np.ndarray:
    """Probe vector v0 followed through the sequence at flip angle beta':
    n+1 rows, starting with v0 itself."""
    beta = s.uniform_beta()
    v0 = np.asarray(v0, dtype=float)
    quats = prefix_quaternions(s.axes, (beta_prime / beta) * s.betas)
    return quat_apply(quats, v0)


def rotation_error(s: RotationSequence, beta_prime: float, target: Rotation) -> float:
    """Residual rotation angle of target^-1 U(beta'), in degrees."""
    beta = s.uniform_beta()
    u = net_propagator(s, beta_prime / beta)
    return float(np.degrees(rotcore.rotation_angle_between(target, u)))


# ---------------------------------------------------------------------------
# m=2 -> m=4 conversion
# ---------------------------------------------------------------------------

_MIRROR_XZ = np.array([1.0, -1.0, 1.0])
_MIRROR_TOL = 1e-9


def _mirror_asymmetry(axes: np.ndarray) -> float:
    """Set-wise distance of ``axes`` from its own xz-plane mirror image."""
    mirrored = axes * _MIRROR_XZ
    d2 = np.sum((mirrored[:, None, :] - axes[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.min(axis=1).max()))


def _symmetrizing_angles(axes: np.ndarray) -> list[float]:
    """Global z-rotation angles in [0, 2pi), ascending, that make the axis
    set mirror-symmetric in the xz plane.

    After a turn by delta the set is its own mirror exactly when its axes
    pair up, i <-> j, with equal z and phi_i + delta = -(phi_j + delta).
    Pairing the axis r farthest from the z pole with every axis j of equal
    z therefore yields every such delta: -(phi_r + phi_j)/2 or that plus
    pi.  Each candidate is checked exactly.
    """
    r = int(np.argmax(np.hypot(axes[:, 0], axes[:, 1])))
    phis = np.arctan2(axes[:, 1], axes[:, 0])
    half = -0.5 * (phis[r] + phis[np.abs(axes[:, 2] - axes[r, 2]) < _MIRROR_TOL])
    # folded twice: a tiny negative angle folds to 2pi in floating point
    candidates = np.concatenate([half, half + np.pi]) % (2.0 * np.pi) % (2.0 * np.pi)
    turned = rotcore.rotate_about_z(axes, candidates[:, None])
    found = sorted(float(d) for d, t in zip(candidates, turned)
                   if _mirror_asymmetry(t) < _MIRROR_TOL)
    merged: list[float] = []
    for d in found:
        if not merged or d - merged[-1] > _MIRROR_TOL:
            merged.append(d)
    if len(merged) > 1 and merged[-1] - merged[0] > 2.0 * np.pi - _MIRROR_TOL:
        merged.pop()   # the same turn as merged[0], across the wrap
    return merged


def convert_m2_to_m4(s: RotationSequence) -> RotationSequence:
    """Convert an order-reversal-symmetric broadband pi-inverter of odd
    length into a balanced 2n-element pi/2 sequence with net rotation
    (pi)_x.

    Pipeline: turn the input about z so its net lies on +/-x; riffle to
    pi/2 steps; rotate the toggled axes about x by pi/2 and cyclically
    permute them by half the length; reconstruct through the inverse
    toggling map; finally rotate everything about z so the axis set is
    reflection-symmetric in the xz plane.
    """
    if not s.is_equatorial():
        raise ValueError("conversion requires an equatorial sequence")
    if abs(s.uniform_beta() - np.pi) > 1e-9:
        raise ValueError("conversion requires uniform beta = pi")
    if len(s) % 2 == 0:
        raise ValueError("conversion requires odd length")
    if averaging.symmetry_class(s) != "symmetric":
        raise ValueError("conversion requires an order-reversal-symmetric phase list")
    axis, angle = rotcore.to_axis_angle(net_propagator(s))
    if abs(angle - np.pi) > 1e-8 or abs(axis[2]) > 1e-8:
        raise ValueError("conversion requires a nominal equatorial pi inverter")

    name = f"{s.name}->m4"
    s = global_phase_shift(s, -np.arctan2(axis[1], axis[0]))   # net onto +/-x
    r = riffle(s)
    toggled = toggling.toggle_axes(r.axes, r.betas)
    quarter = rotcore.quat_from_axis_angle(rotcore.E_X, np.pi / 2.0)
    lifted = quat_apply(quarter, toggled)
    permuted = np.roll(lifted, len(s), axis=0)
    frame = sequence_from_axes(name, np.pi / 2.0, permuted)
    candidate = toggling.inverse_toggling_map(frame)

    for delta in _symmetrizing_angles(candidate.axes):   # smallest first; need a (pi)_x net
        axes = rotcore.rotate_about_z(candidate.axes, delta)
        out = sequence_from_axes(name, np.full(2 * len(s), np.pi / 2.0), axes)
        ax, ang = rotcore.to_axis_angle(net_propagator(out))
        if abs(ang - np.pi) < 1e-6 and abs(abs(ax[0]) - 1.0) < 1e-6:
            return out
    raise ValueError("no xz-symmetrizing z-rotation yields a (pi)_x net rotation")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def profile_csv(s: RotationSequence, e_xi=rotcore.E_Z, grid=None) -> str:
    """Rows beta_prime, q, vx, vy, vz, err_deg (error vs the nominal net)."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    samples = q_profile(s, e_xi, grid)
    nominal = net_propagator(s)
    lines = ["beta_prime,q,vx,vy,vz,err_deg"]
    for p in samples:
        err = np.degrees(rotcore.rotation_angle_between(nominal, p.net_rotation))
        v = p.final_vector
        lines.append(",".join(f"{x:.17g}" for x in
                              (p.beta_prime, p.q, v[0], v[1], v[2], err)))
    return "\n".join(lines) + "\n"
