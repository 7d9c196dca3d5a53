"""Sweeps over the realized flip angle: inversion profiles, trajectories,
rotation-error metrics, the glide-reflection duality check, and the
conversion of symmetric pi-inverters into balanced pi/2 sequences.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

import numpy as np

from . import averaging, rotcore, toggling
from .rotcore import Rotation, quat_apply
from .seqmodel import (RotationSequence, _csv_text, _scaled_angles, _sweep_grid,
                       global_phase_shift, net_propagator, net_quaternions,
                       prefix_quaternions, riffle, sequence_from_axes)

DEFAULT_GRID = np.linspace(0.0, 2.0 * np.pi, 721)   # half-degree steps
DEFAULT_GRID.flags.writeable = False


class ProfileSample(tuple):
    """One point of an inversion profile: the realized flip angle, q there,
    the final probe vector, and the net U(beta') as a ``Rotation``.  The
    sample stores the net's unit quaternion and builds the ``Rotation`` on
    each read of ``net_rotation``."""

    __slots__ = ()

    def __new__(cls, beta_prime: float, q: float, final_vector: np.ndarray,
                net_rotation: Rotation):
        return tuple.__new__(cls, (beta_prime, q, final_vector, net_rotation.q))

    beta_prime = property(itemgetter(0), doc="The realized flip angle beta'.")
    q = property(itemgetter(1), doc="q(beta') = e_xi . (U(beta') e_xi).")
    final_vector = property(itemgetter(2), doc="The probe vector U(beta') e_xi.")

    @property
    def net_rotation(self) -> Rotation:
        """U(beta'), built around the stored unit quaternion."""
        return rotcore._as_rotation(self[3])

    def __repr__(self) -> str:
        return (f"ProfileSample(beta_prime={self.beta_prime!r}, q={self.q!r}, "
                f"final_vector={self.final_vector!r}, net_rotation={self.net_rotation!r})")

    @classmethod
    def _sweep(cls, beta_primes, qs, finals, unit_quats) -> list[ProfileSample]:
        """Samples over a sweep, each storing its row of ``unit_quaternions``
        as the constructor stores a ``Rotation``'s quaternion."""
        return list(map(tuple.__new__, repeat(cls), zip(beta_primes, qs, finals, unit_quats)))


def q_values(s: RotationSequence, e_xi, grid) -> np.ndarray:
    """Transformation amplitude e_xi . (U(beta') e_xi) over the grid."""
    return _profile_arrays(s, e_xi, grid)[3]


def q_profile(s: RotationSequence, e_xi, grid=None) -> list[ProfileSample]:
    """Inversion profile q(beta') = e_xi . (U(beta') e_xi).

    q(0) = 1 always; nominal inverters also reach q(beta'=pi) = -1.
    """
    grid, quats, finals, qs = _profile_arrays(s, e_xi, grid)
    return ProfileSample._sweep(grid.tolist(), qs.tolist(), finals, rotcore.unit_quaternions(quats))


def _profile_arrays(s: RotationSequence, e_xi, grid):
    """The grid (DEFAULT_GRID if None), and over it the net quaternions,
    the final probe vectors and the q values."""
    grid = DEFAULT_GRID if grid is None else _sweep_grid(grid)
    e_xi = np.asarray(e_xi, dtype=float)
    quats = net_quaternions(s, grid)
    finals = quat_apply(quats, e_xi)
    qs = (finals[:, 0] * e_xi[0] + finals[:, 1] * e_xi[1]) + finals[:, 2] * e_xi[2]
    return grid, quats, finals, qs   # element-wise: q at a point does not depend on the grid


def _errors_deg(nets: np.ndarray, target: Rotation) -> np.ndarray:
    """Residual angles of target^-1 U in degrees for net quaternions U (N, 4)."""
    return np.degrees(rotcore.quat_angle_between(target.q, rotcore.unit_quaternions(nets)))


def _inverter_q_values(s: RotationSequence, e_xi, sweep, tol: float = 1e-8) -> np.ndarray:
    """q values over a sweep that starts at beta' = pi, raising unless ``s``
    inverts the probe vector there."""
    qs = q_values(s, e_xi, sweep)
    if abs(qs[0] + 1.0) > tol:
        raise ValueError(f"{s.name!r} is not a nominal inverter of the probe "
                         f"vector (q(pi) = {qs[0]:.6g})")
    return qs


def glide_reflection_deviations(s: RotationSequence, s_dual: RotationSequence,
                                grid=None, e_xi=rotcore.E_Z) -> tuple[float, float]:
    """Max-over-grid deviation |q_dual(b') + q_s(pi + b')| and the same for
    the pi - b' branch: one sweep of ``s`` over [pi, pi + grid, pi - grid]
    and one of the dual over [pi, grid], each checked to invert at pi."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    usable = grid.size > 0 and bool(np.isfinite(grid).all())
    sweep = grid if usable else grid[:0]   # a bad grid is reported after both inverter checks
    qs = _inverter_q_values(s, e_xi, np.concatenate([[np.pi], np.pi + sweep, np.pi - sweep]))
    qd = _inverter_q_values(s_dual, e_xi, np.concatenate([[np.pi], sweep]))[1:]
    if not usable:
        _sweep_grid(grid)
    plus = float(np.max(np.abs(qd + qs[1:grid.size + 1])))
    minus = float(np.max(np.abs(qd + qs[grid.size + 1:])))
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
    quats = prefix_quaternions(s.axes, _scaled_angles(float(beta_prime) / beta, s.betas))
    return quat_apply(quats, v0)


def rotation_errors(s: RotationSequence, beta_primes, target: Rotation) -> np.ndarray:
    """Residual rotation angles of target^-1 U(beta') over a sweep of
    realized flip angles, in degrees, in one kernel call."""
    return _errors_deg(net_quaternions(s, _sweep_grid(beta_primes, "flip-angle grid")), target)


def rotation_error(s: RotationSequence, beta_prime: float, target: Rotation) -> float:
    """Residual rotation angle of target^-1 U(beta'), in degrees."""
    return float(rotation_errors(s, [beta_prime], target)[0])


# ---------------------------------------------------------------------------
# m=2 -> m=4 conversion
# ---------------------------------------------------------------------------

_MIRROR_XZ = np.array([1.0, -1.0, 1.0])
_MIRROR_TOL = 1e-9


def _mirror_asymmetry(axes: np.ndarray) -> np.ndarray:
    """Set-wise distance of each axis set (..., n, 3) from its own xz-plane
    mirror image, shape (...)."""
    mirrored = axes * _MIRROR_XZ
    d2 = np.sum((mirrored[..., :, None, :] - axes[..., None, :, :]) ** 2, axis=-1)
    return np.sqrt(d2.min(axis=-1).max(axis=-1))


def convert_m2_to_m4(s: RotationSequence) -> RotationSequence:
    """Convert an order-reversal-symmetric broadband pi-inverter of odd
    length into a balanced 2n-element pi/2 sequence with net rotation
    (pi)_x.

    The output is balanced only when the input is broadband, and that is
    not checked: an odd, symmetric, equatorial pi inverter that is not
    broadband (``nb1_tpg``, say) converts to a (pi)_x sequence whose toggled
    axes are not balanced.

    Pipeline: turn the input about z so its net lies on +/-x; riffle to
    pi/2 steps; rotate the toggled axes about x by pi/2 and cyclically
    permute them by half the length; reconstruct through the inverse
    toggling map; finally turn the axes about z by the smallest angle in
    [0, pi) that puts the candidate's net on +/-x, which also makes the
    axis set reflection-symmetric in the xz plane (checked).
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
    candidate, net = toggling.inverse_toggle_axes(permuted, np.pi / 2.0)
    # a z-turn by delta moves the net's axis phase by delta: (pi)_x needs delta = -phi mod pi
    delta = -np.arctan2(net[2], net[1]) % np.pi
    axes = rotcore.rotate_about_z(candidate, delta - np.pi if delta > np.pi - _MIRROR_TOL else delta)
    net_axis, net_angle = rotcore.quat_to_axis_angle(net)   # a z-turn keeps both
    if (abs(net_angle - np.pi) < 1e-6 and abs(net_axis[2]) < 1e-6
            and _mirror_asymmetry(axes) < _MIRROR_TOL):
        return sequence_from_axes(name, np.pi / 2.0, axes)
    raise ValueError("no xz-symmetrizing z-rotation yields a (pi)_x net rotation")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def profile_csv(s: RotationSequence, e_xi=rotcore.E_Z, grid=None) -> str:
    """Rows beta_prime, q, vx, vy, vz, err_deg (error vs the nominal net)."""
    grid, quats, finals, qs = _profile_arrays(s, e_xi, grid)
    errs = _errors_deg(quats, net_propagator(s))
    return _csv_text("beta_prime,q,vx,vy,vz,err_deg", [grid, qs, finals, errs])
