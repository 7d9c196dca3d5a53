"""Dynamical-decoupling analysis: delay-interleaved sequences, oscillating
z-field dressing, Uhrig timing, anti-DD nesting, and the centroid maps that
rank robustness against simultaneous flip-angle and field errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rotcore, seqmodel, toggling
from .seqmodel import RotationSequence, sequence_from_phases


@dataclass(frozen=True)
class DDSequence:
    """n pulses interleaved with n+1 free-evolution delays.

    delays[0] precedes the first pulse and delays[n] trails the last one.
    ``trailing_z`` records the residual z-rotation angle an oscillating
    field leaves after the last pulse; it has no toggled axis and is
    excluded from centroid statistics.
    """

    pulses: RotationSequence
    delays: np.ndarray
    trailing_z: float = field(default=0.0, compare=False)

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        if delays.ndim != 1 or delays.size != len(self.pulses) + 1:
            raise ValueError("need exactly one more delay than pulses")
        if np.any(delays < 0.0):
            raise ValueError("delays must be non-negative")
        delays = delays.copy()
        delays.flags.writeable = False
        object.__setattr__(self, "delays", delays)

    @property
    def total_time(self) -> float:
        return float(self.delays.sum())


def kick_times(dd: DDSequence) -> np.ndarray:
    """Time of each pulse: t_j = sum of delays up to and including slot j."""
    return np.cumsum(dd.delays[:-1])


def udd(n: int) -> DDSequence:
    """Uhrig decoupling: n (pi)_0 kicks at Chebyshev nodes of the second
    kind on a window of duration n, t_j = n sin^2(pi j / (2n+2))."""
    if n < 1:
        raise ValueError("need at least one pulse")
    j = np.arange(1, n + 1)
    t = n * np.sin(np.pi * j / (2 * n + 2)) ** 2
    delays = np.diff(np.concatenate([[0.0], t, [float(n)]]))
    pulses = sequence_from_phases(f"udd({n})", np.pi, np.zeros(n))
    return DDSequence(pulses, delays)


def _dress(dd: DDSequence, thetas: np.ndarray, trailing: float, tag: str) -> DDSequence:
    pulses = dd.pulses.with_axes(rotcore.rotate_about_z(dd.pulses.axes, thetas),
                                 name=f"{dd.pulses.name}{tag}")
    return DDSequence(pulses, dd.delays, trailing_z=trailing)


def osc_field_dressed(dd: DDSequence, omega: float, amp: float) -> DDSequence:
    """Absorb an oscillating z-field amp*cos(omega t) into the pulse axes.

    Pulse j is phase-shifted by theta_j = (amp/omega) sin(omega t_j); the
    closing z-rotation (amp/omega)[sin(omega tau_n) - sin(omega tau_{n-1})]
    is kept as metadata only.
    """
    if omega == 0.0:
        raise ValueError("omega must be nonzero; use static_field_dressed for the dc limit")
    t = kick_times(dd)
    thetas = (amp / omega) * np.sin(omega * t)
    trailing = (amp / omega) * (np.sin(omega * dd.delays[-1]) - np.sin(omega * dd.delays[-2]))
    return _dress(dd, thetas, trailing, f"~w{omega:.3g}")


def static_field_dressed(dd: DDSequence, amp: float) -> DDSequence:
    """The omega -> 0 limit: theta_j = amp * t_j."""
    t = kick_times(dd)
    trailing = amp * (dd.delays[-1] - dd.delays[-2])
    return _dress(dd, amp * t, trailing, "~dc")


def anti_dd(dd_outer: DDSequence, inner: RotationSequence) -> DDSequence:
    """Nest the toggling image of ``inner`` into the outer pulse phases,
    keeping the outer delay structure (outer delay j precedes block j).
    """
    if not inner.is_equatorial():
        raise ValueError("anti-DD inner sequence must be equatorial")
    if abs(inner.uniform_beta() - np.pi) > 1e-9:
        raise ValueError("anti-DD inner sequence must be a uniform pi sequence")
    pulses = seqmodel.nest(dd_outer.pulses, toggling.toggling_map(inner))
    k = len(inner)
    delays = np.zeros(len(pulses) + 1)
    delays[:-1:k] = dd_outer.delays[:-1]
    delays[-1] = dd_outer.delays[-1]
    return DDSequence(pulses, delays)


# ---------------------------------------------------------------------------
# centroid maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentroidMap:
    """|C^(1)| of the pulse-toggling axes over an (omega, beta'/beta) grid.

    values[i, j] belongs to omegas[i] and beta_scales[j]; every cell lies
    in [0, 1].
    """

    omegas: np.ndarray
    beta_scales: np.ndarray
    values: np.ndarray
    amp: float

    def cell(self, omega_index: int, scale_index: int) -> float:
        return float(self.values[omega_index, scale_index])


def default_omega_grid(dd: DDSequence, points: int = 25) -> np.ndarray:
    """Log-spaced omega from 0.1 to 100 in units of 1/total-time."""
    return np.logspace(-1, 2, points) / dd.total_time


def default_beta_scale_grid(points: int = 21) -> np.ndarray:
    return np.linspace(0.0, 2.0, points)


def toggled_centroid_norms(pulses: RotationSequence, beta_scales) -> np.ndarray:
    """|centroid| of toggled axes for each flip-angle scale (vectorized)."""
    scales = np.atleast_1d(np.asarray(beta_scales, dtype=float))
    axes = np.broadcast_to(pulses.axes, (scales.size,) + pulses.axes.shape)
    angles = scales[:, None] * pulses.betas[None, :]
    toggled = toggling.toggle_axes(axes, angles)
    return np.linalg.norm(toggled.mean(axis=1), axis=-1)


def centroid_map(dd: DDSequence, omega_grid=None, beta_scale_grid=None,
                 amp: float | None = None) -> CentroidMap:
    """Map cells are |centroid| of the toggled axes of the dressed pulse
    sequence, with uniform per-pulse weights.

    ``amp`` defaults to 1/total-time (amp * T = 1).
    """
    omegas = default_omega_grid(dd) if omega_grid is None else np.asarray(omega_grid, dtype=float)
    scales = default_beta_scale_grid() if beta_scale_grid is None \
        else np.asarray(beta_scale_grid, dtype=float)
    if omegas.size == 0 or scales.size == 0:
        raise ValueError("grids must be nonempty")
    if amp is None:
        amp = 1.0 / dd.total_time
    values = np.empty((omegas.size, scales.size))
    for i, w in enumerate(omegas):
        dressed = static_field_dressed(dd, amp) if w == 0.0 else osc_field_dressed(dd, w, amp)
        values[i] = toggled_centroid_norms(dressed.pulses, scales)
    return CentroidMap(omegas, scales, values, amp)


def map_to_csv(cm: CentroidMap) -> str:
    """Header row of beta'/beta values, first column omega, cells |C^(1)|."""
    lines = ["omega\\beta_scale," + ",".join(f"{s:.17g}" for s in cm.beta_scales)]
    for w, row in zip(cm.omegas, cm.values):
        lines.append(f"{w:.17g}," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def map_to_json_dict(cm: CentroidMap) -> dict:
    return {
        "omegas": [float(w) for w in cm.omegas],
        "beta_scales": [float(s) for s in cm.beta_scales],
        "amp": cm.amp,
        "cells_row_major": [float(v) for v in cm.values.flatten()],
    }


def dd_to_json_dict(dd: DDSequence) -> dict:
    return {"pulses": seqmodel.to_json_dict(dd.pulses),
            "delays": [float(t) for t in dd.delays]}


def dd_from_json_dict(d: dict) -> DDSequence:
    if not isinstance(d, dict):
        raise ValueError("a DD sequence must be a JSON object")
    return DDSequence(seqmodel.from_json_dict(d["pulses"]),
                      np.asarray(d["delays"], dtype=float))


def load_dd(path: str) -> DDSequence:
    with open(path, encoding="utf-8") as fh:
        return dd_from_json_dict(json.load(fh))
