"""Dynamical-decoupling analysis: delay-interleaved sequences, oscillating
z-field dressing, Uhrig timing, anti-DD nesting, and the centroid maps that
rank robustness against simultaneous flip-angle and field errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rotcore, seqmodel, toggling
from .seqmodel import RotationSequence, sequence_from_phases

MAP_MAX_AXES = 2 ** 22   # toggled axes (cells x pulses) one centroid map may allocate


@dataclass(frozen=True)
class DDSequence:
    """n pulses interleaved with n+1 free-evolution delays.

    delays[0] precedes the first pulse and delays[n] trails the last one.
    """

    pulses: RotationSequence
    delays: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        if delays.ndim != 1 or delays.size != len(self.pulses) + 1:
            raise ValueError("need exactly one more delay than pulses")
        if not np.isfinite(delays).all():
            raise ValueError("delays must be finite")
        if np.any(delays < 0.0):
            raise ValueError("delays must be non-negative")
        delays = delays.copy()
        delays.flags.writeable = False
        object.__setattr__(self, "delays", delays)

    @property
    def total_time(self) -> float:
        with np.errstate(over="ignore"):   # an overflowing sum is inf
            return float(self.delays.sum())


def kick_times(dd: DDSequence) -> np.ndarray:
    """Time of each pulse: t_j = sum of delays up to and including slot j."""
    with np.errstate(over="ignore"):   # an overflowing sum is inf; the check says so
        t = np.cumsum(dd.delays[:-1])
    if not np.isfinite(t).all():
        raise ValueError(f"the delays before the last pulse must sum to a finite time, "
                         f"got {t[-1]}")
    return t


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


def _field_phases(t: np.ndarray, omegas, amp: float) -> np.ndarray:
    """Phase shift theta = (amp/omega) sin(omega t) that a field
    amp*cos(omega t) gives a pulse at time t, and amp*t where omega = 0.
    ``omegas`` broadcast against ``t``.  A phase that overflows ends in one
    ValueError."""
    omegas = np.asarray(omegas, dtype=float)
    static = omegas == 0.0
    w = np.where(static, 1.0, omegas)   # no division by zero on the static rows
    with np.errstate(over="ignore", invalid="ignore"):   # both branches run on every row
        thetas = np.where(static, amp * t, (amp / w) * np.sin(w * t))
    finite = np.isfinite(thetas)
    if not finite.all():
        raise ValueError(f"field phases must be finite, got {thetas[~finite].flat[0]} "
                         f"at amp {amp:g}")
    return thetas


def _dress(dd: DDSequence, thetas: np.ndarray, tag: str) -> DDSequence:
    pulses = dd.pulses.with_axes(rotcore.rotate_about_z(dd.pulses.axes, thetas),
                                 name=f"{dd.pulses.name}{tag}")
    return DDSequence(pulses, dd.delays)


def osc_field_dressed(dd: DDSequence, omega: float, amp: float) -> DDSequence:
    """Absorb an oscillating z-field amp*cos(omega t) into the pulse axes.

    Pulse j is phase-shifted by theta_j = (amp/omega) sin(omega t_j).
    """
    if omega == 0.0:
        raise ValueError("omega must be nonzero; use static_field_dressed for the dc limit")
    return _dress(dd, _field_phases(kick_times(dd), omega, amp), f"~w{omega:.3g}")


def static_field_dressed(dd: DDSequence, amp: float) -> DDSequence:
    """The omega -> 0 limit: theta_j = amp * t_j."""
    return _dress(dd, _field_phases(kick_times(dd), 0.0, amp), "~dc")


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


def _centroid_norms(axes: np.ndarray, betas: np.ndarray, beta_scales) -> np.ndarray:
    """|centroid| of the toggled axes of every axis list in ``axes``
    (..., n, 3) at every flip-angle scale: shape (..., S)."""
    scales = np.atleast_1d(np.asarray(beta_scales, dtype=float))
    angles = seqmodel._scaled_angles(scales[:, None], betas)   # an overflowing scale is refused
    toggled = toggling.toggle_axes(axes[..., None, :, :], angles)
    return np.linalg.norm(toggled.mean(axis=-2), axis=-1)


def centroid_map(dd: DDSequence, omega_grid=None, beta_scale_grid=None,
                 amp: float | None = None) -> CentroidMap:
    """Map cells are |centroid| of the toggled axes of the dressed pulse
    sequence, with uniform per-pulse weights.

    ``amp`` defaults to 1/total-time (amp * T = 1).
    """
    total = dd.total_time
    if not 0.0 < total < math.inf and (omega_grid is None or amp is None):
        raise ValueError(f"the delays total {total}, and the default omega grid and amp "
                         f"are in units of 1/total-time")
    if omega_grid is None:
        with np.errstate(over="ignore"):   # a tiny total overflows; the check says so
            omega_grid = default_omega_grid(dd)
    omegas = seqmodel._sweep_grid(omega_grid, "omega grid")
    scales = default_beta_scale_grid() if beta_scale_grid is None \
        else seqmodel._sweep_grid(beta_scale_grid, "beta-scale grid")
    if amp is None:
        amp = 1.0 / total
    if not math.isfinite(amp):
        raise ValueError(f"amp must be finite, got {amp}")
    axes = omegas.size * scales.size * len(dd.pulses)
    if axes > MAP_MAX_AXES:
        raise ValueError(f"a centroid map of {omegas.size} x {scales.size} cells over "
                         f"{len(dd.pulses)} pulses toggles {axes} axes, "
                         f"more than 2**22 = {MAP_MAX_AXES}")
    thetas = _field_phases(kick_times(dd), omegas[:, None], amp)
    dressed = rotcore.unit_vectors(rotcore.rotate_about_z(dd.pulses.axes, thetas))
    return CentroidMap(omegas, scales, _centroid_norms(dressed, dd.pulses.betas, scales), amp)


def map_to_csv(cm: CentroidMap) -> str:
    """Header row of beta'/beta values, first column omega, cells |C^(1)|."""
    scales = cm.beta_scales.tolist()
    header = ("omega\\beta_scale" + ",%.17g" * len(scales)) % tuple(scales)
    return seqmodel._csv_text(header, [cm.omegas, cm.values])


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
    """A DD sequence from its decoded JSON object.  Its delays are a list of
    JSON numbers; no delays at all is a list of none, refused by count."""
    if not isinstance(d, dict):
        raise ValueError("a DD sequence must be a JSON object")
    pulses = seqmodel.from_json_dict(d.get("pulses"))
    delays = d.get("delays", [])
    if not isinstance(delays, list):
        raise ValueError(f"malformed DD sequence: delays must be a list, got {delays!r}")
    for t in delays:
        seqmodel._json_number("delay", t)
    return DDSequence(pulses, np.array(delays, dtype=float))


def load_dd(path: str) -> DDSequence:
    with open(path, encoding="utf-8") as fh:
        return dd_from_json_dict(json.load(fh))
