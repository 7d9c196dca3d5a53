"""Pulse-sequence data model and the structural algebra on sequences.

A sequence is an ordered list of (flip angle, axis) elements with index 0
first in time.  Net propagators multiply right-to-left, so the propagator
of elements 0..i-1 is R(beta_{i-1}, e_{i-1}) ... R(beta_0, e_0).

Sequences are immutable; every operation returns a new sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rotcore
from .rotcore import Rotation, axis_from_phase, quat_from_axis_angle, quat_identity, quat_mul

EQUATORIAL_TOL = 1e-9
BETA_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class PulseElement:
    """One piecewise rotation: flip angle ``beta`` (> 0) about ``axis``.

    ``phase`` keeps the unreduced construction phase when the element was
    built from (phi, latitude); axis-built elements derive it via atan2.
    """

    beta: float
    axis: np.ndarray
    phase: float | None = field(default=None, compare=False)
    latitude: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:   # NaN fails too
            raise ValueError("flip angle must be positive and finite; reverse via the axis")
        ax = rotcore.unit_vector(self.axis)
        if ax.shape != (3,):
            raise ValueError(f"an axis needs 3 components, got an array of shape {ax.shape}")
        object.__setattr__(self, "axis", ax)

    @property
    def phase_value(self) -> float:
        if self.phase is not None:
            return self.phase
        return math.atan2(self.axis[1], self.axis[0])

    @property
    def latitude_value(self) -> float:
        if self.latitude is not None:
            return self.latitude
        return math.asin(max(-1.0, min(1.0, self.axis[2])))

    def is_equatorial(self, tol: float = EQUATORIAL_TOL) -> bool:
        return abs(self.axis[2]) < tol


def element_from_phase(beta: float, phi: float, latitude: float = 0.0) -> PulseElement:
    return PulseElement(beta, axis_from_phase(phi, latitude), phase=phi, latitude=latitude)


@dataclass(frozen=True)
class RotationSequence:
    """Ordered pulse elements plus an optional uniform cycle order m.

    If ``cycle_order`` is set, every flip angle must equal 2*pi/m.
    """

    name: str
    elements: tuple[PulseElement, ...]
    cycle_order: int | None = None

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("a sequence needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.cycle_order is not None:
            m = self.cycle_order
            if m < 1:
                raise ValueError("cycle order must be a positive integer")
            want = 2.0 * np.pi / m
            for el in self.elements:
                if abs(el.beta - want) >= BETA_MATCH_TOL:
                    raise ValueError(
                        f"cycle order {m} requires beta = 2pi/{m}, got {el.beta}")

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def betas(self) -> np.ndarray:
        return np.array([el.beta for el in self.elements])

    @property
    def axes(self) -> np.ndarray:
        return np.array([el.axis for el in self.elements])

    @property
    def phases(self) -> np.ndarray:
        return np.array([el.phase_value for el in self.elements])

    def is_equatorial(self, tol: float = EQUATORIAL_TOL) -> bool:
        return all(el.is_equatorial(tol) for el in self.elements)

    def uniform_beta(self) -> float:
        """The common flip angle, raising if elements disagree."""
        b = self.elements[0].beta
        if any(abs(el.beta - b) > BETA_MATCH_TOL for el in self.elements):
            raise ValueError(f"sequence {self.name!r} has mixed flip angles")
        return b

    def with_name(self, name: str) -> "RotationSequence":
        return RotationSequence(name, self.elements, self.cycle_order)

    def with_axes(self, axes: np.ndarray, name: str | None = None) -> "RotationSequence":
        """Same angles, new axes (phase/latitude provenance dropped)."""
        els = tuple(PulseElement(el.beta, ax) for el, ax in zip(self.elements, axes))
        return RotationSequence(name or self.name, els, self.cycle_order)


def infer_cycle_order(betas, m_max: int = 64) -> int | None:
    """Smallest m with all angles equal to 2*pi/m, if one exists."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    b = betas[0]
    if np.any(np.abs(betas - b) >= BETA_MATCH_TOL):
        return None
    for m in range(1, m_max + 1):
        if abs(b - 2.0 * np.pi / m) < BETA_MATCH_TOL:
            return m
    return None


def sequence_from_phases(name: str, betas, phases, latitudes=None) -> RotationSequence:
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    if betas.size == 1:
        betas = np.full(phases.shape, betas[0])
    if latitudes is None:
        latitudes = np.zeros_like(phases)
    else:
        latitudes = np.atleast_1d(np.asarray(latitudes, dtype=float))
    els = tuple(element_from_phase(b, p, t) for b, p, t in zip(betas, phases, latitudes))
    return RotationSequence(name, els, infer_cycle_order(betas))


def sequence_from_axes(name: str, betas, axes) -> RotationSequence:
    axes = np.asarray(axes, dtype=float)
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.size == 1:
        betas = np.full(len(axes), betas[0])
    els = tuple(PulseElement(b, ax) for b, ax in zip(betas, axes))
    return RotationSequence(name, els, infer_cycle_order(betas))


def sequences_equal(a: RotationSequence, b: RotationSequence, tol: float = 1e-10) -> bool:
    """Element-wise equality: axis dot > 1 - tol and matching flip angles."""
    if len(a) != len(b):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if abs(ea.beta - eb.beta) >= tol:
            return False
        if float(np.dot(ea.axis, eb.axis)) <= 1.0 - tol:
            return False
    return True


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

def prefix_propagator(s: RotationSequence, i: int, scale: float = 1.0) -> Rotation:
    """Propagator of the first ``i`` elements with every angle scaled.

    i = 0 gives the identity; i = len(s) gives the net propagator U_n.
    ``scale`` is beta'/beta (1 = nominal).
    """
    if not 0 <= i <= len(s):
        raise ValueError(f"prefix length {i} out of range 0..{len(s)}")
    return Rotation(prefix_quaternions(s.axes[:i], scale * s.betas[:i])[-1])


def net_propagator(s: RotationSequence, scale: float = 1.0) -> Rotation:
    return prefix_propagator(s, len(s), scale)


def net_quaternions(s: RotationSequence, beta_primes) -> np.ndarray:
    """Net propagator quaternions (len(beta_primes), 4) of a uniform-angle
    sequence over a sweep of realized flip angles, in one kernel call."""
    scales = np.asarray(beta_primes, dtype=float) / s.uniform_beta()
    axes = np.broadcast_to(s.axes, (scales.size,) + s.axes.shape)
    return prefix_quaternions(axes, scales[:, None] * s.betas[None, :])[:, -1, :]


def prefix_quaternions(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Quaternions U_0..U_n for prefixes of a batch of sequences.

    axes: (..., n, 3); angles: (n,) or (..., n).  Returns (..., n+1, 4) with
    U_0 the identity.  Vectorized over all leading axes.
    """
    axes = np.asarray(axes, dtype=float)
    n = axes.shape[-2]
    angles = np.broadcast_to(np.asarray(angles, dtype=float), axes.shape[:-1])
    lead = axes.shape[:-2]
    out = np.empty(lead + (n + 1, 4))
    q = quat_identity(lead)
    out[..., 0, :] = q
    for i in range(n):
        step = quat_from_axis_angle(axes[..., i, :], angles[..., i])
        q = quat_mul(step, q)
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
        out[..., i + 1, :] = q
    return out


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def reverse(s: RotationSequence) -> RotationSequence:
    return RotationSequence(f"rev({s.name})", tuple(s.elements[::-1]), s.cycle_order)


def cyclic_permute(s: RotationSequence, shift: int) -> RotationSequence:
    """Move the first ``shift`` elements to the end (shift = 1 starts at index 1)."""
    k = shift % len(s)
    els = s.elements[k:] + s.elements[:k]
    return RotationSequence(f"cyc{shift}({s.name})", els, s.cycle_order)


def global_phase_shift(s: RotationSequence, dphi: float) -> RotationSequence:
    """Rotate every axis about z by ``dphi`` (legal for any sequence)."""
    axes = rotcore.rotate_about_z(s.axes, dphi)
    els = tuple(PulseElement(el.beta, ax, phase=None if el.phase is None else el.phase + dphi,
                             latitude=el.latitude) for el, ax in zip(s.elements, axes))
    return RotationSequence(f"{s.name}+{dphi:.6g}", els, s.cycle_order)


def phase_scale(s: RotationSequence, k: int) -> RotationSequence:
    """Multiply every phase by integer ``k`` (equatorial sequences only)."""
    if not s.is_equatorial():
        raise ValueError("phase_scale requires an all-equatorial sequence")
    if k != int(k):
        raise ValueError("phase scale factor must be an integer")
    els = tuple(element_from_phase(el.beta, int(k) * el.phase_value) for el in s.elements)
    return RotationSequence(f"{s.name}*k{k}", els, s.cycle_order)


def nest(outer: RotationSequence, inner: RotationSequence) -> RotationSequence:
    """Nested composition: block j carries phase phi_j[outer] + phi[inner],
    with the inner sequence order-reversed on odd-index blocks.

    Both sequences must be equatorial.  The result has len(outer)*len(inner)
    elements whose flip angles come from the inner sequence.
    """
    if not (outer.is_equatorial() and inner.is_equatorial()):
        raise ValueError("nest requires equatorial sequences")
    inner_fwd = [(el.beta, el.phase_value) for el in inner.elements]
    inner_rev = inner_fwd[::-1]
    els = []
    for j, out_el in enumerate(outer.elements):
        block = inner_rev if j % 2 == 1 else inner_fwd
        for beta, phi in block:
            els.append(element_from_phase(beta, out_el.phase_value + phi))
    betas = [el.beta for el in els]
    return RotationSequence(f"{outer.name}({inner.name})", tuple(els), infer_cycle_order(betas))


def riffle(s: RotationSequence) -> RotationSequence:
    """Split each (beta, phi) into two consecutive (beta/2, phi) elements."""
    if not s.is_equatorial():
        raise ValueError("riffle requires an equatorial sequence")
    els = []
    for el in s.elements:
        half = element_from_phase(el.beta / 2.0, el.phase_value)
        els.extend([half, half])
    betas = [el.beta for el in els]
    return RotationSequence(f"{s.name}v{s.name}", tuple(els), infer_cycle_order(betas))


def scale_betas(s: RotationSequence, scale: float) -> RotationSequence:
    """Every flip angle multiplied by ``scale`` (axes unchanged)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    els = tuple(
        PulseElement(el.beta * scale, el.axis, phase=el.phase, latitude=el.latitude)
        for el in s.elements)
    return RotationSequence(s.name, els, None)


# ---------------------------------------------------------------------------
# JSON schema (shared with the CLI):
# {"name": str, "cycle_order": int?, "elements":
#   [{"beta": num, "phase": num, "latitude": num?} | {"beta": num, "axis": [x,y,z]}]}
# ---------------------------------------------------------------------------

def to_json_dict(s: RotationSequence) -> dict:
    elements = []
    for el in s.elements:
        if el.is_equatorial(1e-12):
            d = {"beta": el.beta, "phase": el.phase_value % (2.0 * np.pi)}
        elif el.phase is not None and el.latitude is not None:
            d = {"beta": el.beta, "phase": el.phase % (2.0 * np.pi), "latitude": el.latitude}
        else:
            d = {"beta": el.beta, "axis": [float(c) for c in el.axis]}
        elements.append(d)
    out = {"name": s.name, "elements": elements}
    if s.cycle_order is not None:
        out["cycle_order"] = s.cycle_order
    return out


def json_elements(d) -> list[dict]:
    """The element list of a decoded sequence object, checked for shape."""
    els = d.get("elements") if isinstance(d, dict) else None
    if not isinstance(els, list) or not all(isinstance(ed, dict) for ed in els):
        raise ValueError("a sequence must be a JSON object whose 'elements' is a list of objects")
    return els


def from_json_dict(d: dict) -> RotationSequence:
    els = []
    try:   # a value of the wrong JSON type raises TypeError
        for ed in json_elements(d):
            beta = float(ed["beta"])
            if "axis" in ed:
                els.append(PulseElement(beta, np.asarray(ed["axis"], dtype=float)))
            else:
                els.append(element_from_phase(beta, float(ed["phase"]),
                                              float(ed.get("latitude", 0.0))))
        return RotationSequence(d.get("name", "unnamed"), tuple(els), d.get("cycle_order"))
    except TypeError as exc:
        raise ValueError(f"malformed sequence: {exc}") from exc


def load_sequence(path: str) -> RotationSequence:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save_sequence(s: RotationSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(to_json_dict(s), fh, indent=2)
        fh.write("\n")
