"""Pulse-sequence data model and the structural algebra on sequences.

A sequence is an ordered list of (flip angle, axis) elements with index 0
first in time.  Net propagators multiply right-to-left, so the propagator
of elements 0..i-1 is R(beta_{i-1}, e_{i-1}) ... R(beta_0, e_0).

Sequences are immutable; every operation returns a new sequence.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import rotcore
from .rotcore import Rotation, _mul4, _unit4, axis_from_phase

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
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,):
            raise ValueError(f"an axis needs 3 components, got an array of shape {ax.shape}")
        object.__setattr__(self, "axis", rotcore.unit_vector(ax))

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


def _unit_element(beta: float, axis: np.ndarray) -> PulseElement:
    """The element of a checked flip angle and a read-only unit axis row,
    built without normalizing the axis a second time (that moves last bits)."""
    el = PulseElement.__new__(PulseElement)
    vars(el).update(beta=beta, axis=axis, phase=None, latitude=None)
    return el


def positive_int(name: str, value) -> int:
    """``value`` as an int, raising unless it is an integer >= 1 (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def _checked_cycle_order(m, betas: list[float]) -> int | None:
    """The cycle order as an int (or None), raising unless every flip angle is 2*pi/m."""
    if m is None:
        return None
    m = positive_int("cycle order", m)
    want = 2.0 * np.pi / m
    for b in betas:
        if abs(b - want) >= BETA_MATCH_TOL:
            raise ValueError(f"cycle order {m} requires beta = 2pi/{m}, got {b}")
    return m


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class RotationSequence:
    """Ordered pulse elements plus an optional uniform cycle order m.

    The flip angles ``betas`` (n,) and unit axes ``axes`` (n, 3) are stored
    once, as read-only arrays.  A sequence built from ``elements`` keeps
    them, with their phase and latitude provenance; one built by
    ``sequences_from_arrays`` derives its elements on first read.  If
    ``cycle_order`` is set, every flip angle must equal 2*pi/m.
    Sequences are immutable.
    """

    def __init__(self, name: str, elements, cycle_order: int | None = None):
        vars(self).update(name=name, cycle_order=cycle_order, betas=None, axes=None,
                          _elements=tuple(elements))
        self.__post_init__()

    def __post_init__(self):
        if self.axes is not None:   # arrays from sequences_from_arrays, checked there
            return
        els = self._elements
        if len(els) < 1:
            raise ValueError("a sequence needs at least one element")
        betas = [el.beta for el in els]
        vars(self).update(cycle_order=_checked_cycle_order(self.cycle_order, betas),
                          betas=_read_only(np.array(betas, dtype=float)),
                          axes=_read_only(np.array([el.axis for el in els])))

    def __setattr__(self, name, value):
        raise AttributeError(f"RotationSequence is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RotationSequence is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return (f"RotationSequence(name={self.name!r}, n={len(self)}, "
                f"cycle_order={self.cycle_order!r})")

    def __len__(self) -> int:
        return len(self.betas)

    @property
    def elements(self) -> tuple[PulseElement, ...]:
        if self._elements is None:
            vars(self)["_elements"] = tuple(
                map(_unit_element, self.betas.tolist(), self.axes))
        return self._elements

    @property
    def phases(self) -> np.ndarray:
        return np.array([el.phase_value for el in self.elements])

    def is_equatorial(self, tol: float = EQUATORIAL_TOL) -> bool:
        return all(abs(z) < tol for z in self.axes[:, 2].tolist())

    def uniform_beta(self) -> float:
        """The common flip angle, raising if elements disagree."""
        betas = self.betas.tolist()
        if any(abs(b - betas[0]) > BETA_MATCH_TOL for b in betas):
            raise ValueError(f"sequence {self.name!r} has mixed flip angles")
        return betas[0]

    def with_name(self, name: str) -> "RotationSequence":
        out = RotationSequence.__new__(RotationSequence)
        vars(out).update(vars(self), name=name)
        out.__post_init__()
        return out

    def with_axes(self, axes: np.ndarray, name: str | None = None) -> "RotationSequence":
        """Same angles, new axes (phase/latitude provenance dropped)."""
        return sequences_from_arrays([name or self.name], self.betas[None],
                                     np.asarray(axes, dtype=float)[None], self.cycle_order)[0]


def sequences_from_arrays(names, betas, axes, cycle_order: int | None = None
                          ) -> list[RotationSequence]:
    """One sequence per row of an (N, n, 3) axis stack, checked in one pass.

    ``betas`` broadcasts to (N, n); ``names`` has N entries.  The axes are
    normalized to the same bits as ``PulseElement`` normalizes each one, so
    the arrays equal those of the same sequences built element by element;
    the elements themselves are built only when read.
    """
    axes = np.asarray(axes, dtype=float)
    if axes.ndim != 3 or axes.shape[2] != 3:
        raise ValueError(f"an axis needs 3 components; expected an (N, n, 3) stack, "
                         f"got an array of shape {axes.shape}")
    if axes.shape[1] < 1:
        raise ValueError("a sequence needs at least one element")
    if len(names) != len(axes):
        raise ValueError(f"{len(names)} names for {len(axes)} sequences")
    given = np.asarray(betas, dtype=float)
    values = given.ravel().tolist()   # broadcasting repeats these, so they are checked once
    if not all(0.0 < b < math.inf for b in values):   # NaN fails too
        raise ValueError("flip angle must be positive and finite; reverse via the axis")
    m = _checked_cycle_order(cycle_order, values)
    betas = np.empty(axes.shape[:2])
    betas[...] = given
    _read_only(betas)
    axes = rotcore.unit_vectors(axes)
    out = []
    for name, b, a in zip(names, betas, axes):
        s = RotationSequence.__new__(RotationSequence)
        vars(s).update(name=name, cycle_order=m, betas=b, axes=a, _elements=None)
        s.__post_init__()
        out.append(s)
    return out


def infer_cycle_order(betas, m_max: int = 64) -> int | None:
    """Smallest m with all angles equal to 2*pi/m, if one exists."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    b = float(betas[0])
    if not math.isfinite(b) or np.any(np.abs(betas - b) >= BETA_MATCH_TOL):
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
        betas = np.full(axes.shape[:1], betas[0])
    return sequences_from_arrays([name], betas[None], axes[None], infer_cycle_order(betas))[0]


def sequences_equal(a: RotationSequence, b: RotationSequence, tol: float = 1e-10) -> bool:
    """Element-wise equality: axis dot > 1 - tol and matching flip angles."""
    if len(a) != len(b):
        return False
    return bool(np.all(np.abs(a.betas - b.betas) < tol)
                and np.all(np.vecdot(a.axes, b.axes) > 1.0 - tol))


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
    return Rotation(prefix_quaternions(s.axes[:i], _scaled_angles(scale, s.betas)[:i])[-1])


def net_propagator(s: RotationSequence, scale: float = 1.0) -> Rotation:
    return prefix_propagator(s, len(s), scale)


def net_quaternions(s: RotationSequence, beta_primes) -> np.ndarray:
    """Net propagator quaternions (len(beta_primes), 4) of a uniform-angle
    sequence over a sweep of realized flip angles, in one kernel call."""
    scales = np.asarray(beta_primes, dtype=float) / s.uniform_beta()
    return prefix_quaternions(s.axes, _sweep_angles(scales, s.betas))[:, -1, :]


def _sweep_angles(scales: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Flip angles of sequences ``betas`` (..., n) over sweeps of scales
    (..., G): (..., G, n), or one (..., G, 1) column when every sequence's
    angles are exactly equal, so the chain's cos and sin run once per scale."""
    if np.all(betas == betas[..., :1]):
        betas = betas[..., :1]
    return scales[..., None] * betas[..., None, :]


def _sweep_grid(values, what: str = "grid") -> np.ndarray:
    """A sweep grid (flip angles, scales, field frequencies) as a float
    array, checked once where it enters the library: nonempty and finite."""
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError(f"{what} must be nonempty")
    finite = np.isfinite(grid)
    if not finite.all():
        raise ValueError(f"{what} must be finite, got {grid[~finite].flat[0]}")
    return grid


def _scaled_angles(scales, betas: np.ndarray) -> np.ndarray:
    """Flip angles ``betas`` (n,) times each flip-angle scale, shape
    np.shape(scales) + (n,), checked by ``_sweep_grid``: a scale that is not
    finite, or that overflows a product, ends in its ValueError."""
    with np.errstate(over="ignore"):
        angles = np.multiply.outer(scales, betas)
    return _sweep_grid(angles, "scaled flip angles")


def prefix_quaternions(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Quaternions U_0..U_n for prefixes of a batch of sequences.

    axes: (..., n, 3); angles: (..., n), the two broadcast against each
    other.  Returns (*lead, n+1, 4) with U_0 the identity and (*lead, n) the
    broadcast shape.  cos and sin run on the angles' own shape, and the
    step components broadcast from there; the chain runs on the components
    of their transposed view (n, *lead[::-1]), so an unbatched chain steps
    on numpy scalars and a batched one on arrays, through the same code.
    A batch of one steps on the unbatched view.
    """
    axes = np.asarray(axes, dtype=float)
    half = 0.5 * np.asarray(angles, dtype=float)
    sin_axes = np.sin(half)[..., None] * axes    # step i is (cos_h, sin_h e_i)
    shape = sin_axes.shape[:-1]
    lead, n = shape[:-1], shape[-1]
    cos_h = np.cos(half)
    if half.shape != shape:
        cos_h = np.broadcast_to(cos_h, shape)
    if lead and math.prod(lead) == 1:
        cos_h, sin_axes = cos_h.reshape(n), sin_axes.reshape(n, 3)
    sw = cos_h.T
    sx, sy, sz = sin_axes.T
    out = np.empty(cos_h.shape[:-1] + (n + 1, 4))
    ow, ox, oy, oz = out.T
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    ow[0], ox[0], oy[0], oz[0] = w, x, y, z
    for i in range(n):
        w, x, y, z = _unit4(*_mul4(sw[i], sx[i], sy[i], sz[i], w, x, y, z))
        ow[i + 1], ox[i + 1], oy[i + 1], oz[i + 1] = w, x, y, z
    return out.reshape(lead + (n + 1, 4))


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
