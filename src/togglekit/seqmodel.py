"""Pulse-sequence data model and the structural algebra on sequences.

A sequence is the arrays (beta_i, e_i) of its elements, with index 0 first
in time.  Net propagators multiply right-to-left, so the propagator of
elements 0..i-1 is R(beta_{i-1}, e_{i-1}) ... R(beta_0, e_0).

Sequences are immutable; every operation maps arrays to a new sequence.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rotcore
from .rotcore import Rotation, _apply3, _mul4, _unit3, _unit4, axis_from_phase

EQUATORIAL_TOL = 1e-9
BETA_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class PulseElement:
    """One piecewise rotation: flip angle ``beta`` (> 0) about ``axis``, with
    the unreduced ``phase`` and ``latitude`` it was built from, if any.

    Sequences store arrays, not elements.  This record is only the input
    form of ``RotationSequence(name, elements)``, kept for callers that
    build a sequence element by element (``bench/wl_analysis.py`` builds
    its mixed-angle sequences so)."""

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


def _shown(value) -> str:
    """``value`` for an error message, bounded: an integer of more than 20
    digits by its digit count (str() refuses ints beyond 4300 digits)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        return repr(value)
    v = abs(int(value))
    if v < 10 ** 20:
        return str(int(value))
    digits = int(v.bit_length() * math.log10(2)) + 1   # off by at most one
    digits += (v >= 10 ** digits) - (v < 10 ** (digits - 1))
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def integer_at_least(name: str, value, least: int = 1) -> int:
    """``value`` as an int, raising unless it is an integer >= ``least``,
    1 (positive) or 0 (non-negative); bools are not integers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, "
                         f"got {_shown(value)}")
    return int(value)


def _integer_valued(name: str, value) -> int:
    """``value`` as an int, raising unless it is an integer or a float with
    an integer value; bools are not integers here."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value))):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {_shown(value)}")


def _checked_cycle_order(m, betas: list[float]) -> int | None:
    """The cycle order as an int (or None), raising unless every flip angle
    is positive and finite, and 2*pi/m if m is given."""
    if not all(0.0 < b < math.inf for b in betas):   # NaN fails too
        raise ValueError("flip angle must be positive and finite; reverse via the axis")
    if m is None:
        return None
    m = integer_at_least("cycle order", m)
    want = 2.0 * np.pi / m
    for b in betas:
        if abs(b - want) >= BETA_MATCH_TOL:
            raise ValueError(f"cycle order {m} requires beta = 2pi/{m}, got {b}")
    return m


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _filled(shape, values) -> np.ndarray:
    """A read-only float array of ``shape`` with ``values`` broadcast into it."""
    out = np.empty(shape)
    out[...] = values
    return _read_only(out)


class RotationSequence:
    """Ordered pulse elements plus an optional uniform cycle order m (then
    every flip angle is 2*pi/m), immutable.

    Flip angles ``betas`` (n,), unit ``axes`` (n, 3) and the phase/latitude
    provenance (two (n,) arrays, NaN where an element has none) are stored
    once, read-only, by ``_sequences``.  ``RotationSequence(name, elements)``
    is a batch of one of it, from ``PulseElement`` records.
    """

    def __init__(self, name: str, elements, cycle_order: int | None = None):
        els = tuple(elements)
        _sequences([name], [[el.beta for el in els]],
                   np.array([el.axis for el in els], dtype=float).reshape(1, -1, 3), cycle_order,
                   [[math.nan if el.phase is None else el.phase for el in els]],
                   [[math.nan if el.latitude is None else el.latitude for el in els]],
                   unit=True, out=[self])

    def __post_init__(self):
        """Runs once for every built sequence, after its arrays are set: the
        hook through which the benchmark's tracer (``bench/spans.py``) and the
        tests count the sequences built."""

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
    def phases(self) -> np.ndarray:
        """Each element's construction phase, or atan2 of its axis if it has none."""
        out = self._given_phases.copy()
        missing = np.isnan(out)
        if missing.any():
            out[missing] = [math.atan2(y, x) for x, y in self.axes[missing, :2].tolist()]
        return out

    def is_equatorial(self, tol: float = EQUATORIAL_TOL) -> bool:
        return all(abs(z) < tol for z in self.axes[:, 2].tolist())

    def uniform_beta(self) -> float:
        """The common flip angle, raising if elements disagree."""
        betas = self.betas.tolist()
        if any(abs(b - betas[0]) > BETA_MATCH_TOL for b in betas):
            raise ValueError(f"sequence {self.name!r} has mixed flip angles")
        return betas[0]

    def with_name(self, name: str) -> "RotationSequence":
        return _take(self, slice(None), name)

    def with_axes(self, axes: np.ndarray, name: str | None = None) -> "RotationSequence":
        """Same angles, new axes (phase/latitude provenance dropped)."""
        return _sequences([name or self.name], self.betas[None],
                          np.asarray(axes, dtype=float)[None], self.cycle_order, held=True)[0]


def _sequences(names, betas, axes, cycle_order=None, phases=None, latitudes=None, *,
               unit: bool = False, held: bool = False, out=None) -> list[RotationSequence]:
    """The one constructor of sequences: one per row of an (N, n, 3) axis
    stack, checked in one pass.  ``betas`` and the provenance ``phases`` and
    ``latitudes`` (None: all NaN) broadcast to (N, n).  The axes are
    normalized in one call, unless ``unit`` says they are rows a sequence
    stores: normalizing a unit row again moves its last bits.  ``held`` says
    the flip angles and cycle order are those of a sequence, checked when it
    was built, so they are not checked again.  ``out`` holds the N objects
    to fill, by default new ones.
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
    # broadcasting repeats these values, so they are checked once
    m = cycle_order if held else _checked_cycle_order(cycle_order, given.ravel().tolist())
    shape = axes.shape[:2]
    betas = _filled(shape, given)
    none = _read_only(np.full(shape[1], math.nan))   # one row shared by every sequence
    prov = [[none] * len(axes) if rows is None else _filled(shape, rows)
            for rows in (phases, latitudes)]
    axes = _read_only(axes) if unit else rotcore.unit_vectors(axes)
    if out is None:
        out = [RotationSequence.__new__(RotationSequence) for _ in names]
    for s, name, b, a, p, t in zip(out, names, betas, axes, *prov):
        vars(s).update(name=name, cycle_order=m, betas=b, axes=a, _given_phases=p,
                       _given_latitudes=t)
        s.__post_init__()
    return out


def sequences_from_arrays(names, betas, axes, cycle_order: int | None = None
                          ) -> list[RotationSequence]:
    """One sequence per row of an (N, n, 3) axis stack, checked in one pass
    and normalized in one call; ``betas`` broadcasts to (N, n)."""
    return _sequences(names, betas, axes, cycle_order)


class SequenceStack:
    """Sequences of one length, one flip angle and one cycle order, held as a
    read-only stack of unit axes: a list-like result that builds no
    ``RotationSequence`` until a row is read.

    Each row keeps its index in the stack it was first made as, and is named
    ``f"{prefix}{index}"``.  ``stack[i]`` builds row i; iteration builds every
    row in one ``_sequences`` call; a slice or an index array gives a
    sub-stack on the same axes array and builds nothing.  Rows are built on
    every read, not cached.  Stacks are made by ``_sequence_stack`` only.
    """

    __slots__ = ("_prefix", "_beta", "_m", "_axes", "_rows")

    def __init__(self, *args, **kwargs):
        raise TypeError("SequenceStack has no public constructor")

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (f"SequenceStack(prefix={self._prefix!r}, rows={len(self)}, "
                f"n={self._axes.shape[1]}, cycle_order={self._m!r})")

    @property
    def axes(self) -> np.ndarray:
        """The rows' unit axes (N, n, 3), a copy."""
        return self._axes[self._rows]

    def _built(self, rows: np.ndarray) -> list[RotationSequence]:
        return _sequences([f"{self._prefix}{i}" for i in rows.tolist()], self._beta,
                          self._axes[rows], self._m, unit=True, held=True)

    def __iter__(self):
        return iter(self._built(self._rows))

    def __getitem__(self, key):
        if isinstance(key, numbers.Integral):
            n, i = len(self), int(key)
            if not -n <= i < n:
                raise IndexError(f"row {i} out of range for a stack of {n}")
            return self._built(self._rows[i % n, None])[0]
        rows = self._rows[key]
        if rows.ndim != 1:
            raise IndexError("a stack takes an integer, a slice or a 1-d index array")
        return _new_stack(self._prefix, self._beta, self._m, self._axes, rows)


def _new_stack(prefix, beta, m, axes, rows) -> SequenceStack:
    stack = SequenceStack.__new__(SequenceStack)
    stack._prefix, stack._beta, stack._m, stack._axes, stack._rows = prefix, beta, m, axes, rows
    return stack


def _sequence_stack(prefix: str, beta: float, axes, cycle_order: int | None = None
                    ) -> SequenceStack:
    """The stack of an (N, n, 3) axis stack with flip angle ``beta``: the
    axes normalized in one call, as ``_sequences`` normalizes them, and the
    flip angle and cycle order checked once."""
    m = _checked_cycle_order(cycle_order, [beta])
    axes = rotcore.unit_vectors(axes)
    return _new_stack(prefix, beta, m, axes, np.arange(len(axes)))


def _take(s: RotationSequence, index, name: str) -> RotationSequence:
    """The elements of ``s`` at ``index``, with its cycle order, its stored
    rows and provenance reused as they are."""
    return _sequences([name], s.betas[index][None], s.axes[index][None], s.cycle_order,
                      s._given_phases[index][None], s._given_latitudes[index][None],
                      unit=True, held=True)[0]


def infer_cycle_order(betas, m_max: int = 64) -> int | None:
    """The m with all angles equal to 2*pi/m, if one up to ``m_max`` exists:
    the nearest integer to 2*pi/beta, which is the only candidate."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    b = float(betas[0])
    if not 0.0 < b < math.inf or np.any(np.abs(betas - b) >= BETA_MATCH_TOL):
        return None
    m = round(min(2.0 * np.pi / b, m_max))   # 2*pi/b is inf for a subnormal b
    if m >= 1 and abs(b - 2.0 * np.pi / m) < BETA_MATCH_TOL:
        return m
    return None


def _phase_sequence(name: str, betas, phases, latitudes=None, cycle_order=None
                    ) -> RotationSequence:
    """Elements at ``phases`` and ``latitudes`` (default 0), which they keep
    as their provenance; ``betas`` broadcasts."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    latitudes = np.broadcast_to(0.0 if latitudes is None else latitudes, phases.shape)
    return _sequences([name], np.asarray(betas, dtype=float)[None],
                      axis_from_phase(phases, latitudes)[None], cycle_order,
                      phases[None], latitudes[None])[0]


def sequence_from_phases(name: str, betas, phases, latitudes=None) -> RotationSequence:
    return _phase_sequence(name, betas, phases, latitudes, infer_cycle_order(betas))


def sequence_from_axes(name: str, betas, axes) -> RotationSequence:
    return sequences_from_arrays([name], np.asarray(betas, dtype=float)[None],
                                 np.asarray(axes, dtype=float)[None], infer_cycle_order(betas))[0]


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
    i = _integer_valued("prefix length", i)
    if not 0 <= i <= len(s):
        raise ValueError(f"prefix length must be in 0..{len(s)}, got {_shown(i)}")
    return Rotation(prefix_quaternions(s.axes[:i], _scaled_angles(scale, s.betas)[:i])[-1])


def net_propagator(s: RotationSequence, scale: float = 1.0) -> Rotation:
    return prefix_propagator(s, len(s), scale)


def net_quaternions(s: RotationSequence, beta_primes) -> np.ndarray:
    """Net propagator quaternions (len(beta_primes), 4) of a uniform-angle
    sequence over a sweep of realized flip angles, in one ``_sweep_nets``
    call.

    Every element is swept at the common angle beta_0 = ``s.uniform_beta()``,
    at half angle 0.5 * (beta'/beta_0) * beta_0.  The nets agree with the
    propagator chain ``prefix_quaternions`` within 1e-13 per component for
    n <= 80.  Angles that differ from beta_0 within BETA_MATCH_TOL move each
    net by at most n * |beta'/beta_0| * BETA_MATCH_TOL / 2 from the chain on
    the elements' own angles.
    """
    return _sweep_nets(s.axes, _half_sweep(beta_primes, s.uniform_beta()))


def _half_sweep(beta_primes, beta0) -> np.ndarray:
    """Half flip angles 0.5 * (beta'/beta_0) * beta_0 of a sweep, at least
    1-d: the chain's scaled angle from ``_scaled_angles``, halved."""
    with np.errstate(over="ignore"):   # an overflowed scale is reported as inf below
        scales = np.asarray(beta_primes, dtype=float) / beta0
    return 0.5 * np.atleast_1d(_scaled_angles(scales, beta0))


def _step_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Row form C @ [M | P] of a sweep step's two factors M = (1 + iL)/2 and
    P = (1 - iL)/2, L the matrix of left multiplication by the pure step
    axis (0, f): the real part (4, 8), and the imaginary part as a linear
    map (3, 32) from f."""
    basis = np.eye(4)
    left = rotcore.quat_mul(basis[1:, None], basis[None]).transpose(0, 2, 1)   # (0, e_k) q
    return (0.5 * np.hstack([basis, basis]),
            0.5 * np.concatenate([left, -left], axis=-1).reshape(3, 32))


_STEP_REAL, _STEP_IMAG = _step_matrices()


def _sweep_coefficients(axes) -> tuple[np.ndarray, np.ndarray]:
    """The net of uniform-angle sequences with unit axes (..., n, 3) as
    U(theta) = Re sum_j c_j e^{ij theta} over j >= 0: the coefficients
    c_j = C_j (2 C_j for j > 0) (..., J, 4) and the frequencies j (J,),
    J = ceil((n + 1)/2), all of parity n (``_sweep_nets`` says how)."""
    axes = np.asarray(axes, dtype=float)
    lead, n = axes.shape[:-2], axes.shape[-2]
    steps = np.empty(axes.shape[:-1] + (4, 8), dtype=complex)
    steps.real = _STEP_REAL
    steps.imag = (axes @ _STEP_IMAG).reshape(steps.shape)
    coeffs = np.zeros(lead + (n + 1, 4), dtype=complex)   # after i steps, row k is C_{2k-i}
    coeffs[..., 0, 0] = 1.0
    for i in range(n):
        terms = coeffs[..., :i + 1, :] @ steps[..., i, :, :]
        coeffs[..., :i + 1, :] = terms[..., 4:]
        coeffs[..., 1:i + 2, :] += terms[..., :4]
    js = np.arange(n % 2, n + 1, 2)   # the last rows
    # U = C_0 + sum_{j>0} 2 Re(C_j e^{ij theta}) = sum_j Re(c_j) cos(j theta) - Im(c_j) sin(j theta)
    return coeffs[..., -js.size:, :] * np.where(js > 0, 2.0, 1.0)[:, None], js


def _sweep_nets(axes, half_angles) -> np.ndarray:
    """Net quaternions (..., G, 4) of uniform-angle sequences with unit axes
    (..., n, 3) over half flip angles theta (..., G), the leading axes
    broadcast, in closed form.

    The step cos(theta) + sin(theta) F_i is (1 - iF_i)/2 e^{i theta} +
    (1 + iF_i)/2 e^{-i theta}, so the net is the trigonometric polynomial
    sum_{j=-n..n} C_j e^{ij theta} with C_j in C^4: C_-j = conj(C_j), only
    j = n mod 2 terms are nonzero, and sum |C_j|^2 = 1 (Parseval).  The
    coefficients take n small steps C'_j = (1 - iF) C_{j-1}/2 +
    (1 + iF) C_{j+1}/2 over the stack; the grid then takes one cos and one
    sin of j theta for the J = ceil((n + 1)/2) terms j >= 0, one einsum and
    one normalization.  A point's bits depend on its angle only, not on the
    grid around it.
    """
    c, js = _sweep_coefficients(axes)
    real = np.concatenate([c.real, -c.imag], axis=-2)
    angles = np.asarray(half_angles, dtype=float)[..., None] * js
    trig = np.empty(angles.shape[:-1] + (2 * js.size,))
    np.cos(angles, out=trig[..., :js.size])
    np.sin(angles, out=trig[..., js.size:])
    return rotcore.quat_normalize(np.einsum("...gk,...kc->...gc", trig, real))


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


def _scaled_angles(scales, betas) -> np.ndarray:
    """Flip angles ``betas`` times flip-angle scales, the two broadcast
    against each other, checked by ``_sweep_grid``: a scale that is not
    finite, or that overflows a product, ends in its ValueError."""
    with np.errstate(over="ignore"):
        angles = np.multiply(scales, betas)
    return _sweep_grid(angles, "scaled flip angles")


def prefix_quaternions(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Quaternions U_0..U_n for prefixes of a batch of sequences.

    axes: (..., n, 3); angles: (..., n), the two broadcast against each
    other.  Returns (*lead, n+1, 4) with U_0 the identity and (*lead, n) the
    broadcast shape.  ``_propagate`` steps the chain and writes each prefix
    straight into the result: on arrays for a stack, and on Python floats,
    with the same bits, for a batch of one.
    """
    return _propagate(np.asarray(axes, dtype=float), angles)


def _propagate(axes: np.ndarray, angles, unrotated: np.ndarray | None = None
               ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The one stepping loop of the propagator chain U_0 = 1,
    U_{i+1} = (cos h_i, sin h_i e_i) U_i with h_i = beta_i / 2, over axes
    e (..., n, 3) and angles (..., n) broadcast to (*lead, n).

    Returns the prefixes U_0..U_n (*lead, n+1, 4).  Given vectors
    ``unrotated`` v (..., n, 3) that broadcast to the same shape, returns
    instead conj(U_i) v_i (*lead, n, 3), each unrotated in the loop as the
    chain reaches U_i, and U_n (*lead, 4): no prefix array is built.

    cos and sin run on the angles' own shape, and the loop steps on the
    components of each element.  For a stack these are arrays over the
    transposed leading axes (n, *lead[::-1]).  A batch of one (leading axes
    holding one element) reads them out once with ``tolist`` and steps on
    Python floats with ``math.sqrt``: on numpy scalars each step costs
    about 40 scalar ufunc dispatches.  Float arithmetic and both square
    roots are correctly rounded IEEE operations, so a batch of one has the
    bits of the same row in a stack.
    """
    half = 0.5 * np.asarray(angles, dtype=float)
    cos_h, sin_axes = np.cos(half), np.sin(half)[..., None] * axes
    lead, n = sin_axes.shape[:-2], sin_axes.shape[-2]
    one = math.prod(lead) == 1
    batch, sqrt = ((), math.sqrt) if one else (lead, np.sqrt)

    def columns(a: np.ndarray, tail: tuple):
        """``a`` broadcast to (*lead, n, *tail), as its components
        (*tail[::-1], n, *batch[::-1]): Python floats for a batch of one."""
        if a.shape != lead + (n,) + tail:
            a = np.broadcast_to(a, lead + (n,) + tail)
        if batch != lead:
            a = a.reshape((n,) + tail)
        return a.T.tolist() if one else a.T

    sw, (sx, sy, sz) = columns(cos_h, ()), columns(sin_axes, (3,))
    if unrotated is None:
        out = np.empty(batch + (n + 1, 4))
        ow, ox, oy, oz = out.T
        last = out[..., n, :]
    else:
        out, last = np.empty(batch + (n, 3)), np.empty(batch + (4,))
        ex, ey, ez = out.T
        vx, vy, vz = columns(unrotated, (3,))
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    for i in range(n):
        if unrotated is None:
            ow[i], ox[i], oy[i], oz[i] = w, x, y, z
        else:
            ex[i], ey[i], ez[i] = _unit3(*_apply3(w, -x, -y, -z, vx[i], vy[i], vz[i]), sqrt=sqrt)
        w, x, y, z = _unit4(*_mul4(sw[i], sx[i], sy[i], sz[i], w, x, y, z), sqrt=sqrt)
    lt = last.T
    lt[0], lt[1], lt[2], lt[3] = w, x, y, z
    if batch != lead:
        out, last = out.reshape(lead + out.shape), last.reshape(lead + (4,))
    return out if unrotated is None else (out, last)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def reverse(s: RotationSequence) -> RotationSequence:
    return _take(s, np.arange(len(s) - 1, -1, -1), f"rev({s.name})")


def cyclic_permute(s: RotationSequence, shift: int) -> RotationSequence:
    """Move the first ``shift`` elements to the end (shift = 1 starts at index 1)."""
    shift, n = _integer_valued("shift", shift), len(s)
    return _take(s, (np.arange(n) + shift % n) % n, f"cyc{_shown(shift)}({s.name})")


def global_phase_shift(s: RotationSequence, dphi: float) -> RotationSequence:
    """Rotate every axis about z by ``dphi`` (legal for any sequence)."""
    return _sequences([f"{s.name}+{dphi:.6g}"], s.betas[None],
                      rotcore.rotate_about_z(s.axes, dphi)[None], s.cycle_order,
                      (s._given_phases + dphi)[None], s._given_latitudes[None])[0]


def _phase_multiple(name: str, k, step, values) -> np.ndarray:
    """Phases ``k * step * values``, multiplied left to right, for an
    integer-valued factor ``k`` called ``name``: a k beyond the float range,
    or one that takes a phase beyond it, ends in one ValueError."""
    factor = _integer_valued(name, k)
    if abs(factor) > sys.float_info.max:
        raise ValueError(f"{name} is beyond the float range, got {_shown(factor)}")
    with np.errstate(over="ignore", invalid="ignore"):   # a phase not finite is refused below
        phases = factor * step * values
    if not np.isfinite(phases).all():
        raise ValueError(f"{name} takes a phase beyond the float range, got {_shown(k)}")
    return phases


def phase_scale(s: RotationSequence, k: int) -> RotationSequence:
    """Multiply every phase by integer ``k`` (equatorial sequences only)."""
    if not s.is_equatorial():
        raise ValueError("phase_scale requires an all-equatorial sequence")
    phases = _phase_multiple("phase scale factor", k, 1.0, s.phases)
    return _phase_sequence(f"{s.name}*k{k}", s.betas, phases, cycle_order=s.cycle_order)


def nest(outer: RotationSequence, inner: RotationSequence) -> RotationSequence:
    """Nested composition: block j carries phase phi_j[outer] + phi[inner],
    with the inner sequence order-reversed on odd-index blocks.

    Both sequences must be equatorial.  The result has len(outer)*len(inner)
    elements whose flip angles come from the inner sequence.
    """
    if not (outer.is_equatorial() and inner.is_equatorial()):
        raise ValueError("nest requires equatorial sequences")
    odd = (np.arange(len(outer)) % 2 == 1)[:, None]
    betas = np.where(odd, inner.betas[::-1], inner.betas).ravel()
    inner_phases = inner.phases
    phases = outer.phases[:, None] + np.where(odd, inner_phases[::-1], inner_phases)
    return sequence_from_phases(f"{outer.name}({inner.name})", betas, phases.ravel())


def riffle(s: RotationSequence) -> RotationSequence:
    """Split each (beta, phi) into two consecutive (beta/2, phi) elements."""
    if not s.is_equatorial():
        raise ValueError("riffle requires an equatorial sequence")
    return sequence_from_phases(f"{s.name}v{s.name}", np.repeat(s.betas / 2.0, 2),
                                np.repeat(s.phases, 2))


def scale_betas(s: RotationSequence, scale: float) -> RotationSequence:
    """Every flip angle multiplied by ``scale`` (axes unchanged)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    with np.errstate(over="ignore"):   # an infinite product fails the flip-angle check
        betas = s.betas * scale
    return _sequences([s.name], betas[None], s.axes[None], None,
                      s._given_phases[None], s._given_latitudes[None])[0]


# ---------------------------------------------------------------------------
# JSON schema (shared with the CLI):
# {"name": str, "cycle_order": int?, "elements":
#   [{"beta": num, "phase": num, "latitude": num?} | {"beta": num, "axis": [x,y,z]}]}
# ---------------------------------------------------------------------------

def _json_phase(phase: float) -> float:
    """``phase`` reduced to [0, 2pi).  A tiny negative phase reduces to
    2pi itself in float arithmetic; that result is written as 0."""
    reduced = phase % (2.0 * np.pi)
    return 0.0 if reduced == 2.0 * np.pi else reduced


def to_json_dict(s: RotationSequence) -> dict:
    elements = []
    for beta, axis, phase, given, lat in zip(
            s.betas.tolist(), s.axes.tolist(), s.phases.tolist(),
            s._given_phases.tolist(), s._given_latitudes.tolist()):
        if abs(axis[2]) < 1e-12:
            d = {"beta": beta, "phase": _json_phase(phase)}
        elif not (math.isnan(given) or math.isnan(lat)):
            d = {"beta": beta, "phase": _json_phase(given), "latitude": lat}
        else:
            d = {"beta": beta, "axis": axis}
        elements.append(d)
    out = {"name": s.name, "elements": elements}
    if s.cycle_order is not None:
        out["cycle_order"] = s.cycle_order
    return out


def _json_number(name: str, value) -> None:
    """A value read as a number must be a JSON number (an int or a float, not
    a bool), and an int must fit a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"malformed sequence: {name} must be a JSON number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"malformed sequence: {name} is an integer beyond the float range")


def json_elements(d) -> list[dict]:
    """The element list of a decoded sequence object, checked for shape, with
    JSON numbers wherever a flip angle, phase, latitude or axis is read."""
    els = d.get("elements") if isinstance(d, dict) else None
    if not isinstance(els, list) or not all(isinstance(ed, dict) for ed in els):
        raise ValueError("a sequence must be a JSON object whose 'elements' is a list of objects")
    for ed in els:
        _json_number("beta", ed.get("beta"))
        if "axis" not in ed:
            _json_number("phase", ed.get("phase"))
            if "latitude" in ed:
                _json_number("latitude", ed["latitude"])
        elif not (isinstance(ed["axis"], list) and len(ed["axis"]) == 3):
            raise ValueError(f"an axis needs 3 components, got {ed['axis']!r}")
        else:
            for c in ed["axis"]:
                _json_number("axis component", c)
    return els


def from_json_dict(d: dict, deg: bool = False) -> RotationSequence:
    """The sequence a decoded JSON object describes; with ``deg`` its flip
    angles, phases and latitudes are read in degrees."""
    rows = json_elements(d)
    betas, axes = np.empty(len(rows)), np.empty((len(rows), 3))
    phases, lats = np.full((2, len(rows)), math.nan)
    by_phase = np.array(["axis" not in ed for ed in rows], dtype=bool)
    for i, ed in enumerate(rows):
        betas[i] = ed["beta"]
        if by_phase[i]:
            phases[i], lats[i] = ed["phase"], ed.get("latitude", 0.0)
        else:
            axes[i] = ed["axis"]
    if deg:
        betas, phases, lats = np.radians(betas), np.radians(phases), np.radians(lats)
    for name, vals in (("phase", phases[by_phase]), ("latitude", lats[by_phase])):
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} {vals[~np.isfinite(vals)][0]} is not finite")
    axes[by_phase] = axis_from_phase(phases[by_phase], lats[by_phase])
    return _sequences([d.get("name", "unnamed")], betas[None], axes[None],
                      d.get("cycle_order"), phases[None], lats[None])[0]


def load_sequence(path: str, deg: bool = False) -> RotationSequence:
    """The sequence in a JSON file; ``deg`` as in ``from_json_dict``."""
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh), deg)


def _csv_text(header: str, columns) -> str:
    """A CSV document: the ``header`` line, then one line per row of the
    stacked ``columns`` (1-D columns or 2-D blocks of them), every cell at
    %.17g, written in one %-format operation.  An integer column (values
    within 2**53, exact as floats) prints its digits, as %d would."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + row * len(table) % tuple(table.ravel().tolist())
