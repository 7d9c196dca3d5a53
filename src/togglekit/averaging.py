"""Error-analysis layer: centroids, balance, average-rotation orders,
order-reversal symmetry rules, Wigner D-matrices of ranks 0..8 in closed
form from the Cayley-Klein parameters of the rotation, and the rank-lambda
decoupling coefficients of delay-interleaved sequences.

Average-rotation orders are reported as rotation-vector coefficients per
unit error step: the propagator of n error rotations by eps about toggled
axes expands as exp([v]_x) with

    v(eps) = eps * order1 + eps^2 * order2 + eps^3 * order3 + O(eps^4),

so order1 is the plain vector sum of the axes (n times the centroid).
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import rotcore
from .rotcore import Rotation
from .seqmodel import (RotationSequence, _half_sweep, _scaled_angles, _sweep_grid, _sweep_nets,
                       prefix_quaternions)

BALANCE_TOL = 1e-9
MAX_WIGNER_RANK = 8
# (w, x, y, z) @ _CAYLEY_KLEIN = (u00, u01, u10, u11) = (w + iz, y - ix, -y - ix, w - iz)
_CAYLEY_KLEIN = np.array([[1, 0, 0, 1], [0, -1j, -1j, 0], [0, 1, -1, 0], [1j, 0, 0, -1j]])


def centroid(vectors) -> np.ndarray:
    """Arithmetic mean of a nonempty vector set."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0:
        raise ValueError("centroid of an empty set")
    return vectors.mean(axis=0)


def is_balanced(vectors, tol: float = BALANCE_TOL) -> bool:
    return float(np.linalg.norm(centroid(vectors))) < tol


@dataclass(frozen=True)
class AverageRotationOrders:
    """Rotation-vector coefficients of eps, eps^2, eps^3."""

    order1: np.ndarray
    order2: np.ndarray
    order3: np.ndarray


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:   # row-wise, the bits of np.cross
    return np.stack(rotcore._cross3(a[..., 0], a[..., 1], a[..., 2],
                                    b[..., 0], b[..., 1], b[..., 2]), axis=-1)


def _exclusive_cumsum(v: np.ndarray) -> np.ndarray:
    """Sums of the rows before each row, along axis -2."""
    out = np.zeros_like(v)
    out[..., 1:, :] = np.cumsum(v[..., :-1, :], axis=-2)
    return out


def average_orders(vectors) -> AverageRotationOrders:
    """Leading average-rotation orders for error kicks about ``vectors``
    (..., n, 3); each order is (..., 3), and an (n, 3) call is a batch of one.

    The Baker-Campbell-Hausdorff step V_j+1 = log(exp(x e_j) exp(V_j)),
    applied one pulse at a time from V_0 = 0: with S_j and O_j the sums of
    e_i and of e_i x S_i / 2 over i < j, pulse j adds e_j to order 1,
    e_j x S_j / 2 to order 2 and e_j x O_j / 2 + (e_j - S_j) x (e_j x S_j) / 12
    to order 3.
    """
    e = np.asarray(vectors, dtype=float)
    if e.ndim < 2 or e.shape[-1] != 3:
        raise ValueError("expected an (..., n, 3) array of vectors")
    s = _exclusive_cumsum(e)
    es = _cross(e, s)                             # O_j = W_j / 2, W the sums of e_i x S_i
    order3 = (0.25 * _cross(e, _exclusive_cumsum(es)) + _cross(e - s, es) / 12.0).sum(axis=-2)
    return AverageRotationOrders(e.sum(axis=-2), 0.5 * es.sum(axis=-2), order3)


def default_eps_grid(half_width: float = 0.2, points: int = 33) -> np.ndarray:
    """Chebyshev-extrema grid on [-h, h]; symmetric about zero."""
    return half_width * np.cos(np.pi * np.arange(points) / (points - 1))


def numeric_error_expansion(s: RotationSequence, beta_prime: float | None = None,
                            eps_grid=None) -> AverageRotationOrders:
    """Oracle for average_orders: expand the residual rotation vector of
    U(beta')^-1 U(beta'+eps) in eps by polynomial fit and return the cubic
    coefficients; a batch of one of ``_error_expansions``.

    The grid must be symmetric about zero with at least 5 points.  Raises
    if the fit residual or the constant term exceeds ``FIT_TOL``.
    """
    beta = s.uniform_beta()
    power = _error_expansions(s.axes[None], [beta], [beta if beta_prime is None else beta_prime],
                              eps_grid)[0]
    return AverageRotationOrders(power[1], power[2], power[3])


def _cheb_to_power(degree: int) -> np.ndarray:
    """Square matrix whose entry [k, j] is the t^k coefficient of the
    Chebyshev polynomial T_j(t), from T_j+1 = 2t T_j - T_j-1 (integers, exact)."""
    m = np.zeros((degree + 1, degree + 1))
    m[0, 0] = m[1, 1] = 1.0
    for j in range(1, degree):
        m[1:, j + 1] = 2.0 * m[:-1, j]
        m[:, j + 1] -= m[:, j - 1]
    return m


_CHEB_DEGREE = 14
_CHEB_TO_POWER = _cheb_to_power(_CHEB_DEGREE)
FIT_TOL = 1e-8   # bound on the oracle's fit residual and constant term


def _error_expansions(axes, beta0, beta_primes, eps_grid=None) -> np.ndarray:
    """``numeric_error_expansion`` over a stack of same-length uniform-angle
    sequences: axes (N, n, 3), the common flip angle beta_0 per row (N,)
    and a realized flip angle beta' per row (N,).  Returns the power-series coefficients (N, degree+1, 3)
    of each row's residual rotation vector in eps, row k the eps^k term.

    All N sweeps run in one closed-form ``_sweep_nets`` call, each row at
    its beta_0; one least-squares solve on the Chebyshev Vandermonde
    T_j(t) = cos(j arccos t), t = eps/h (h the grid's half width), fits every
    column, and one constant Chebyshev-to-power matrix, with order k divided
    by h^k, converts it.  Raises naming the first row whose fit residual or
    constant term exceeds ``FIT_TOL``.
    """
    grid = default_eps_grid() if eps_grid is None else _sweep_grid(eps_grid, "eps grid")
    if grid.size < 5:
        raise ValueError("eps grid needs at least 5 points")
    if np.max(np.abs(np.sort(grid) + np.sort(grid)[::-1])) > 1e-12:
        raise ValueError("eps grid must be symmetric about zero")
    h = float(np.max(np.abs(grid)))
    if h == 0.0:
        raise ValueError("eps grid needs a nonzero point")
    sweeps = _sweep_grid(np.asarray(beta_primes, dtype=float)[:, None]
                         + np.concatenate([[0.0], grid]), "flip angle beta'")
    nets = _sweep_nets(axes, _half_sweep(sweeps, np.asarray(beta0, dtype=float)[:, None]))
    errors = rotcore.quat_normalize(rotcore.quat_mul(rotcore.quat_conj(nets[:, :1]), nets[:, 1:]))
    vs = rotcore.quat_to_rotation_vector(errors).transpose(1, 0, 2)   # (G, N, 3)
    columns = vs.reshape(grid.size, -1)
    degree = min(_CHEB_DEGREE, grid.size - 1)
    vander = np.cos(np.arccos(grid / h)[:, None] * np.arange(degree + 1))
    coeffs = np.linalg.lstsq(vander, columns, rcond=None)[0]
    resid = np.abs(vander @ coeffs - columns).reshape(vs.shape).max(axis=(0, 2))
    power = (_CHEB_TO_POWER[:degree + 1, :degree + 1] @ coeffs).reshape((degree + 1,) + vs.shape[1:])
    power = power.transpose(1, 0, 2) / (h ** np.arange(degree + 1))[:, None]
    constant = np.abs(power[:, 0]).max(axis=-1)
    failed = np.flatnonzero(~((resid <= FIT_TOL) & (constant <= FIT_TOL)))   # NaN fails too
    if failed.size:
        r = failed[0]
        raise ValueError(f"error expansion fit failed for row {r} (residual {resid[r]:.3g}, "
                         f"constant {constant[r]:.3g})")
    return power


# ---------------------------------------------------------------------------
# order-reversal symmetry
# ---------------------------------------------------------------------------

def symmetry_class(s: RotationSequence, tol: float = 1e-9) -> str:
    """Classify the axis list under order reversal.

    'symmetric': e_i = e_{n-1-i}.  'antisymmetric': reversal negates the
    phases (xz-plane mirror of each axis) or negates the vectors outright.
    Otherwise 'neither'.
    """
    e = s.axes
    r = e[::-1]
    if np.all(np.sum(e * r, axis=1) > 1.0 - tol):
        return "symmetric"
    mirror = r * np.array([1.0, -1.0, 1.0])
    if np.all(np.sum(e * mirror, axis=1) > 1.0 - tol):
        return "antisymmetric"
    if np.all(np.sum(e * -r, axis=1) > 1.0 - tol):
        return "antisymmetric"
    return "neither"


# ---------------------------------------------------------------------------
# Wigner D-matrices and rank-lambda averages
# ---------------------------------------------------------------------------

def _rank(lam) -> int:
    """``lam`` as an int, raising unless it is an integer rank in
    0..MAX_WIGNER_RANK (bools are not)."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Integral) \
            or not 0 <= lam <= MAX_WIGNER_RANK:
        raise ValueError(f"rank must be an integer in 0..{MAX_WIGNER_RANK}, got {lam!r}")
    return int(lam)


def spherical_basis_matrix() -> np.ndarray:
    """Columns are the spherical basis vectors e_-1, e_0, e_+1 in Cartesian
    components; for lam = 1, D(r) = T^dag R(r) T with R the 3x3 matrix of r.
    """
    rt2 = np.sqrt(2.0)
    return np.array([
        [1.0 / rt2, 0.0, -1.0 / rt2],
        [-1.0j / rt2, 0.0, -1.0j / rt2],
        [0.0, 1.0, 0.0],
    ])


@functools.lru_cache(maxsize=None)
def _wigner_terms(two: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term table of rank two/2, read-only: the exponents (4, T) of
    (u00, u01, u10, u11) and the coefficient (T,) of every (n, n', k) term,
    ordered by cell (n, n'), then by k, and the index of each cell's first
    term (``wigner_matrices`` says which terms there are)."""
    i = np.arange(two + 1)
    # every (n, n', k) whose four exponents are >= 0
    n, n_p, k = np.nonzero((i <= i[:, None]) & (i <= i[:, None, None])
                           & (i >= i[:, None] + i[:, None, None] - two))
    exps = np.array([k - n - n_p + two, n_p - k, n - k, k])
    fact = np.cumprod(np.maximum(i, 1.0))
    coef = np.sqrt(fact[n] * fact[two - n] * fact[n_p] * fact[two - n_p]) / fact[exps].prod(0)
    first = np.flatnonzero(np.minimum(exps[0], k) == 0)
    for a in (exps, coef, first):
        a.flags.writeable = False
    return exps, coef, first


def wigner_matrices(lam: int, quats) -> np.ndarray:
    """Wigner matrices <lam,mu| exp(-i beta J.e) |lam,mu'> (..., 2lam+1, 2lam+1)
    of unit quaternions (w, x, y, z) (..., 4), rows and columns by ascending mu.

    Closed form in the Cayley-Klein entries u00, u01, u10, u11 of the spin-1/2
    matrix [[w + iz, y - ix], [-y - ix, w - iz]]: with n = lam + mu, n' = lam + mu'
    and l = k - n - n' + 2lam, D_{mu,mu'} is sqrt(n! (2lam-n)! n'! (2lam-n')!)
    times the sum over k of u00^l u01^(n'-k) u10^(n-k) u11^k / (l! (n'-k)! (n-k)! k!),
    every exponent >= 0.  The term table is built once per rank.
    """
    two = 2 * _rank(lam)
    exps, coef, first = _wigner_terms(two)
    q = np.asarray(quats, dtype=float)
    powers = np.ones(q.shape[:-1] + (4, two + 1), dtype=complex)
    powers[..., 1:] = (q @ _CAYLEY_KLEIN)[..., None]
    terms = coef * np.cumprod(powers, axis=-1)[..., np.arange(4)[:, None], exps].prod(-2)
    return np.add.reduceat(terms, first, axis=-1).reshape(q.shape[:-1] + (two + 1, two + 1))


def wigner_d(lam: int, r: Rotation) -> np.ndarray:
    """The (2lam+1) square Wigner matrix of ``r``: a batch of one of ``wigner_matrices``."""
    return wigner_matrices(lam, r.q)


@dataclass(frozen=True)
class KappaTable:
    """First-order average coefficients kappa_{lam, mu, mu'} of a rank-lam
    field under a delay-interleaved pulse sequence.
    """

    lam: int
    matrix: np.ndarray  # (2*lam+1, 2*lam+1) complex, ascending mu rows

    def entry(self, mu: int, mu_prime: int) -> complex:
        return self.matrix[mu + self.lam, mu_prime + self.lam]

    def row(self, mu: int) -> np.ndarray:
        return self.matrix[mu + self.lam]

    def to_json_dict(self) -> dict:
        cells = [[float(z.real), float(z.imag)] for z in self.matrix.flatten()]
        return {"lambda": self.lam, "cells_row_major": cells}

    def csv_rows(self):
        for mu in range(-self.lam, self.lam + 1):
            for mup in range(-self.lam, self.lam + 1):
                z = self.entry(mu, mup)
                yield (self.lam, mu, mup, z.real, z.imag)


def kappa(dd, lam: int, scale: float = 1.0) -> KappaTable:
    """Delay-weighted average of Wigner matrices of the inverse prefix
    propagators: kappa = (sum tau_j)^-1 sum_j tau_j D(U_j^-1), where U_j
    collects pulses 0..j-1 at flip-angle scale ``scale`` and delay 0
    precedes the first pulse.
    """
    return KappaTable(_rank(lam), _kappa_matrices(dd, lam, scale))


def _kappa_matrices(dd, lam: int, scales) -> np.ndarray:
    """``kappa`` matrices (*np.shape(scales), 2lam+1, 2lam+1) over flip-angle
    scales: one prefix chain, one Wigner call over the prefixes with a delay."""
    delays = np.asarray(dd.delays, dtype=float)
    if np.any(delays < 0):
        raise ValueError("delays must be non-negative")
    with np.errstate(over="ignore"):
        total = float(delays.sum())
    if not sys.float_info.min <= total <= sys.float_info.max:   # subnormal or inf: no normalizing
        raise ValueError(f"delays must total a finite value of at least {sys.float_info.min!r}, "
                         f"got {total!r}")
    pulses = dd.pulses
    angles = _scaled_angles(np.asarray(scales, dtype=float)[..., None], pulses.betas)
    prefixes = prefix_quaternions(pulses.axes, angles)
    used = delays > 0.0
    d = wigner_matrices(lam, rotcore.quat_conj(prefixes[..., used, :]))   # D(U_j^-1)
    return np.einsum("j,...jab->...ab", delays[used], d) / total
