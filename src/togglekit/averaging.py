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
from .seqmodel import (RotationSequence, _csv_text, _half_sweep, _scaled_angles,
                       _sweep_coefficients, prefix_quaternions)

MAX_WIGNER_RANK = 8
# (w, x, y, z) @ _CAYLEY_KLEIN = (u00, u01, u10, u11) = (w + iz, y - ix, -y - ix, w - iz)
_CAYLEY_KLEIN = np.array([[1, 0, 0, 1], [0, -1j, -1j, 0], [0, 1, -1, 0], [1j, 0, 0, -1j]])


def centroid(vectors) -> np.ndarray:
    """Arithmetic mean of a nonempty vector set."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size == 0:
        raise ValueError("centroid of an empty set")
    return vectors.mean(axis=0)


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


def numeric_error_expansion(s: RotationSequence, beta_prime: float | None = None
                            ) -> AverageRotationOrders:
    """Oracle for average_orders, independent of its BCH step: the eps^1..3
    coefficients of the residual rotation vector of U(beta')^-1 U(beta'+eps),
    beta' = beta_0 by default; a batch of one of ``_error_series``."""
    beta = s.uniform_beta()
    series = _error_series(s.axes[None], beta, [beta if beta_prime is None else beta_prime])[0]
    return AverageRotationOrders(series[1], series[2], series[3])


def _error_series(axes, beta0, beta_primes) -> np.ndarray:
    """``numeric_error_expansion`` over a stack of same-length uniform-angle
    sequences: axes (N, n, 3), the common flip angle beta_0 and a realized
    flip angle beta' per row (N,).  Returns the exact power-series
    coefficients (N, 4, 3) of each row's residual rotation vector in eps,
    row k the eps^k term (row 0 is zero).

    The net is U(theta) = Re sum_j c_j e^{ij theta} at theta = (beta'+eps)/2
    (``_sweep_coefficients``), so its eps^k coefficient is
    U_k = Re sum_j c_j e^{ij beta'/2} (ij/2)^k / k!.  The residual
    E = conj(U_0) U has vector part V = eps V_1 + eps^2 V_2 + eps^3 V_3 + ...,
    and its rotation vector is V 2 arcsin(|V|)/|V| = V (2 + |V|^2/3 + ...):
    orders 2 V_1, 2 V_2 and 2 V_3 + |V_1|^2 V_1 / 3.
    """
    c, js = _sweep_coefficients(axes)
    theta = _half_sweep(beta_primes, np.asarray(beta0, dtype=float))
    derivs = (0.5j * js) ** np.arange(4)[:, None] / np.array([[1.0], [1.0], [2.0], [6.0]])
    u = np.einsum("nj,kj,njc->nkc", np.exp(1j * theta[:, None] * js), derivs, c).real
    v = rotcore.quat_mul(rotcore.quat_conj(u[:, :1]), u)[..., 1:]    # (N, 4, 3)
    series = 2.0 * v
    series[:, 3] += np.sum(v[:, 1] ** 2, axis=-1, keepdims=True) * v[:, 1] / 3.0
    return series


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


@dataclass(frozen=True)
class KappaTable:
    """First-order average coefficients kappa_{lam, mu, mu'} of a rank-lam
    field under a delay-interleaved pulse sequence.
    """

    lam: int
    matrix: np.ndarray  # (2*lam+1, 2*lam+1) complex, ascending mu rows

    def to_json_dict(self) -> dict:
        cells = [[float(z.real), float(z.imag)] for z in self.matrix.flatten()]
        return {"lambda": self.lam, "cells_row_major": cells}


def kappa_csv(table: KappaTable) -> str:
    """Rows lambda, mu, mu_prime, re, im: one per cell, in row-major order."""
    mus = np.arange(-table.lam, table.lam + 1)
    cells = table.matrix.ravel()
    return _csv_text("lambda,mu,mu_prime,re,im",
                     [np.full(cells.size, table.lam), np.repeat(mus, mus.size),
                      np.tile(mus, mus.size), cells.real, cells.imag])


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
