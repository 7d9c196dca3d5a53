"""Error-analysis layer: centroids, balance, average-rotation orders,
order-reversal symmetry rules, Wigner D-matrices, and the rank-lambda
decoupling coefficients of delay-interleaved sequences.

Average-rotation orders are reported as rotation-vector coefficients per
unit error step: the propagator of n error rotations by eps about toggled
axes expands as exp([v]_x) with

    v(eps) = eps * order1 + eps^2 * order2 + eps^3 * order3 + O(eps^4),

so order1 is the plain vector sum of the axes (n times the centroid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import rotcore
from .rotcore import Rotation
from .seqmodel import RotationSequence, net_quaternions, prefix_quaternions

BALANCE_TOL = 1e-9
MAX_WIGNER_RANK = 3


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


def average_orders(vectors) -> AverageRotationOrders:
    """Leading average-rotation orders for error kicks about ``vectors``.

    Orders 2 and 3 carry the nested cross-product sums of the discrete
    Magnus expansion, evaluated with prefix/suffix cumulative sums.
    """
    e = np.asarray(vectors, dtype=float)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of vectors")
    n = len(e)
    order1 = e.sum(axis=0)

    prefix = np.zeros_like(e)                     # S_j = sum_{i<j} e_i
    prefix[1:] = np.cumsum(e, axis=0)[:-1]
    suffix = np.zeros_like(e)                     # T_j = sum_{k>j} e_k
    suffix[:-1] = np.cumsum(e[::-1], axis=0)[-2::-1]

    order2 = 0.5 * np.cross(e, prefix).sum(axis=0)

    cross_ps = np.cross(e, prefix)                # e_j x S_j
    w = np.zeros_like(e)                          # W_k = sum_{j<k} e_j x S_j
    w[1:] = np.cumsum(cross_ps, axis=0)[:-1]
    triple_a = np.cross(e, w).sum(axis=0)                       # e_k x (e_j x e_i)
    triple_b = np.cross(prefix, np.cross(e, suffix)).sum(axis=0)  # e_i x (e_j x e_k)
    pair_a = np.cross(e, np.cross(e, prefix)).sum(axis=0)       # e_k x (e_k x e_i)
    pair_b = np.cross(e, np.cross(e, suffix)).sum(axis=0)       # e_i x (e_i x e_k)
    order3 = (triple_a + triple_b) / 6.0 + (pair_a + pair_b) / 12.0
    return AverageRotationOrders(order1, order2, order3)


def default_eps_grid(half_width: float = 0.2, points: int = 33) -> np.ndarray:
    """Chebyshev-extrema grid on [-h, h]; symmetric about zero."""
    return half_width * np.cos(np.pi * np.arange(points) / (points - 1))


def numeric_error_expansion(s: RotationSequence, beta_prime: float | None = None,
                            eps_grid=None, fit_tol: float = 1e-8) -> AverageRotationOrders:
    """Oracle for average_orders: expand the residual rotation vector of
    U(beta')^-1 U(beta'+eps) in eps by polynomial fit and return the cubic
    coefficients.

    The grid must be symmetric about zero with at least 5 points.  Raises
    if the fit residual or the constant term exceeds ``fit_tol``.
    """
    beta = s.uniform_beta()
    if beta_prime is None:
        beta_prime = beta
    grid = default_eps_grid() if eps_grid is None else np.asarray(eps_grid, dtype=float)
    if grid.size < 5:
        raise ValueError("eps grid needs at least 5 points")
    if np.max(np.abs(np.sort(grid) + np.sort(grid)[::-1])) > 1e-12:
        raise ValueError("eps grid must be symmetric about zero")
    nets = net_quaternions(s, beta_prime + np.concatenate([[0.0], grid]))
    errors = rotcore.quat_normalize(rotcore.quat_mul(rotcore.quat_conj(nets[0]), nets[1:]))
    vs = rotcore.quat_to_rotation_vector(errors)
    degree = min(14, grid.size - 1)
    coeffs = _cheb.chebfit(grid, vs, degree)
    resid = np.max(np.abs(_cheb.chebval(grid, coeffs).T - vs))
    power = np.zeros((degree + 1, 3))
    for k in range(3):
        p = _cheb.cheb2poly(coeffs[:, k])   # may trim trailing zeros
        power[:p.size, k] = p
    if resid > fit_tol or np.max(np.abs(power[0])) > fit_tol:
        raise ValueError(f"error expansion fit failed (residual {resid:.3g}, "
                         f"constant {np.max(np.abs(power[0])):.3g})")
    return AverageRotationOrders(power[1].copy(), power[2].copy(), power[3].copy())


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

def _angular_momentum(lam: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-lam generators (Jx, Jy, Jz) in the basis mu = -lam .. +lam."""
    mu = np.arange(-lam, lam + 1, dtype=float)
    jz = np.diag(mu)
    raising = np.zeros((2 * lam + 1, 2 * lam + 1))
    ladder = np.sqrt(lam * (lam + 1) - mu[:-1] * (mu[:-1] + 1))
    raising[np.arange(1, 2 * lam + 1), np.arange(2 * lam)] = ladder
    jx = 0.5 * (raising + raising.T)
    jy = -0.5j * (raising - raising.T)
    return jx, jy, jz


_J_CACHE = {lam: _angular_momentum(lam) for lam in range(MAX_WIGNER_RANK + 1)}


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


def wigner_d(lam: int, r: Rotation) -> np.ndarray:
    """(2*lam+1) square Wigner matrix <lam,mu| exp(-i beta J.e) |lam,mu'>,
    rows and columns ordered by ascending mu.  Unitary; a homomorphism of
    SO(3) for the integer ranks supported here.
    """
    if lam not in _J_CACHE:
        raise ValueError(f"rank {lam} unsupported (0..{MAX_WIGNER_RANK})")
    if lam == 0:
        return np.ones((1, 1), dtype=complex)
    e, beta = rotcore.to_axis_angle(r)
    jx, jy, jz = _J_CACHE[lam]
    h = e[0] * jx + e[1] * jy + e[2] * jz
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * beta * w)) @ v.conj().T


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
    delays = np.asarray(dd.delays, dtype=float)
    if np.any(delays < 0):
        raise ValueError("delays must be non-negative")
    total = float(delays.sum())
    if total <= 0.0:
        raise ValueError("at least one delay must be positive")
    pulses = dd.pulses
    prefixes = prefix_quaternions(pulses.axes, scale * pulses.betas)
    dim = 2 * lam + 1
    acc = np.zeros((dim, dim), dtype=complex)
    for tau, q in zip(delays, prefixes):
        if tau == 0.0:
            continue
        acc += tau * wigner_d(lam, rotcore.inverse(Rotation(q)))
    return KappaTable(lam, acc / total)
