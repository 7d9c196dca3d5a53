"""Rank-2 decoupling under virtual magic-angle spinning, with and without
angle-error compensation of the axis-cycling pulses.

The uncompensated cycle is three equal delays, each closed by a 2pi/3
rotation about the (1,1,1) body diagonal.  The compensated cycle replaces
every rotation with the four-pulse compensated block, keeping delays only
between blocks (pulses are instantaneous in the delta-pulse limit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import averaging, seqmodel
from .ddsim import DDSequence


def uncompensated_cycle(tau: float = 1.0) -> DDSequence:
    from .catalog import vmas
    return vmas(tau)


def compensated_cycle(tau: float = 1.0) -> DDSequence:
    """Virtual MAS with each (1,1,1) rotation replaced by the compensated
    four-pulse block; delays sit only between blocks."""
    from .catalog import p34
    block = p34()
    pulses = seqmodel._take(block, np.tile(np.arange(len(block)), 3), "vmas_compensated")
    delays = np.zeros(13)
    delays[0] = delays[4] = delays[8] = tau
    return DDSequence(pulses, delays)


@dataclass(frozen=True)
class MasSweepRow:
    beta_scale: float
    kappa_row: np.ndarray      # kappa_{2,0,mu'} for mu' = -2..2
    max_abs: float


def mas_kappa_sweep(compensated: bool, beta_scale_grid) -> list[MasSweepRow]:
    """max_mu' |kappa_{2,0,mu'}| versus flip-angle scale for the virtual MAS
    cycle, plus the full mu' row for export, one row per grid point in input
    order."""
    grid = np.atleast_1d(seqmodel._sweep_grid(beta_scale_grid))
    dd = compensated_cycle() if compensated else uncompensated_cycle()
    rows = averaging._kappa_matrices(dd, 2, grid)[:, 2]   # mu = 0
    return list(map(MasSweepRow, grid.tolist(), rows, np.max(np.abs(rows), axis=1).tolist()))


def suppression_order_slopes(h: float = 1e-7) -> tuple[float, float]:
    """One-sided finite-difference slopes of max|kappa_{2,0,.}| at eps = 0
    for the uncompensated and compensated cycles.

    The uncompensated cycle has a first-order error (slope well above
    zero); the compensated cycle starts at second order or higher (slope
    consistent with zero to the evaluation noise).
    """
    scales = [1.0, 1.0 + h / (2.0 * np.pi / 3.0)]
    (u0, u1), (c0, c1) = ([row.max_abs for row in mas_kappa_sweep(comp, scales)]
                          for comp in (False, True))
    return (u1 - u0) / h, (c1 - c0) / h


def sweep_csv(beta_scale_grid) -> str:
    """CSV rows: scale, value, compensated flag, then the mu' components."""
    rows = mas_kappa_sweep(False, beta_scale_grid) + mas_kappa_sweep(True, beta_scale_grid)
    header = ("beta_scale,max_abs_kappa20,compensated,"
              + ",".join(f"re_mu{m},im_mu{m}" for m in range(-2, 3)))
    columns = [[r.beta_scale for r in rows], [r.max_abs for r in rows],
               np.repeat([0, 1], len(rows) // 2), np.array([r.kappa_row for r in rows]).view(float)]
    return seqmodel._csv_text(header, columns)
