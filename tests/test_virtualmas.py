"""Virtual MAS: rank-2 suppression order with and without compensation."""

import numpy as np
import pytest

from togglekit import rotcore as rc, seqmodel as sm, virtualmas as vm


def test_cycle_structures():
    comp = vm.compensated_cycle(2.0)
    assert len(comp.pulses) == 12
    assert np.allclose(comp.delays[[0, 4, 8]], 2.0)
    assert comp.delays.sum() == 6.0
    # composite blocks reproduce the bare rotation at nominal angle
    block = sm._take(comp.pulses, slice(4), "blk")
    target = rc.from_axis_angle(np.ones(3) / np.sqrt(3), 2 * np.pi / 3)
    assert rc.rotation_angle_between(sm.net_propagator(block), target) < 1e-12


def test_nominal_suppression_both_cycles():
    for comp in (False, True):
        rows = vm.mas_kappa_sweep(comp, [1.0])
        assert rows[0].max_abs < 1e-12


def test_compensation_wins_off_nominal():
    unc = vm.mas_kappa_sweep(False, [1.1])[0].max_abs
    comp = vm.mas_kappa_sweep(True, [1.1])[0].max_abs
    assert comp < unc
    assert unc > 1e-2


def test_suppression_order_slopes():
    slope_unc, slope_comp = vm.suppression_order_slopes()
    assert slope_unc > 1e-2
    assert abs(slope_comp) < 1e-6


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        vm.mas_kappa_sweep(False, [])


def test_sweep_rejects_non_finite_grid():
    with pytest.raises(ValueError, match="grid must be finite"):
        vm.mas_kappa_sweep(True, [1.0, np.inf])


def test_sweep_csv():
    text = vm.sweep_csv([1.0, 1.1])
    lines = text.strip().split("\n")
    assert len(lines) == 5   # header + 2 scales x 2 cycles
    assert lines[0].startswith("beta_scale,max_abs_kappa20,compensated")
    row = lines[1].split(",")
    assert len(row) == 13    # scale, max, flag, 5 complex pairs


def test_sweep_csv_bytes_equal_per_value_formatting():
    grid = [0.8, 1.0, 1.05]
    lines = ["beta_scale,max_abs_kappa20,compensated,"
             + ",".join(f"re_mu{m},im_mu{m}" for m in range(-2, 3))]
    for comp in (False, True):
        for row in vm.mas_kappa_sweep(comp, grid):
            comps = ",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row.kappa_row)
            lines.append(f"{row.beta_scale:.17g},{row.max_abs:.17g},{int(comp)},{comps}")
    assert vm.sweep_csv(grid) == "\n".join(lines) + "\n"
