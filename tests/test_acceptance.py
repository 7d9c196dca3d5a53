"""Acceptance criteria, one test per criterion, printing a pass/fail line.

Criterion 10 sweeps the compensated axis-cycling block p34 over the full
+/-20% flip-angle window and bounds its residual rotation by p34's own
average error orders: a vanishing first order, a residual that follows the
second-order term to within the third-order term, and at most 5 degrees
wherever the second-order term is (+/-17%).  The measured maximum, 6.61
degrees at the window edges, is what the second-order term predicts.  The
negative control shows the check rejects uncompensated and off-target
blocks.
"""

import numpy as np

from togglekit import acceptance, catalog, profiles, rotcore, search, seqmodel


def _check(fn):
    r = fn()
    status = "PASS" if r.passed else "FAIL"
    print(f"{status}  criterion {r.number:2d} ({r.name}): {r.detail}")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_criterion_01_cyclicity():
    _check(acceptance.criterion_1)


def test_criterion_02_closed_form():
    _check(acceptance.criterion_2)


def test_criterion_03_f1_nb1_duality():
    _check(acceptance.criterion_3)


def test_criterion_04_glide_reflection():
    _check(acceptance.criterion_4)


def test_criterion_05_duality_of_differences():
    _check(acceptance.criterion_5)


def test_criterion_06_half_band():
    _check(acceptance.criterion_6)


def test_criterion_07_balance_audit():
    _check(acceptance.criterion_7)


def test_criterion_08_symmetry_rules():
    _check(acceptance.criterion_8)


def test_criterion_09_search_rediscovery():
    _check(acceptance.criterion_9)


def test_criterion_10_p34_robustness_known_failure():
    _check(acceptance.criterion_10)


def test_criterion_10_rejects_uncompensated_and_off_target_blocks():
    single = seqmodel.sequence_from_axes(
        "single", 2.0 * np.pi / 3.0, np.array([[1.0, 1.0, 1.0]]) / np.sqrt(3.0))
    swapped = seqmodel._take(catalog.p34(), [1, 0, 2, 3], "p34_swapped")
    # still compensated and under 5 degrees, but 0.81 degrees off target
    turned = seqmodel.global_phase_shift(catalog.p34(), 0.01)
    for s in (single, swapped, turned):
        r = acceptance.flip_angle_robustness(s)
        assert not r.passed, r.detail


def test_criterion_10_sweep_matches_scalar_errors():
    # the 41 errors of the closed-form sweep against one propagator chain and
    # one scalar SO(3) distance each, and the detail text they gave before
    # the sweep ran in one kernel call
    s = catalog.p34()
    beta = s.uniform_beta()
    scales = np.arange(80, 121) / 100.0
    want = [float(np.degrees(rotcore.to_axis_angle(rotcore.compose(
        rotcore.inverse(search.AXIS_CYCLING), seqmodel.net_propagator(s, sc * beta / beta)))[1]))
        for sc in scales]
    got = profiles.rotation_errors(s, scales * beta, search.AXIS_CYCLING)
    assert np.max(np.abs(got - want)) <= 1e-12   # degrees
    assert acceptance.criterion_10().detail == (
        "|order1| 2.5e-16; |err - theta2| max 0.097 deg (|order3| bound 1.62); "
        "max 4.79 deg on |eps| <= 0.173; max 6.61 deg at scale 0.80")


def test_criterion_11_wigner():
    _check(acceptance.criterion_11)


def test_criterion_12_virtual_mas():
    _check(acceptance.criterion_12)


def test_criterion_13_dd_maps():
    _check(acceptance.criterion_13)


def test_criterion_14_conversion():
    _check(acceptance.criterion_14)


def test_criterion_15_kdd_fixture():
    _check(acceptance.criterion_15)
