"""Invariants of the paper on seeded random inputs: the m = 2 duality of
odd equatorial pi-sequences, its glide reflection, the phase map, the
net of the reversed toggled sequence, the inverse toggling map as the
forward map conjugated by axis negation, and the closed-form inversion
profiles of the Vitanov families."""

import math

import numpy as np
import pytest

from togglekit import catalog, profiles as pf, rotcore as rc, seqmodel as sm, toggling as tg

SEEDS = range(20)


def random_odd_pi_sequence(rng):
    n = 2 * int(rng.integers(0, 8)) + 1
    return sm.sequence_from_phases("r", np.pi, rng.uniform(0.0, 2 * np.pi, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_of_odd_equatorial_pi_sequence_inverts(seed):
    # an odd equatorial pi-sequence nets a pi turn about an equatorial axis,
    # and so does its toggling-frame dual
    s = random_odd_pi_sequence(np.random.default_rng([91, seed]))
    dual = tg.toggling_map(s)
    assert dual.is_equatorial()
    for seq in (s, dual):
        assert abs(pf.q_values(seq, rc.E_Z, [np.pi])[0] + 1.0) < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_glide_reflection_of_random_dual_pairs(seed):
    rng = np.random.default_rng([92, seed])
    s = random_odd_pi_sequence(rng)
    dual = tg.toggling_map(s)
    grid = rng.uniform(-2 * np.pi, 2 * np.pi, 50)
    qd = pf.q_values(dual, rc.E_Z, grid)
    qs = pf.q_values(s, rc.E_Z, np.pi + grid)
    assert np.max(np.abs(qd + qs)) < 1e-9
    assert pf.glide_reflection_check(s, dual, grid) < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_phase_map_matches_toggle_axes(seed):
    rng = np.random.default_rng([93, seed])
    phis = rng.uniform(-4 * np.pi, 4 * np.pi, int(rng.integers(1, 16)))
    s = sm.sequence_from_phases("r", np.pi, phis)
    mapped = tg.phase_map(phis)
    want = np.stack([np.cos(mapped), np.sin(mapped), np.zeros_like(mapped)], axis=-1)
    assert np.max(np.abs(tg.toggle_axes(s.axes, s.betas) - want)) < 1e-9


def test_reversed_toggled_sequence_has_the_same_net():
    # U_n = R(b_{n-1}, e_{n-1}) ... R(b_0, e_0) = R(b_0, f_0) ... R(b_{n-1}, f_{n-1})
    # over the toggled axes f_i, which is the net of reverse(toggling_map(s)),
    # for any flip angles; equal as unit quaternions, not only up to sign
    worst = 0.0
    for seed in range(500):
        rng = np.random.default_rng([94, seed])
        n = int(rng.integers(1, 13))
        s = sm.sequence_from_axes("r", rng.uniform(0.05, 2 * np.pi, n), rng.normal(size=(n, 3)))
        r = sm.reverse(tg.toggling_map(s))
        assert np.array_equal(r.betas, s.betas[::-1])
        worst = max(worst, float(np.max(np.abs(sm.net_propagator(r).q - sm.net_propagator(s).q))))
    assert worst < 1e-9


def test_inverse_toggle_is_the_forward_map_conjugated_by_negation():
    # e = T^-1(f) has e_i = U_i f_i with U_i = R(b_0, f_0) ... R(b_{i-1}, f_{i-1}),
    # the inverse of the i-th prefix of -f, so T^-1(f) = -T(-f) for any flip
    # angles and the net U_n is the conjugate of the last prefix of -f
    worst_axes = worst_net = 0.0
    for seed in range(300):
        rng = np.random.default_rng([95, seed])
        n = int(rng.integers(1, 13))
        lead = () if seed % 3 else (4,)
        f = rc.unit_vectors(rng.normal(size=lead + (n, 3)))
        betas = rng.uniform(0.05, 2 * np.pi, lead + (n,))
        axes, net = tg.inverse_toggle_axes(f, betas)
        worst_axes = max(worst_axes, float(np.max(np.abs(axes + tg.toggle_axes(-f, betas)))))
        last = sm.prefix_quaternions(-f, betas)[..., -1, :]
        worst_net = max(worst_net, float(np.max(np.abs(net - rc.quat_conj(last)))))
    assert worst_axes < 1e-13
    assert worst_net < 1e-13


@pytest.mark.parametrize("m", range(2, 7))
def test_m_minus_one_toggles_are_the_negation_conjugate(m):
    # T^m = 1 at beta = 2 pi / m, so T^(m-1) = T^-1 = -T(-.); at m = 2 this
    # says T commutes with negation
    rng = np.random.default_rng([96, m])
    for n in range(1, 13):
        e = rc.unit_vectors(rng.normal(size=(8, n, 3)))
        betas = np.full(n, 2 * np.pi / m)
        iterated = e
        for _ in range(m - 1):
            iterated = tg.toggle_axes(iterated, betas)
        assert np.max(np.abs(iterated + tg.toggle_axes(-e, betas))) < 1e-13


# the closed forms against the profile sweep; worst measured 3.9e-14 (bprime
# and nprime, odd n 3..101, k 1 and 2)
VITANOV_PROFILE_TOL = 1e-12


def _vitanov_deviations(n, k):
    """Max deviations of the inversion profiles of bprime(n, k) and
    nprime(n, k) on DEFAULT_GRID from q_bprime = -1 + 2 cos^(2n)(b'/2) and
    q_nprime = 1 - 2 sin^(2n)(b'/2)."""
    grid = pf.DEFAULT_GRID
    qb = pf.q_values(catalog.bprime(n, k), rc.E_Z, grid)
    qn = pf.q_values(catalog.nprime(n, k), rc.E_Z, grid)
    return (float(np.max(np.abs(qb - (-1.0 + 2.0 * np.cos(grid / 2) ** (2 * n))))),
            float(np.max(np.abs(qn - (1.0 - 2.0 * np.sin(grid / 2) ** (2 * n))))))


@pytest.mark.parametrize("k", [1, 2])
def test_vitanov_profiles_follow_their_closed_forms(k):
    cases = [n for n in range(3, 102, 2) if math.gcd(n, k) == 1]
    assert len(cases) == 50
    for n in cases:
        assert max(_vitanov_deviations(n, k)) < VITANOV_PROFILE_TOL, n


def test_vitanov_closed_forms_fail_for_k_sharing_a_factor_with_n():
    # the catalog accepts nprime(9, 3) and bprime(9, 3), whose k shares the
    # factor 3 with n; neither profile is the closed form, off by 1.97
    assert all(abs(d - 1.97) < 0.01 for d in _vitanov_deviations(9, 3))
