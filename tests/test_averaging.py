"""Averaging layer: centroids, Magnus orders, symmetry rules, Wigner, kappa."""

import numpy as np
import pytest

from togglekit import averaging as av, catalog, ddsim, rotcore as rc, seqmodel as sm, toggling as tg


def test_centroid_examples():
    assert np.allclose(av.centroid(np.array([rc.E_X, -rc.E_X])), 0.0)
    n5 = catalog.nprime(5)
    assert np.linalg.norm(av.centroid(n5.axes)) < 1e-12
    toggled = tg.toggling_map(catalog.f1()).axes
    assert np.linalg.norm(av.centroid(toggled)) < 1e-12
    with pytest.raises(ValueError):
        av.centroid(np.empty((0, 3)))


def test_is_balanced():
    assert av.is_balanced(np.array([rc.E_X, -rc.E_X]))
    assert not av.is_balanced(np.array([rc.E_X, rc.E_Y]))


def test_average_orders_commuting_case():
    e = np.tile(rc.E_X, (4, 1))
    orders = av.average_orders(e)
    assert np.allclose(orders.order1, 4 * rc.E_X)
    assert np.allclose(orders.order2, 0.0)
    assert np.allclose(orders.order3, 0.0)


def test_average_orders_against_brute_force():
    rng = np.random.default_rng(40)
    e = rng.normal(size=(7, 3))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    orders = av.average_orders(e)
    o2 = np.zeros(3)
    for j in range(len(e)):
        for i in range(j):
            o2 += 0.5 * np.cross(e[j], e[i])
    o3 = np.zeros(3)
    for k in range(len(e)):
        for j in range(k):
            for i in range(j):
                o3 += (np.cross(e[k], np.cross(e[j], e[i]))
                       + np.cross(e[i], np.cross(e[j], e[k]))) / 6.0
        for i in range(k):
            o3 += (np.cross(e[k], np.cross(e[k], e[i]))
                   + np.cross(e[i], np.cross(e[i], e[k]))) / 12.0
    assert np.allclose(orders.order1, e.sum(axis=0), atol=1e-14)
    assert np.allclose(orders.order2, o2, atol=1e-14)
    assert np.allclose(orders.order3, o3, atol=1e-14)


def test_symmetric_set_kills_order2():
    rng = np.random.default_rng(41)
    half = rng.normal(size=(3, 3))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    orders = av.average_orders(np.vstack([half, half[::-1]]))
    assert np.linalg.norm(orders.order2) < 1e-13


def test_antisymmetric_set_kills_all_orders():
    rng = np.random.default_rng(42)
    half = rng.normal(size=(4, 3))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    orders = av.average_orders(np.vstack([half, -half[::-1]]))
    for o in (orders.order1, orders.order2, orders.order3):
        assert np.linalg.norm(o) < 1e-13


def test_balanced_subunits_compose_additively():
    # two concatenated subunits with zero first order: whole = sum of parts
    rng = np.random.default_rng(43)
    def balanced(k):
        h = rng.normal(size=(k, 3))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        return np.vstack([h, -h])
    a, b = balanced(3), balanced(2)
    whole = av.average_orders(np.vstack([a, b]))
    pa, pb = av.average_orders(a), av.average_orders(b)
    assert np.allclose(whole.order2, pa.order2 + pb.order2, atol=1e-8)
    assert np.allclose(whole.order3, pa.order3 + pb.order3, atol=1e-8)


def test_numeric_expansion_single_pi_pulse():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    orders = av.numeric_error_expansion(s)
    assert np.allclose(orders.order1, rc.E_X, atol=1e-10)
    assert np.linalg.norm(orders.order2) < 1e-10
    assert np.linalg.norm(orders.order3) < 1e-10


def test_numeric_expansion_f1_is_first_order_balanced():
    orders = av.numeric_error_expansion(catalog.f1())
    assert np.linalg.norm(orders.order1) < 1e-10


def test_numeric_expansion_matches_algebraic():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        beta = float(rng.uniform(0.5, np.pi))
        s = sm.sequence_from_axes("r", beta, axes)
        alg = av.average_orders(tg.toggle_axes(s.axes, s.betas))
        num = av.numeric_error_expansion(s, beta)
        for a, b in ((alg.order1, num.order1), (alg.order2, num.order2),
                     (alg.order3, num.order3)):
            assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(b)))


def reference_numeric_error_expansion(s, beta_prime):
    """The oracle as it ran before its eps grid became one kernel call: a
    scalar propagator loop per grid point (the error_propagator list
    comprehension), then the same Chebyshev fit.  Returns order1..3 as rows."""
    beta = s.uniform_beta()

    def net(scale):
        q = rc.quat_identity()
        for el in s.elements:
            q = rc.quat_mul(rc.quat_from_axis_angle(el.axis, scale * el.beta), q)
            q = q / np.linalg.norm(q)
        return rc.Rotation(q)

    def error_propagator(eps):
        return rc.compose(rc.inverse(net(beta_prime / beta)), net((beta_prime + eps) / beta))

    def rotation_vector(r):
        e, angle = rc.to_axis_angle(r)
        return angle * e

    grid = av.default_eps_grid()
    vs = np.array([rotation_vector(error_propagator(e)) for e in grid])
    coeffs = np.polynomial.chebyshev.chebfit(grid, vs, 14)
    power = np.zeros((15, 3))
    for k in range(3):
        p = np.polynomial.chebyshev.cheb2poly(coeffs[:, k])
        power[:p.size, k] = p
    return power[1:4]


def test_numeric_expansion_matches_scalar_loop():
    rng = np.random.default_rng(46)
    for n in range(1, 11):
        beta = float(rng.uniform(0.5, np.pi))
        s = sm.sequence_from_axes("r", beta, rng.normal(size=(n, 3)))
        for beta_prime in (beta, 0.9 * beta):
            num = av.numeric_error_expansion(s, beta_prime)
            got = np.array([num.order1, num.order2, num.order3])
            assert np.max(np.abs(got - reference_numeric_error_expansion(s, beta_prime))) < 1e-10


def test_numeric_expansion_grid_validation():
    s = catalog.f1()
    with pytest.raises(ValueError):
        av.numeric_error_expansion(s, eps_grid=[1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
    with pytest.raises(ValueError):
        av.numeric_error_expansion(s, eps_grid=[-0.1, 0.0, 0.1])


def test_symmetry_class_examples():
    assert av.symmetry_class(catalog.nprime(5)) == "antisymmetric"
    assert av.symmetry_class(catalog.bprime(5)) == "symmetric"
    assert av.symmetry_class(catalog.f1()) == "antisymmetric"
    assert av.symmetry_class(catalog.u5()) == "symmetric"
    rng = np.random.default_rng(45)
    generic = sm.sequence_from_phases("g", np.pi, rng.uniform(0, 2 * np.pi, 5))
    assert av.symmetry_class(generic) == "neither"


def test_symmetry_class_vector_negation():
    axes = np.array([[0, 0, 1.0], [1, 0, 0], [-1, 0, 0], [0, 0, -1.0]])
    s = sm.sequence_from_axes("neg", np.pi / 2, axes)
    assert av.symmetry_class(s) == "antisymmetric"


def test_wigner_identity():
    for lam in range(4):
        d = av.wigner_d(lam, rc.IDENTITY)
        assert np.allclose(d, np.eye(2 * lam + 1), atol=1e-14)


def test_wigner_z_rotation_diagonal():
    beta = 0.7
    d = av.wigner_d(1, rc.from_axis_angle(rc.E_Z, beta))
    assert np.allclose(np.diag(d), [np.exp(1j * beta), 1.0, np.exp(-1j * beta)],
                       atol=1e-14)
    assert np.allclose(d, np.diag(np.diag(d)), atol=1e-14)


def test_wigner_cartesian_equivalence():
    rng = np.random.default_rng(46)
    t = av.spherical_basis_matrix()
    for _ in range(20):
        v = rng.normal(size=3)
        r = rc.from_axis_angle(v / np.linalg.norm(v), rng.uniform(0, np.pi))
        assert np.allclose(av.wigner_d(1, r), t.conj().T @ r.as_matrix() @ t,
                           atol=1e-12)


def test_wigner_homomorphism_and_unitarity():
    rng = np.random.default_rng(47)
    for lam in (2, 3):
        v1, v2 = rng.normal(size=(2, 3))
        r1 = rc.from_axis_angle(v1 / np.linalg.norm(v1), 1.1)
        r2 = rc.from_axis_angle(v2 / np.linalg.norm(v2), 2.3)
        d1, d2 = av.wigner_d(lam, r1), av.wigner_d(lam, r2)
        assert np.allclose(av.wigner_d(lam, rc.compose(r2, r1)), d2 @ d1, atol=1e-12)
        assert np.allclose(d1 @ d1.conj().T, np.eye(2 * lam + 1), atol=1e-12)


def test_wigner_unsupported_rank():
    with pytest.raises(ValueError):
        av.wigner_d(4, rc.IDENTITY)


def test_kappa_identity_prefix_only():
    # single positive delay before any pulse acts: plain identity average
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    dd = ddsim.DDSequence(s, np.array([1.0, 0.0]))
    for lam in range(4):
        assert np.allclose(av.kappa(dd, lam).matrix, np.eye(2 * lam + 1), atol=1e-14)


def test_kappa_lambda1_is_vector_average():
    dd = catalog.whh4()
    t = av.spherical_basis_matrix()
    prefixes = sm.prefix_quaternions(dd.pulses.axes, dd.pulses.betas)
    acc = np.zeros((3, 3))
    for tau, q in zip(dd.delays, prefixes):
        acc += tau * rc.Rotation(q).as_matrix().T
    acc /= dd.delays.sum()
    assert np.allclose(av.kappa(dd, 1).matrix, t.conj().T @ acc @ t, atol=1e-12)


def test_kappa_vmas_rank2_suppression():
    kt = av.kappa(catalog.vmas(), 2, 1.0)
    assert np.max(np.abs(kt.row(0))) < 1e-12


def test_kappa_invariant_under_delay_rescaling():
    dd = catalog.whh4()
    scaled = ddsim.DDSequence(dd.pulses, dd.delays * 7.5)
    assert np.allclose(av.kappa(dd, 2).matrix, av.kappa(scaled, 2).matrix, atol=1e-13)


def test_kappa_rejects_zero_delays():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    dd = ddsim.DDSequence(s, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        av.kappa(dd, 1)


def test_kappa_table_serialization():
    kt = av.kappa(catalog.vmas(), 1, 1.0)
    d = kt.to_json_dict()
    assert d["lambda"] == 1 and len(d["cells_row_major"]) == 9
    rows = list(kt.csv_rows())
    assert len(rows) == 9 and rows[0][0] == 1


def test_kappa_entries_bounded_by_one():
    # convex combinations of unitary-matrix entries
    rng = np.random.default_rng(48)
    for lam in range(4):
        for dd in (catalog.whh4(), catalog.vmas(), catalog.named_dd("kdd20")):
            kt = av.kappa(dd, lam, float(rng.uniform(0.5, 1.5)))
            assert np.max(np.abs(kt.matrix)) <= 1.0 + 1e-10
