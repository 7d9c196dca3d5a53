"""Averaging layer: centroids, Magnus orders, symmetry rules, Wigner, kappa."""

import json
import warnings

import numpy as np
import pytest

from togglekit import (averaging as av, catalog, cli, ddsim, rotcore as rc, seqmodel as sm,
                       toggling as tg, virtualmas as vm)


def test_centroid_examples():
    assert np.allclose(av.centroid(np.array([rc.E_X, -rc.E_X])), 0.0)
    n5 = catalog.nprime(5)
    assert np.linalg.norm(av.centroid(n5.axes)) < 1e-12
    toggled = tg.toggling_map(catalog.f1()).axes
    assert np.linalg.norm(av.centroid(toggled)) < 1e-12
    with pytest.raises(ValueError):
        av.centroid(np.empty((0, 3)))


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


def _average_orders_reference(e):
    """average_orders as the hand-written discrete Magnus sums it was before
    the per-pulse BCH step, with prefix and suffix sums and the cross products
    taken by np.cross."""
    prefix = np.zeros_like(e)
    prefix[1:] = np.cumsum(e, axis=0)[:-1]
    suffix = np.zeros_like(e)
    suffix[:-1] = np.cumsum(e[::-1], axis=0)[-2::-1]
    order2 = 0.5 * np.cross(e, prefix).sum(axis=0)
    w = np.zeros_like(e)
    w[1:] = np.cumsum(np.cross(e, prefix), axis=0)[:-1]
    triple_a = np.cross(e, w).sum(axis=0)
    triple_b = np.cross(prefix, np.cross(e, suffix)).sum(axis=0)
    pair_a = np.cross(e, np.cross(e, prefix)).sum(axis=0)
    pair_b = np.cross(e, np.cross(e, suffix)).sum(axis=0)
    order3 = (triple_a + triple_b) / 6.0 + (pair_a + pair_b) / 12.0
    return e.sum(axis=0), order2, order3


def test_average_orders_agrees_with_np_cross_form():
    # orders 1 and 2 keep the reference's bits; order 3 sums other terms
    rng = np.random.default_rng(44)
    for n in [*range(1, 20), 33, 100]:
        e = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        got = av.average_orders(e)
        order1, order2, order3 = _average_orders_reference(e)
        assert got.order1.tobytes() == order1.tobytes()
        assert got.order2.tobytes() == order2.tobytes()
        assert np.max(np.abs(got.order3 - order3)) <= 1e-14 * max(1.0, np.max(np.abs(order3)))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
def test_average_orders_stack_rows_equal_single_calls(n):
    stack = np.random.default_rng(47).normal(size=(3, 4, n, 3))
    got = av.average_orders(stack)
    for idx in np.ndindex(3, 4):
        one = av.average_orders(stack[idx])
        for have, want in zip((got.order1, got.order2, got.order3),
                              (one.order1, one.order2, one.order3)):
            assert have[idx].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 4, 4)], ids=str)
def test_average_orders_rejects_non_vector_rows(shape):
    with pytest.raises(ValueError, match="expected an"):
        av.average_orders(np.zeros(shape))


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
    """The oracle as a fit, before it became the exact eps-series: a scalar
    propagator loop per grid point (the error_propagator list
    comprehension), then a degree-14 Chebyshev fit.  Returns order1..3 as rows."""
    beta = s.uniform_beta()

    def net(scale):
        q = rc.quat_identity()
        for axis, b in zip(s.axes, s.betas.tolist()):
            q = rc.quat_mul(rc.quat_from_axis_angle(axis, scale * b), q)
            q = q / np.linalg.norm(q)
        return rc.Rotation(q)

    def error_propagator(eps):
        return rc.compose(rc.inverse(net(beta_prime / beta)), net((beta_prime + eps) / beta))

    def rotation_vector(r):
        e, angle = rc.to_axis_angle(r)
        return angle * e

    grid = 0.2 * np.cos(np.pi * np.arange(33) / 32)   # Chebyshev extrema on [-0.2, 0.2]
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


def reference_cheb2poly_expansion(s, beta_prime):
    """The oracle as a fit on the closed-form sweep: one sweep per sequence,
    a Chebyshev fit in eps itself and cheb2poly per column.  Returns the
    power-series coefficients (15, 3)."""
    grid = 0.2 * np.cos(np.pi * np.arange(33) / 32)   # Chebyshev extrema on [-0.2, 0.2]
    nets = sm.net_quaternions(s, beta_prime + np.concatenate([[0.0], grid]))
    errors = rc.quat_normalize(rc.quat_mul(rc.quat_conj(nets[0]), nets[1:]))
    coeffs = np.polynomial.chebyshev.chebfit(grid, rc.quat_to_rotation_vector(errors), 14)
    power = np.zeros((15, 3))
    for k in range(3):
        p = np.polynomial.chebyshev.cheb2poly(coeffs[:, k])
        power[:p.size, k] = p
    return power


def criterion_8_sequences():
    """The 200 random sequences of acceptance criterion 8, drawn in its order."""
    rng = np.random.default_rng(808)
    for _ in range(100):   # the symmetry-rule half lists come first
        rng.normal(size=(int(rng.integers(2, 5)), 3))
    seqs = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        seqs.append(sm.sequence_from_axes("r", float(rng.uniform(0.5, np.pi)), axes))
    return seqs


def test_oracle_kernel_matches_per_sequence_loop_on_criterion_8():
    seqs = criterion_8_sequences()
    for n in range(2, 7):
        group = [s for s in seqs if len(s) == n]
        beta0 = np.array([s.betas[0] for s in group])
        series = av._error_series(np.array([s.axes for s in group]), beta0, beta0)
        assert series.shape == (len(group), 4, 3)
        for s, power in zip(group, series):
            want = reference_cheb2poly_expansion(s, s.betas[0])
            assert np.max(np.abs(power[0] - want[0])) < 1e-12
            assert np.max(np.abs(power[1:4] - want[1:4])) < 1e-10


@pytest.mark.parametrize("n", [20, 40, 80])
def test_error_series_matches_average_orders_on_long_sequences(n):
    rng = np.random.default_rng(n)
    s = sm.sequence_from_axes("r", np.pi / 2, rng.normal(size=(n, 3)))
    alg = av.average_orders(tg.toggle_axes(s.axes, s.betas))
    num = av.numeric_error_expansion(s)
    for a, b in ((alg.order1, num.order1), (alg.order2, num.order2), (alg.order3, num.order3)):
        assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(a)))


def test_error_series_p34_second_order_is_two_thirds():
    orders = av.numeric_error_expansion(catalog.p34())
    assert abs(np.linalg.norm(orders.order2) - 2.0 / 3.0) < 1e-15


def test_error_series_of_single_axis_rows():
    # pulses about one axis: the residual rotation is eps times the signed
    # axis count, exactly linear in eps (a fit over |eps| < pi wrapped row 1)
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])[:, None]
    axes = np.stack([signs * rc.E_X, np.tile(rc.E_X, (5, 1)), signs * rc.E_Y])
    beta0 = np.full(3, np.pi)
    series = av._error_series(axes, beta0, beta0)
    assert np.max(np.abs(series[:, 1] - np.array([rc.E_X, 5.0 * rc.E_X, rc.E_Y]))) < 1e-12
    assert np.max(np.abs(series[:, 2:])) < 1e-12


def test_numeric_expansion_rejects_a_nonfinite_beta_prime():
    with pytest.raises(ValueError, match="must be finite"):
        av.numeric_error_expansion(catalog.f1(), beta_prime=np.nan)


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
        d = av.wigner_matrices(lam, rc.IDENTITY.q)
        assert np.allclose(d, np.eye(2 * lam + 1), atol=1e-14)


def test_wigner_z_rotation_diagonal():
    beta = 0.7
    d = av.wigner_matrices(1, rc.from_axis_angle(rc.E_Z, beta).q)
    assert np.allclose(np.diag(d), [np.exp(1j * beta), 1.0, np.exp(-1j * beta)],
                       atol=1e-14)
    assert np.allclose(d, np.diag(np.diag(d)), atol=1e-14)


def test_wigner_cartesian_equivalence():
    rng = np.random.default_rng(46)
    t = av.spherical_basis_matrix()
    for _ in range(20):
        v = rng.normal(size=3)
        r = rc.from_axis_angle(v / np.linalg.norm(v), rng.uniform(0, np.pi))
        assert np.allclose(av.wigner_matrices(1, r.q), t.conj().T @ r.as_matrix() @ t,
                           atol=1e-12)


def test_wigner_homomorphism_and_unitarity():
    rng = np.random.default_rng(47)
    for lam in range(av.MAX_WIGNER_RANK + 1):
        v1, v2 = rng.normal(size=(2, 3))
        r1 = rc.from_axis_angle(v1 / np.linalg.norm(v1), 1.1)
        r2 = rc.from_axis_angle(v2 / np.linalg.norm(v2), 2.3)
        d1, d2 = av.wigner_matrices(lam, r1.q), av.wigner_matrices(lam, r2.q)
        assert np.allclose(av.wigner_matrices(lam, rc.compose(r2, r1).q), d2 @ d1, atol=1e-12)
        assert np.allclose(d1 @ d1.conj().T, np.eye(2 * lam + 1), atol=1e-12)


def reference_wigner_matrices(lam, quats):
    """wigner_matrices as it ran before its term table was cached: the
    table rebuilt on every call; kept as the reference."""
    two = 2 * lam
    i = np.arange(two + 1)
    n, n_p, k = np.nonzero((i <= i[:, None]) & (i <= i[:, None, None])
                           & (i >= i[:, None] + i[:, None, None] - two))
    exps = np.array([k - n - n_p + two, n_p - k, n - k, k])
    fact = np.cumprod(np.maximum(i, 1.0))
    coef = np.sqrt(fact[n] * fact[two - n] * fact[n_p] * fact[two - n_p]) / fact[exps].prod(0)
    q = np.asarray(quats, dtype=float)
    powers = np.ones(q.shape[:-1] + (4, two + 1), dtype=complex)
    powers[..., 1:] = (q @ av._CAYLEY_KLEIN)[..., None]
    terms = coef * np.cumprod(powers, axis=-1)[..., np.arange(4)[:, None], exps].prod(-2)
    first = np.flatnonzero(np.minimum(exps[0], k) == 0)
    return np.add.reduceat(terms, first, axis=-1).reshape(q.shape[:-1] + (two + 1, two + 1))


def test_wigner_term_table_is_built_once_and_keeps_the_bits():
    rng = np.random.default_rng(48)
    q = rng.normal(size=(3, 7, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    for lam in range(av.MAX_WIGNER_RANK + 1):
        for quats in (q, q[0, 0]):
            got = av.wigner_matrices(lam, quats)
            assert got.tobytes() == reference_wigner_matrices(lam, quats).tobytes()
        table = av._wigner_terms(2 * lam)
        assert all(a is b for a, b in zip(table, av._wigner_terms(2 * lam)))
        assert not any(a.flags.writeable for a in table)


def test_wigner_unsupported_rank():
    for lam in (9, -1, True, 2.0):
        with pytest.raises(ValueError, match=r"rank must be an integer in 0\.\.8"):
            av.wigner_matrices(lam, rc.IDENTITY.q)


# The spin-lam generators and the eigendecomposition that computed D before
# the Cayley-Klein closed form: the reference the kernel is checked against.

def _angular_momentum(lam: int):
    """Spin-lam generators (Jx, Jy, Jz) in the basis mu = -lam .. +lam."""
    mu = np.arange(-lam, lam + 1, dtype=float)
    jz = np.diag(mu)
    raising = np.zeros((2 * lam + 1, 2 * lam + 1))
    ladder = np.sqrt(lam * (lam + 1) - mu[:-1] * (mu[:-1] + 1))
    raising[np.arange(1, 2 * lam + 1), np.arange(2 * lam)] = ladder
    jx = 0.5 * (raising + raising.T)
    jy = -0.5j * (raising - raising.T)
    return jx, jy, jz


def _wigner_eigh(lam: int, r: rc.Rotation) -> np.ndarray:
    if lam == 0:
        return np.ones((1, 1), dtype=complex)
    e, beta = rc.to_axis_angle(r)
    jx, jy, jz = _angular_momentum(lam)
    w, v = np.linalg.eigh(e[0] * jx + e[1] * jy + e[2] * jz)
    return (v * np.exp(-1j * beta * w)) @ v.conj().T


def _kappa_eigh(dd, lam: int, scale: float = 1.0) -> np.ndarray:
    """kappa as a loop over the prefixes, one eigh-built D per delay."""
    delays = np.asarray(dd.delays, dtype=float)
    prefixes = sm.prefix_quaternions(dd.pulses.axes, scale * dd.pulses.betas)
    acc = np.zeros((2 * lam + 1, 2 * lam + 1), dtype=complex)
    for tau, q in zip(delays, prefixes):
        if tau == 0.0:
            continue
        acc += tau * _wigner_eigh(lam, rc.inverse(rc.Rotation(q)))
    return acc / delays.sum()


def test_wigner_matches_eigh_reference_at_every_rank():
    rng = np.random.default_rng(49)
    axes = rc.unit_vectors(rng.normal(size=(30, 3)))
    quats = rc.unit_quaternions(rc.quat_from_axis_angle(axes, rng.uniform(0.0, 2 * np.pi, 30)))
    for lam in range(av.MAX_WIGNER_RANK + 1):
        batch = av.wigner_matrices(lam, quats)
        assert batch.shape == (30, 2 * lam + 1, 2 * lam + 1)
        for q, d in zip(quats, batch):
            r = rc.Rotation(q)
            assert np.max(np.abs(d - _wigner_eigh(lam, r))) < 1e-12
            assert np.array_equal(av.wigner_matrices(lam, r.q), d)   # a batch of one


DD_SPECS = [*(name for name in catalog.DD_ENTRIES if name != "udd"), "udd(5)", "udd(8)"]


@pytest.mark.parametrize("spec", DD_SPECS)
def test_kappa_matches_per_prefix_eigh_sum(spec):
    dd = catalog.named_dd(spec)
    for lam in range(4):
        for scale in (0.9, 1.0, 1.1):
            got = av.kappa(dd, lam, scale).matrix
            assert np.max(np.abs(got - _kappa_eigh(dd, lam, scale))) < 1e-14


def test_kappa_scale_batch_matches_single_calls():
    dd = catalog.whh4()
    scales = np.array([[0.8, 1.0], [1.05, 1.3]])
    batch = av._kappa_matrices(dd, 3, scales)
    assert batch.shape == (2, 2, 7, 7)
    for idx in np.ndindex(scales.shape):
        assert np.allclose(batch[idx], av.kappa(dd, 3, scales[idx]).matrix, rtol=0, atol=1e-15)


def test_kappa_batch_of_one_bit_identical_to_array_steps():
    # a lead shape of product 1 steps on the unbatched view; its chain used
    # to step on 1-element arrays, to the same bits
    from test_seqmodel import reference_broadcast_trig_prefix_quaternions as array_chain
    dd = vm.compensated_cycle()
    delays = np.asarray(dd.delays, dtype=float)
    used = delays > 0
    for scales in ([1.0], [[0.9]], [1.0, 1.1], 1.05):
        angles = np.multiply.outer(scales, dd.pulses.betas)
        prefixes = array_chain(np.broadcast_to(dd.pulses.axes, angles.shape + (3,)), angles)
        d = av.wigner_matrices(2, rc.quat_conj(prefixes[..., used, :]))
        want = np.einsum("j,...jab->...ab", delays[used], d) / float(delays.sum())
        assert av._kappa_matrices(dd, 2, scales).tobytes() == want.tobytes()


def test_mas_kappa_sweep_matches_per_scale_loop():
    grid = [1.2, 0.8, 1.0, 0.95, 1.07]
    for compensated in (False, True):
        dd = vm.compensated_cycle() if compensated else catalog.vmas()
        rows = vm.mas_kappa_sweep(compensated, grid)
        assert [row.beta_scale for row in rows] == grid   # input order
        for row in rows:
            want = _kappa_eigh(dd, 2, row.beta_scale)[2]
            assert np.max(np.abs(row.kappa_row - want)) < 1e-14
            assert row.max_abs == float(np.max(np.abs(row.kappa_row)))


# the three commands whose sha256 in data/cli_golden.json moved with the closed form
GOLDEN_KAPPA = [pytest.param(argv, spec, lam, scale, id=" ".join(argv))
                for argv, spec, lam, scale in (
                    (["kappa", "vmas", "--lambda", "2"], "vmas", 2, 1.0),
                    (["kappa", "whh4", "--lambda", "2", "--beta-scale", "0.9"], "whh4", 2, 0.9),
                    (["kappa", "kdd20", "--lambda", "3", "--json"], "kdd20", 3, 1.0))]


@pytest.mark.parametrize("argv, spec, lam, scale", GOLDEN_KAPPA)
def test_golden_kappa_outputs_match_eigh_reference(capsys, argv, spec, lam, scale):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "--json" in argv:
        doc = json.loads(out)
        assert doc["lambda"] == lam
        cells = np.array(doc["cells_row_major"])
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(int(r[1]), int(r[2])) for r in rows] == \
            [(mu, mup) for mu in range(-lam, lam + 1) for mup in range(-lam, lam + 1)]
        cells = np.array([[float(r[3]), float(r[4])] for r in rows])
    got = (cells[:, 0] + 1j * cells[:, 1]).reshape(2 * lam + 1, 2 * lam + 1)
    assert np.max(np.abs(got - _kappa_eigh(catalog.named_dd(spec), lam, scale))) < 1e-14


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
    assert np.max(np.abs(kt.matrix[kt.lam])) < 1e-12   # mu = 0


def test_kappa_invariant_under_delay_rescaling():
    dd = catalog.whh4()
    scaled = ddsim.DDSequence(dd.pulses, dd.delays * 7.5)
    assert np.allclose(av.kappa(dd, 2).matrix, av.kappa(scaled, 2).matrix, atol=1e-13)


def test_kappa_rejects_zero_delays():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    dd = ddsim.DDSequence(s, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        av.kappa(dd, 1)


@pytest.mark.parametrize("delays", [[5e-324, 0.0], [1e-310, 1e-310], [1e308, 1e308]])
def test_kappa_rejects_totals_that_do_not_normalize(delays):
    dd = ddsim.DDSequence(sm.sequence_from_phases("pix", np.pi, [0.0]), np.array(delays))
    with pytest.raises(ValueError, match="delays must total a finite value of at least"):
        av.kappa(dd, 1)


def test_kappa_table_serialization():
    kt = av.kappa(catalog.vmas(), 1, 1.0)
    d = kt.to_json_dict()
    assert d["lambda"] == 1 and len(d["cells_row_major"]) == 9
    rows = av.kappa_csv(kt).splitlines()
    assert rows[0] == "lambda,mu,mu_prime,re,im"
    assert len(rows) == 10 and rows[1].startswith("1,-1,-1,") and rows[9].startswith("1,1,1,")


def test_kappa_entries_bounded_by_one():
    # convex combinations of unitary-matrix entries
    rng = np.random.default_rng(48)
    for lam in range(4):
        for dd in (catalog.whh4(), catalog.vmas(), catalog.named_dd("kdd20")):
            kt = av.kappa(dd, lam, float(rng.uniform(0.5, 1.5)))
            assert np.max(np.abs(kt.matrix)) <= 1.0 + 1e-10


@pytest.mark.parametrize("lam", [-1, 9, True, 1.0])
def test_kappa_rejects_bad_rank(lam):
    with pytest.raises(ValueError, match=r"rank must be an integer in 0\.\.8"):
        av.kappa(catalog.vmas(), lam)


@pytest.mark.parametrize("scale", [np.inf, np.nan, 1e308])
def test_kappa_rejects_non_finite_scaled_angles(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scaled flip angles must be finite"):
            av.kappa(catalog.named_dd("xy4"), 1, scale)
