"""Sequence model: propagators, structural algebra, JSON schema."""

import json
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from togglekit import (averaging, catalog, cli, ddsim, profiles, rotcore as rc, seqmodel as sm,
                       toggling as tg, virtualmas as vm)

PHI = np.arccos(-0.25)


def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_equatorial(rng, n, beta=np.pi, name="rand"):
    return sm.sequence_from_phases(name, beta, rng.uniform(0, 2 * np.pi, n))


def test_element_requires_positive_beta():
    with pytest.raises(ValueError):
        sm.PulseElement(-np.pi, rc.E_X)
    with pytest.raises(ValueError):
        sm.PulseElement(0.0, rc.E_X)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sm.PulseElement(bad, rc.E_X)


def test_sequence_requires_elements():
    with pytest.raises(ValueError):
        sm.RotationSequence("empty", ())


def test_cycle_order_consistency_enforced():
    el = _phase_element(np.pi, 0.0)
    with pytest.raises(ValueError):
        sm.RotationSequence("bad", (el,), cycle_order=3)
    ok = sm.RotationSequence("ok", (el,), cycle_order=2)
    assert ok.cycle_order == 2


@pytest.mark.parametrize("m", [2.0, True, "2", 0, -2])
def test_cycle_order_must_be_a_positive_integer(m):
    el = _phase_element(2 * np.pi, 0.0) if m is True else _phase_element(np.pi, 0.0)
    with pytest.raises(ValueError):
        sm.RotationSequence("bad", (el,), cycle_order=m)
    with pytest.raises(ValueError):
        sm.sequences_from_arrays(["bad"], [[el.beta]], [[el.axis]], m)


def test_cycle_order_is_stored_as_int():
    s = sm.RotationSequence("ok", (_phase_element(np.pi, 0.0),), cycle_order=np.int64(2))
    assert type(s.cycle_order) is int
    [t] = sm.sequences_from_arrays(["ok"], np.pi, [[rc.E_X]], np.int32(2))
    assert type(t.cycle_order) is int


def _stack(rng, count, n):
    """Seeded (count, n, 3) axes at scales 1e-6..1e6 and (count, n) flip angles."""
    axes = rng.normal(size=(count, n, 3)) * 10.0 ** rng.uniform(-6, 6, size=(count, n, 1))
    return rng.uniform(0.1, 2 * np.pi, size=(count, n)), axes


def test_sequences_from_arrays_match_element_built_sequences():
    rng = np.random.default_rng(81)
    for n in range(1, 11):
        betas, axes = _stack(rng, 40, n)
        names = [f"r{j}" for j in range(len(axes))]
        for s, name, b, a in zip(sm.sequences_from_arrays(names, betas, axes), names, betas, axes):
            want = sm.RotationSequence(name, tuple(sm.PulseElement(x, v) for x, v in zip(b, a)))
            assert s.name == name and len(s) == n and s.cycle_order is None
            assert s.axes.tobytes() == want.axes.tobytes()
            assert s.betas.tobytes() == want.betas.tobytes()
        m = int(rng.integers(1, 7))
        [s] = sm.sequences_from_arrays(["u"], 2 * np.pi / m, axes[:1], m)
        want = sm.RotationSequence("u", tuple(sm.PulseElement(2 * np.pi / m, v) for v in axes[0]), m)
        assert s.cycle_order == want.cycle_order == m
        assert (s.axes.tobytes(), s.betas.tobytes()) == (want.axes.tobytes(), want.betas.tobytes())


def test_stack_rows_match_sequences_from_arrays(built_sequences):
    rng = np.random.default_rng(84)
    for n in (1, 4, 9):
        _, axes = _stack(rng, 30, n)
        m = int(rng.integers(1, 7))
        want = sm.sequences_from_arrays([f"p-{j}" for j in range(30)], 2 * np.pi / m, axes, m)
        built_sequences.clear()
        stack = sm._sequence_stack("p-", 2 * np.pi / m, axes, m)
        assert len(built_sequences) == 0 and not stack._axes.flags.writeable
        for got in (list(stack), [stack[j] for j in range(30)]):
            for s, w in zip(got, want, strict=True):
                assert (s.name, s.cycle_order, len(s)) == (w.name, w.cycle_order, n)
                assert s.axes.tobytes() == w.axes.tobytes()
                assert s.betas.tobytes() == w.betas.tobytes()
                assert np.isnan(s._given_phases).all() and np.isnan(s._given_latitudes).all()
                assert not (s.axes.flags.writeable or s.betas.flags.writeable)
        assert len(built_sequences) == 60


@pytest.mark.parametrize("beta, m, says", [
    (np.nan, None, "flip angle"),
    (0.0, None, "flip angle"),
    (np.pi, 3, "cycle order 3 requires"),
    (np.pi, 2.0, "cycle order must be an integer"),
])
def test_sequence_stack_checks_beta_and_cycle_order(beta, m, says):
    with pytest.raises(ValueError, match=says):
        sm._sequence_stack("p-", beta, np.ones((2, 3, 3)), m)


def test_unit_vectors_rows_equal_batches_of_one():
    rng = np.random.default_rng(83)
    for n in (1, 2, 3, 7, 33):
        v = rng.normal(size=(500, n)) * 10.0 ** rng.uniform(-6, 6, size=(500, 1))
        batch = rc.unit_vectors(v)
        for row, one in zip(batch, v):
            assert row.tobytes() == rc.unit_vectors(one[None])[0].tobytes()
            assert row.tobytes() == rc.unit_vector(one).tobytes()
    with pytest.raises(ValueError):
        rc.unit_vectors([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_sequence_arrays_are_read_only():
    built = sm.sequence_from_axes("a", np.pi / 2, [[1.0, 0, 0], [0, 1.0, 0]])
    for s in (built, catalog.f1(), built.with_name("b"), tg.toggling_map(built)):
        for arr in (s.axes, s.betas):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            s.name = "other"


@pytest.mark.parametrize("betas, axes", [
    (np.pi, np.zeros((1, 2, 3))),                      # zero axis
    (np.nan, np.ones((1, 2, 3))),
    (-1.0, np.ones((1, 2, 3))),
    (np.pi, np.ones((1, 2, 2))),                       # two components
    (np.pi, np.ones((2, 3))),                          # not a stack
    (np.pi, np.ones((1, 0, 3))),                       # no elements
])
def test_sequences_from_arrays_rejects_bad_stacks(betas, axes):
    with pytest.raises(ValueError):
        sm.sequences_from_arrays(["x"] * len(axes), betas, axes)


def test_prefix_propagator_zero_is_identity():
    s = catalog.f1()
    assert rc.rotation_angle_between(rc.IDENTITY, sm.prefix_propagator(s, 0)) == 0.0


def test_prefix_propagator_single_pi_inverts():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    assert np.allclose(rc.rotate(sm.prefix_propagator(s, 1), rc.E_Z), -rc.E_Z, atol=1e-15)


def test_prefix_propagator_out_of_range():
    with pytest.raises(ValueError):
        sm.prefix_propagator(catalog.f1(), 6)


def test_prefix_propagator_rejects_non_finite_scale():
    with pytest.raises(ValueError, match="scaled flip angles must be finite, got nan"):
        sm.prefix_propagator(catalog.f1(), 3, np.nan)


def test_f1_net_is_compensated_pi_with_equatorial_axis():
    u = sm.net_propagator(catalog.f1())
    # independent matrix-product oracle
    m = np.eye(3)
    for ph in catalog.f1().phases:
        m = rodrigues([np.cos(ph), np.sin(ph), 0], np.pi) @ m
    assert np.allclose(u.as_matrix(), m, atol=1e-12)
    axis, angle = rc.to_axis_angle(u)
    assert abs(angle - np.pi) < 1e-12
    assert abs(axis[2]) < 1e-12


def test_prefix_recursion_invariant():
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    s = sm.sequence_from_axes("r", rng.uniform(0.2, 3.0, 6), axes)
    for scale in (0.7, 1.0, 1.3):
        for i in range(len(s)):
            step = rc.from_axis_angle(s.axes[i], scale * s.betas[i])
            lhs = sm.prefix_propagator(s, i + 1, scale)
            rhs = rc.compose(step, sm.prefix_propagator(s, i, scale))
            assert rc.rotation_angle_between(lhs, rhs) < 1e-12


def reference_prefix_propagator(s, i, scale=1.0):
    """The per-element loop that prefix_propagator ran before it became a
    batch-of-one call on prefix_quaternions, kept as the reference."""
    q = rc.quat_identity()
    for axis, beta in zip(s.axes[:i], s.betas[:i].tolist()):
        q = rc.quat_mul(rc.quat_from_axis_angle(axis, scale * beta), q)
        q = q / np.linalg.norm(q)
    return rc.Rotation(q)


def test_prefix_propagator_matches_scalar_loop():
    rng = np.random.default_rng(61)
    for n in range(1, 11):
        axes = rng.normal(size=(n, 3))
        s = sm.sequence_from_axes("r", rng.uniform(0.1, 2 * np.pi, n), axes)
        for scale in (0.8, 1.0, 1.25):
            for i in range(n + 1):
                got = sm.prefix_propagator(s, i, scale).q
                assert np.max(np.abs(got - reference_prefix_propagator(s, i, scale).q)) < 1e-14
            assert np.array_equal(sm.net_propagator(s, scale).q,
                                  sm.prefix_propagator(s, n, scale).q)


def test_net_quaternions_match_scalar_loop():
    rng = np.random.default_rng(62)
    for n in range(1, 11):
        beta = float(rng.uniform(0.1, 2 * np.pi))
        s = sm.sequence_from_axes("r", beta, rng.normal(size=(n, 3)))
        sweep = beta * rng.uniform(0.0, 2.0, 9)
        quats = sm.net_quaternions(s, sweep)
        assert quats.shape == (9, 4)
        for q, bp in zip(quats, sweep):
            assert np.max(np.abs(q - reference_prefix_propagator(s, n, bp / beta).q)) < 1e-14


def reference_prefix_quaternions(axes, angles):
    """The array-form loop prefix_quaternions ran before its chain moved onto
    components, kept as the reference."""
    axes = np.asarray(axes, dtype=float)
    n = axes.shape[-2]
    angles = np.broadcast_to(np.asarray(angles, dtype=float), axes.shape[:-1])
    lead = axes.shape[:-2]
    out = np.empty(lead + (n + 1, 4))
    q = rc.quat_identity(lead)
    out[..., 0, :] = q
    for i in range(n):
        step = rc.quat_from_axis_angle(axes[..., i, :], angles[..., i])
        q = rc.quat_mul(step, q)
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
        out[..., i + 1, :] = q
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("lead", [(), (1,), (5,), (25, 21)], ids=str)
def test_prefix_quaternions_bit_identical_to_array_loop(n, lead):
    rng = np.random.default_rng([71, n, *lead])
    axes = rng.normal(size=lead + (n, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    strided = np.swapaxes(np.swapaxes(axes, -1, -2).copy(), -1, -2)   # (3, n) storage
    assert n < 2 or not strided.flags.c_contiguous
    shared = rng.uniform(0.0, 2 * np.pi, 2 * n)[::2]                  # (n,), every other value
    per_row = rng.uniform(-2 * np.pi, 2 * np.pi, lead + (n,))
    for ax in (axes, strided):
        for angles in (shared, per_row):
            got = sm.prefix_quaternions(ax, angles)
            assert got.shape == lead + (n + 1, 4) and got.flags.c_contiguous
            assert got.tobytes() == reference_prefix_quaternions(ax, angles).tobytes()


def reference_broadcast_trig_prefix_quaternions(axes, angles):
    """The component chain prefix_quaternions ran before cos and sin moved
    onto the angles' own shape: the step quaternions over the full broadcast
    shape, and a batch of one stepping on 1-element arrays; kept as the
    reference."""
    axes = np.asarray(axes, dtype=float)
    n = axes.shape[-2]
    angles = np.broadcast_to(np.asarray(angles, dtype=float), axes.shape[:-1])
    sw, sx, sy, sz = rc.quat_from_axis_angle(axes, angles).T
    out = np.empty(axes.shape[:-2] + (n + 1, 4))
    ow, ox, oy, oz = out.T
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    ow[0], ox[0], oy[0], oz[0] = w, x, y, z
    for i in range(n):
        w, x, y, z = rc._unit4(*rc._mul4(sw[i], sx[i], sy[i], sz[i], w, x, y, z))
        ow[i + 1], ox[i + 1], oy[i + 1], oz[i + 1] = w, x, y, z
    return out


def _unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 8, 15])
def test_angle_column_bit_identical_to_broadcast_trig(n):
    # a uniform sweep passes one (G, 1) column; the old chain took (G, n) angles
    rng = np.random.default_rng([72, n])
    axes = _unit_rows(rng, (n,))
    column = rng.uniform(0.0, 2 * np.pi, (13, 1))
    want = reference_broadcast_trig_prefix_quaternions(np.broadcast_to(axes, (13, n, 3)),
                                                       np.broadcast_to(column, (13, n)))
    assert sm.prefix_quaternions(axes, column).tobytes() == want.tobytes()


def test_ddmap_angles_bit_identical_to_broadcast_trig():
    # ddsim.centroid_map: (21, n) angles against (25, 21, n, 3) dressed axes
    rng = np.random.default_rng(73)
    axes = _unit_rows(rng, (25, 1, 20))
    angles = np.linspace(0.0, 2.0, 21)[:, None] * np.full(20, np.pi)
    want = reference_broadcast_trig_prefix_quaternions(np.broadcast_to(axes, (25, 21, 20, 3)),
                                                       angles)
    got = sm.prefix_quaternions(axes, angles)
    assert got.shape == (25, 21, 21, 4) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [(1,), (1, 1)], ids=str)
def test_batch_of_one_bit_identical_to_array_steps(lead):
    rng = np.random.default_rng([74, *lead])
    axes = _unit_rows(rng, lead + (9,))
    for angles in (rng.uniform(0.0, 2 * np.pi, 9), rng.uniform(0.0, 2 * np.pi, lead + (9,))):
        got = sm.prefix_quaternions(axes, angles)
        assert got.shape == lead + (10, 4) and got.flags.c_contiguous
        want = reference_broadcast_trig_prefix_quaternions(axes, angles)
        assert got.tobytes() == want.tobytes()


def reference_net_quaternions(s, beta_primes):
    """net_quaternions as it was: (G, n) angles through the broadcast-trig chain."""
    scales = np.asarray(beta_primes, dtype=float) / s.uniform_beta()
    axes = np.broadcast_to(s.axes, (scales.size,) + s.axes.shape)
    return reference_broadcast_trig_prefix_quaternions(
        axes, scales[:, None] * s.betas[None, :])[:, -1, :]


SWEEP_TOL = 1e-13   # per component, against the chain and the 40-digit product


def test_net_quaternions_agree_with_broadcast_trig_chain():
    # the closed-form sweep against the chain it replaced, on the 721-point grid
    rng = np.random.default_rng(75)
    grid = np.linspace(0.0, 2 * np.pi, 721)
    for n in (1, 2, 8, 13):
        beta = float(rng.uniform(0.1, 2 * np.pi))
        s = sm.sequence_from_axes("r", beta, _unit_rows(rng, (n,)))
        # angles within BETA_MATCH_TOL but not exactly equal: the chain takes
        # each element's own angle, the sweep the first one, which moves the
        # net by at most n |beta'/beta| max|beta_i - beta| / 2
        betas = beta + rng.uniform(-1e-13, 1e-13, n) * (np.arange(n) > 0)
        near = sm.sequences_from_arrays(["near"], betas[None], s.axes[None])[0]
        moved = n * np.max(grid / beta) * np.max(np.abs(betas - beta)) / 2.0
        for seq, tol in ((s, SWEEP_TOL), (near, SWEEP_TOL + moved)):
            got = sm.net_quaternions(seq, grid)
            assert got.shape == (721, 4) and got.flags.c_contiguous
            assert np.max(np.abs(got - reference_net_quaternions(seq, grid))) <= tol


def _decimal_cos_sin(theta: float) -> tuple[Decimal, Decimal]:
    """cos and sin of a float in the current decimal context, by their
    Taylor series; |theta| < 7 cancels fewer than 3 digits."""
    assert abs(theta) < 7
    x = Decimal(theta)   # exact
    sums, term, k = [Decimal(0), Decimal(0)], Decimal(1), 0   # term = x^k / k!
    while abs(term) > Decimal(10) ** -60:
        sums[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term = term * x / k
    return sums[0], sums[1]


def exact_net_quaternions(axes, half_angles):
    """Nets of a uniform-angle sequence as products of the steps
    (cos theta, sin theta e_i) in 50-digit decimal arithmetic, rounded to
    float: a reference at least 40 digits deep."""
    with localcontext(prec=50):
        steps = [[Decimal(v) for v in row] for row in axes.tolist()]   # exact
        out = []
        for theta in half_angles.tolist():
            c, sn = _decimal_cos_sin(theta)
            w, x, y, z = Decimal(1), Decimal(0), Decimal(0), Decimal(0)
            for ex, ey, ez in steps:
                bx, by, bz = sn * ex, sn * ey, sn * ez
                w, x, y, z = (c * w - (bx * x + by * y + bz * z),
                              c * x + w * bx + (by * z - bz * y),
                              c * y + w * by + (bz * x - bx * z),
                              c * z + w * bz + (bx * y - by * x))
            out.append([float(v) for v in (w, x, y, z)])
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 40, 80])
@pytest.mark.parametrize("beta", [np.pi, 2 * np.pi / 3, np.pi / 2, 2 * np.pi / 5, 1.2345],
                         ids=["m2", "m3", "m4", "m5", "generic"])
def test_sweep_nets_agree_with_the_chain_and_a_40_digit_product(n, beta):
    rng = np.random.default_rng([76, n, round(1e4 * beta)])
    axes = _unit_rows(rng, (n,))
    beta_primes = np.concatenate([[0.0, beta, -beta, 2 * np.pi, 3 * np.pi + 0.1, -7.5],
                                  rng.uniform(-3 * np.pi, 4 * np.pi, 40)])
    s = sm.sequence_from_axes("r", beta, axes)
    got = sm.net_quaternions(s, beta_primes)
    assert sm.net_quaternions(s, beta_primes[1]).tobytes() == got[1:2].tobytes()   # scalar grid
    chain = sm.prefix_quaternions(axes, np.multiply.outer(beta_primes / beta, s.betas))[:, -1]
    assert np.max(np.abs(got - chain)) <= SWEEP_TOL
    picks = np.r_[0:6, 6:beta_primes.size:4]   # the six set points and every 4th random one
    exact = exact_net_quaternions(axes, 0.5 * (beta_primes[picks] / beta) * beta)
    assert np.max(np.abs(got[picks] - exact)) <= SWEEP_TOL


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_sweep_nets_of_a_stack_equal_per_row_and_per_point_calls(n):
    rng = np.random.default_rng([77, n])
    axes = _unit_rows(rng, (6, n))
    half = rng.uniform(-2 * np.pi, 2 * np.pi, (6, 29))
    stacked = sm._sweep_nets(axes, half)
    assert stacked.shape == (6, 29, 4)
    for row in range(6):
        assert sm._sweep_nets(axes[row], half[row]).tobytes() == stacked[row].tobytes()
        for g in (0, 13, 28):
            one = sm._sweep_nets(axes[row], half[row, g:g + 1])
            assert one.tobytes() == stacked[row, g:g + 1].tobytes()
    # one sequence over several grids broadcasts against the grids' leading axis
    assert sm._sweep_nets(axes[0], half).tobytes() == np.stack(
        [sm._sweep_nets(axes[0], h) for h in half]).tobytes()


def test_sweeps_refuse_more_elements_than_the_bound(monkeypatch):
    # every sweep takes its coefficients from _sweep_coefficients: the profile,
    # glide and rotation-error sweeps and the exact eps-series all stop there
    monkeypatch.setattr(sm, "SWEEP_MAX_ELEMENTS", 4)
    at, above = catalog.p34(), catalog.bprime(5)
    assert len(at) == 4 and len(above) == 5
    assert sm.net_quaternions(at, [1.0, 2.0]).shape == (2, 4)
    calls = (lambda s: sm.net_quaternions(s, [1.0, 2.0]),
             lambda s: profiles.q_profile(s, rc.E_Z),
             lambda s: profiles.rotation_errors(s, [1.0], rc.IDENTITY),
             lambda s: averaging.numeric_error_expansion(s))
    for call in calls:
        with pytest.raises(ValueError, match=r"^a flip-angle sweep takes at most 2\*\*13 = 4 "
                                             r"elements, got 5$"):
            call(above)


def test_sweep_at_the_first_angle_stays_within_the_match_bound():
    # elements whose angles differ from beta_0 by up to BETA_MATCH_TOL are
    # swept at beta_0: each net moves by at most n |beta'/beta_0| tol / 2
    rng = np.random.default_rng(78)
    grid = np.linspace(-2 * np.pi, 4 * np.pi, 97)
    for n in (2, 5, 13, 40):
        beta = float(rng.uniform(0.5, 2 * np.pi))
        betas = beta + 0.999 * sm.BETA_MATCH_TOL * rng.choice([-1.0, 1.0], n) * (np.arange(n) > 0)
        s = sm.sequences_from_arrays(["near"], betas[None], _unit_rows(rng, (1, n)))[0]
        assert s.uniform_beta() == beta
        own = sm.prefix_quaternions(s.axes, np.multiply.outer(grid / beta, betas))[:, -1]
        dev = np.max(np.abs(sm.net_quaternions(s, grid) - own), axis=-1)
        bound = n * np.abs(grid / beta) * sm.BETA_MATCH_TOL / 2.0
        assert np.all(dev <= bound + SWEEP_TOL)
        assert dev.max() > 1e-14   # the deviation is real, not rounding


@pytest.mark.parametrize("grid, says", [
    ([0.5, np.nan], "scaled flip angles must be finite, got nan"),
    ([np.inf], "scaled flip angles must be finite, got inf"),
    ([1.0, -np.inf], "scaled flip angles must be finite, got -inf"),
    ([1e308], "scaled flip angles must be finite, got inf"),   # beta'/beta overflows
    ([], "scaled flip angles must be nonempty"),
], ids=["nan", "inf", "-inf", "overflow", "empty"])
def test_net_quaternions_reject_non_finite_grids_with_one_line(grid, says):
    s = sm.sequence_from_axes("r", 0.5, _unit_rows(np.random.default_rng(79), (3,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            sm.net_quaternions(s, grid)


def test_reverse():
    s = sm.sequence_from_phases("ab", np.pi, [0.0, np.pi / 2])
    r = sm.reverse(s)
    assert np.allclose(r.phases, [np.pi / 2, 0.0])
    assert sm.sequences_equal(sm.reverse(r), s)


def test_cyclic_permute():
    s = sm.sequence_from_phases("abc", np.pi, [0.1, 0.2, 0.3])
    assert np.allclose(sm.cyclic_permute(s, 1).phases, [0.2, 0.3, 0.1])
    assert sm.sequences_equal(sm.cyclic_permute(s, 3), s)


def test_cyclic_permute_names_a_huge_shift_by_its_digit_count():
    s = catalog.f1()
    big = sm.cyclic_permute(s, 10 ** 5000)
    assert big.name == "cycan integer of 5001 digits(f1)"
    assert sm.sequences_equal(big, sm.cyclic_permute(s, 10 ** 5000 % len(s)))
    assert sm.cyclic_permute(s, 10 ** 20 - 1).name == f"cyc{10 ** 20 - 1}(f1)"
    assert sm.cyclic_permute(s, -3.0).name == "cyc-3(f1)"


def test_held_flip_angles_are_not_checked_again(monkeypatch):
    # reverse, cyclic_permute, with_name, with_axes and the virtual-MAS
    # compensated cycle's _take reuse a built sequence's angles and cycle
    # order; new axes are still normalized and counted
    s = catalog.p34()
    def refuse(*args):
        raise AssertionError("flip angles checked again")
    monkeypatch.setattr(sm, "_checked_cycle_order", refuse)
    for t in (sm.reverse(s), sm.cyclic_permute(s, 1), s.with_name("q"), s.with_axes(2 * s.axes),
              sm._take(s, np.tile(np.arange(4), 3), "vmas_compensated")):
        assert t.cycle_order == s.cycle_order and np.array_equal(t.betas[:4], s.betas)
    assert s.with_axes(2 * s.axes).axes.tobytes() == rc.unit_vectors(2 * s.axes).tobytes()
    with pytest.raises(ValueError, match="at least one element"):
        s.with_axes(np.empty((0, 3)))
    with pytest.raises(ValueError, match="cannot normalize"):
        s.with_axes(np.zeros((4, 3)))


def test_global_phase_shift_f1_gives_nb1_dual_phases():
    shifted = sm.global_phase_shift(catalog.f1(), 4 * PHI)
    want = np.array([PHI, 3 * PHI, 4 * PHI, 5 * PHI, 7 * PHI])
    dev = np.angle(np.exp(1j * (shifted.phases - want)))
    assert np.max(np.abs(dev)) < 1e-12


def test_global_phase_shift_works_off_equator():
    s = catalog.p46()
    shifted = sm.global_phase_shift(s, 0.7)
    assert np.allclose(shifted.axes[:, 2], s.axes[:, 2], atol=1e-15)


def test_phase_scale_identity_and_error():
    n5 = catalog.nprime(5)
    assert sm.sequences_equal(sm.phase_scale(n5, 1), n5)
    with pytest.raises(ValueError):
        sm.phase_scale(catalog.p46(), 2)


HUGE = 10 ** 5000   # str() refuses ints beyond 4300 digits


def _value_id(v):
    """A test id for ``v``; str() refuses ints beyond 4300 digits, so a
    large power of ten is named by its exponent."""
    if callable(v):
        return v.__name__
    if isinstance(v, int) and abs(v) > 10 ** 6:
        return f"{'-' if v < 0 else ''}10**{round(math.log10(abs(v)))}"
    return repr(v)


@pytest.mark.parametrize("fn, value, what", [
    *[(sm.phase_scale, k, "phase scale factor")
      for k in (math.inf, -math.inf, math.nan, 2.5, True, None, 10 ** 400, HUGE, 1e308)],
    *[(sm.cyclic_permute, k, "shift") for k in (2.5, math.nan, math.inf, "1", None)],
    *[(sm.prefix_propagator, k, "prefix length")
      for k in (2.5, math.nan, math.inf, "1", -HUGE, 10 ** 30)],
], ids=_value_id)
def test_structural_integer_arguments_raise_one_value_error(fn, value, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=what):
            fn(catalog.f1(), value)


def test_structural_integer_arguments_take_integer_valued_floats():
    s = catalog.f1()
    assert sm.phase_scale(s, 2.0).name == "f1*k2.0"
    assert sm.sequences_equal(sm.phase_scale(s, np.float64(2.0)), sm.phase_scale(s, 2))
    assert sm.sequences_equal(sm.cyclic_permute(s, 2.0), sm.cyclic_permute(s, 2))
    assert sm.prefix_propagator(s, 3.0).q.tobytes() == sm.prefix_propagator(s, 3).q.tobytes()


def test_phase_scale_matches_family_scaling():
    assert sm.sequences_equal(sm.phase_scale(catalog.nprime(7), 3), catalog.nprime(7, 3))


def test_nest_with_single_block_is_inner():
    one = sm.sequence_from_phases("one", np.pi, [0.0])
    inner = catalog.u5()
    assert sm.sequences_equal(sm.nest(one, inner), inner)


def test_nest_kdd_phase_list():
    kdd = sm.nest(catalog.xy4(), catalog.u5())
    inner = np.array([np.pi / 6, 0, np.pi / 2, 0, np.pi / 6])
    want = np.concatenate([inner + off for off in (0, np.pi / 2, 0, np.pi / 2)])
    assert len(kdd) == 20
    assert np.max(np.abs(np.angle(np.exp(1j * (kdd.phases - want))))) < 1e-14


def test_nest_requires_equatorial():
    with pytest.raises(ValueError):
        sm.nest(catalog.p46(), catalog.u5())


def test_nest_distributes_over_toggling_map():
    # inner length must be odd for the alternating signs to factorize
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_equatorial(rng, int(rng.integers(1, 5)) * 2 + 1)
        b = random_equatorial(rng, int(rng.integers(1, 5)) * 2 + 1)
        lhs = tg.toggling_map(sm.nest(a, b))
        rhs = sm.nest(tg.toggling_map(a), tg.toggling_map(b))
        assert np.max(np.abs(lhs.axes - rhs.axes)) < 1e-10


def test_nested_duals_are_duals():
    lhs = tg.toggling_map(sm.nest(catalog.bprime(3), catalog.nprime(3)))
    rhs = sm.nest(tg.toggling_map(catalog.bprime(3)), tg.toggling_map(catalog.nprime(3)))
    assert np.max(np.abs(lhs.axes - rhs.axes)) < 1e-10


def test_nested_dual_pairs_differ_by_constant_offset():
    for m, n in ((3, 3), (3, 5), (5, 3)):
        a = catalog.nest_nb(m, n)
        b = catalog.nest_bn(m, n)
        t = tg.toggling_map(a)
        got = np.arctan2(t.axes[:, 1], t.axes[:, 0])
        diff = np.angle(np.exp(1j * (got - b.phases)))
        assert np.max(diff) - np.min(diff) < 1e-12
        assert tg.finite_difference_duality_check(a, b)


def test_riffle_splits_elements():
    s = sm.sequence_from_phases("one", np.pi, [0.0])
    r = sm.riffle(s)
    assert np.allclose(r.betas, [np.pi / 2, np.pi / 2])
    assert np.allclose(r.phases, [0.0, 0.0])


def test_riffle_u5_has_ten_half_pulses():
    r = sm.riffle(catalog.u5())
    assert len(r) == 10
    assert np.allclose(r.betas, np.pi / 2)
    assert r.cycle_order == 4


def test_riffle_preserves_prefix_propagators():
    rng = np.random.default_rng(31)
    s = random_equatorial(rng, 5)
    r = sm.riffle(s)
    for i in range(len(s) + 1):
        assert rc.rotation_angle_between(
            sm.prefix_propagator(r, 2 * i), sm.prefix_propagator(s, i)) < 1e-12


def test_json_round_trip_phase_form():
    s = catalog.f1()
    d = sm.to_json_dict(s)
    assert all(0.0 <= e["phase"] < 2 * np.pi for e in d["elements"])
    back = sm.from_json_dict(json.loads(json.dumps(d)))
    assert sm.sequences_equal(back, s)
    assert back.cycle_order == 2


def test_json_round_trip_axis_form():
    s = catalog.p46()
    back = sm.from_json_dict(sm.to_json_dict(s))
    assert sm.sequences_equal(back, s)


def test_json_latitude_form():
    el = _phase_element(np.pi / 2, 0.3, 0.4)
    s = sm.RotationSequence("lat", (el,))
    d = sm.to_json_dict(s)
    assert d["elements"][0]["latitude"] == 0.4
    assert sm.sequences_equal(sm.from_json_dict(d), s)


def test_sequences_equal_tolerances():
    a = catalog.f1()
    b = sm.global_phase_shift(a, 1e-12)
    c = sm.global_phase_shift(a, 1e-3)
    assert sm.sequences_equal(a, b)
    assert not sm.sequences_equal(a, c)
    assert not sm.sequences_equal(a, catalog.t1())


@pytest.mark.parametrize("doc", [
    5, [], {"elements": 5}, {"elements": [1.0]}, {"name": "x"},
    {"elements": [{"beta": [1.0], "phase": 0.0}]},
    {"cycle_order": "2", "elements": [{"beta": np.pi, "phase": 0.0}]},
    # non-finite phase or latitude, and an axis whose squared norm overflows,
    # end in the one ValueError without a numpy RuntimeWarning first
    {"elements": [{"beta": np.pi, "phase": np.inf}]},
    {"elements": [{"beta": np.pi, "phase": "-inf"}]},
    {"elements": [{"beta": np.pi, "phase": 0.0, "latitude": np.inf}]},
    {"elements": [{"beta": np.pi, "phase": 0.0, "latitude": np.nan}]},
    {"elements": [{"beta": np.pi, "axis": [1e300, 1e300, 0.0]}]},
    # strings, bools and nulls are not read as numbers
    {"elements": [{"beta": "3.14", "phase": 0.0}]},
    {"elements": [{"beta": np.pi, "phase": False}]},
    {"elements": [{"beta": np.pi, "axis": [1.0, None, 0.0]}]},
    # a missing flip angle or phase is a ValueError too, not a KeyError
    {"elements": [{"phase": 0.0}]},
    {"elements": [{"beta": np.pi}]},
])
def test_from_json_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        sm.from_json_dict(doc)


# ---------------------------------------------------------------------------
# reference: the element-built forms that the one array constructor replaced
# ---------------------------------------------------------------------------

def _ref_axis_from_phase(phi, latitude=0.0):
    """The scalar axis kernel, one element at a time."""
    c = np.cos(latitude)
    return np.array([c * np.cos(phi), c * np.sin(phi), np.sin(latitude)])


def _elements(s):
    """The ``PulseElement`` records of ``s``, its stored rows and provenance
    as they are: the element form the references below are built from.  No
    element check runs, since normalizing a unit row again moves its last
    bits."""
    els = []
    for b, a, p, t in zip(s.betas.tolist(), s.axes, s._given_phases.tolist(),
                          s._given_latitudes.tolist()):
        el = sm.PulseElement.__new__(sm.PulseElement)
        vars(el).update(beta=b, axis=a, phase=None if math.isnan(p) else p,
                        latitude=None if math.isnan(t) else t)
        els.append(el)
    return tuple(els)


def _phase_element(beta, phi, latitude=0.0):
    return sm.PulseElement(beta, _ref_axis_from_phase(phi, latitude), phase=phi, latitude=latitude)


def _ref_phase_value(el):
    return el.phase if el.phase is not None else math.atan2(el.axis[1], el.axis[0])


def _ref_infer_cycle_order(betas, m_max=64):
    """The scan over m = 1..m_max."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    b = float(betas[0])
    if not math.isfinite(b) or np.any(np.abs(betas - b) >= sm.BETA_MATCH_TOL):
        return None
    for m in range(1, m_max + 1):
        if abs(b - 2.0 * np.pi / m) < sm.BETA_MATCH_TOL:
            return m
    return None


def _ref_sequence_from_phases(name, betas, phases, latitudes=None):
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    if betas.size == 1:
        betas = np.full(phases.shape, betas[0])
    latitudes = (np.zeros_like(phases) if latitudes is None
                 else np.atleast_1d(np.asarray(latitudes, dtype=float)))
    els = tuple(_phase_element(b, p, t) for b, p, t in zip(betas, phases, latitudes))
    return sm.RotationSequence(name, els, _ref_infer_cycle_order(betas))


def _ref_with_name(s, name):
    return sm.RotationSequence(name, _elements(s), s.cycle_order)


def _ref_phases(s):
    return np.array([_ref_phase_value(el) for el in _elements(s)])


def _ref_reverse(s):
    return sm.RotationSequence(f"rev({s.name})", tuple(_elements(s)[::-1]), s.cycle_order)


def _ref_cyclic_permute(s, shift):
    k = shift % len(s)
    return sm.RotationSequence(f"cyc{shift}({s.name})", _elements(s)[k:] + _elements(s)[:k],
                               s.cycle_order)


def _ref_global_phase_shift(s, dphi):
    axes = rc.rotate_about_z(s.axes, dphi)
    els = tuple(sm.PulseElement(el.beta, ax, phase=None if el.phase is None else el.phase + dphi,
                                latitude=el.latitude) for el, ax in zip(_elements(s), axes))
    return sm.RotationSequence(f"{s.name}+{dphi:.6g}", els, s.cycle_order)


def _ref_phase_scale(s, k):
    els = tuple(_phase_element(el.beta, int(k) * _ref_phase_value(el)) for el in _elements(s))
    return sm.RotationSequence(f"{s.name}*k{k}", els, s.cycle_order)


def _ref_nest(outer, inner):
    inner_fwd = [(el.beta, _ref_phase_value(el)) for el in _elements(inner)]
    els = []
    for j, out_el in enumerate(_elements(outer)):
        for beta, phi in (inner_fwd[::-1] if j % 2 == 1 else inner_fwd):
            els.append(_phase_element(beta, _ref_phase_value(out_el) + phi))
    return sm.RotationSequence(f"{outer.name}({inner.name})", tuple(els),
                               _ref_infer_cycle_order([el.beta for el in els]))


def _ref_riffle(s):
    els = []
    for el in _elements(s):
        half = _phase_element(el.beta / 2.0, _ref_phase_value(el))
        els.extend([half, half])
    return sm.RotationSequence(f"{s.name}v{s.name}", tuple(els),
                               _ref_infer_cycle_order([el.beta for el in els]))


def _ref_scale_betas(s, scale):
    els = tuple(sm.PulseElement(el.beta * scale, el.axis, phase=el.phase, latitude=el.latitude)
                for el in _elements(s))
    return sm.RotationSequence(s.name, els, None)


def test_json_phase_writes_phases_a_few_ulps_below_two_pi_as_zero():
    two_pi = 2.0 * np.pi
    below = [two_pi]
    for _ in range(5):
        below.append(float(np.nextafter(below[-1], 0.0)))
    assert [sm._json_phase(p) for p in below] == [0.0] * 5 + [below[5]]
    # tiny negative phases reduce to 2pi or just below it
    for phase in (-1e-17, -4e-16, -1e-15, -3e-15, -0.0, 0.0, two_pi, 3 * two_pi):
        assert sm._json_phase(phase) == 0.0
    assert sm._json_phase(-4e-15) == -4e-15 % two_pi > 6.28
    assert sm._json_phase(np.pi) == np.pi and sm._json_phase(-np.pi) == np.pi
    assert sm._json_phase(two_pi + 1.0) == (two_pi + 1.0) % two_pi


def _ref_json_phase(phase):
    """A phase in [0, 2pi), with those within 4 ulps below 2pi written as 0."""
    reduced = phase % (2.0 * np.pi)
    return 0.0 if 2.0 * np.pi - reduced <= 4 * math.ulp(2.0 * np.pi) else reduced


def _ref_to_json_dict(s):
    elements = []
    for el in _elements(s):
        if abs(el.axis[2]) < 1e-12:
            d = {"beta": el.beta, "phase": _ref_json_phase(_ref_phase_value(el))}
        elif el.phase is not None and el.latitude is not None:
            d = {"beta": el.beta, "phase": _ref_json_phase(el.phase), "latitude": el.latitude}
        else:
            d = {"beta": el.beta, "axis": [float(c) for c in el.axis]}
        elements.append(d)
    out = {"name": s.name, "elements": elements}
    if s.cycle_order is not None:
        out["cycle_order"] = s.cycle_order
    return out


def _ref_from_json_dict(d):
    els = []
    for ed in sm.json_elements(d):
        beta = float(ed["beta"])
        if "axis" in ed:
            els.append(sm.PulseElement(beta, np.asarray(ed["axis"], dtype=float)))
        else:
            els.append(_phase_element(beta, float(ed["phase"]), float(ed.get("latitude", 0.0))))
    return sm.RotationSequence(d.get("name", "unnamed"), tuple(els), d.get("cycle_order"))


def _ref_compensated_cycle_pulses():
    block = catalog.p34()
    return sm.RotationSequence("vmas_compensated", _elements(block) * 3, block.cycle_order)


def _same(got, want):
    """Names, cycle orders, array bytes, phases and JSON text all equal."""
    assert (got.name, got.cycle_order) == (want.name, want.cycle_order)
    assert got.betas.tobytes() == want.betas.tobytes()
    assert got.axes.tobytes() == want.axes.tobytes()
    assert got.phases.tobytes() == _ref_phases(want).tobytes()
    assert json.dumps(sm.to_json_dict(got)) == json.dumps(_ref_to_json_dict(want))


def _catalog_specs():
    args = {"n[,k]": [(3,), (5,), (7, 2), (9,), (11, 3)],
            "m,n[,k]": [(3, 3), (3, 5), (5, 3, 2)]}
    for entry in catalog.ENTRIES.values():
        for a in args.get(entry.params, [()]):
            yield f"{entry.name}({','.join(map(str, a))})" if a else entry.name


DD_SPECS = ["xy4", "mlev4", "u5", "kdd20", "whh4", "vmas", "udd(5)"]

MIXED_DOC = {"name": "mixed", "elements": [
    {"beta": 1.1, "phase": 0.3, "latitude": 0.7}, {"beta": 2.2, "axis": [1.0, 2.0, -0.5]},
    {"beta": 0.7, "phase": -4.0}, {"beta": 3.0, "axis": [0.0, 0.0, 2.0]},
    {"beta": 1.3, "phase": 1.0, "latitude": -1.2}, {"beta": 0.4, "axis": [3.0, -1.0, 0.0]}]}


def _op_inputs():
    """Catalog entries, random phase, latitude and axis sequences, and JSON input."""
    rng = np.random.default_rng(131)
    out = [catalog.named(spec) for spec in _catalog_specs()]
    for n in range(1, 9):
        out.append(sm.sequence_from_phases(f"p{n}", rng.uniform(0.2, 6.0), rng.uniform(-9, 9, n)))
        out.append(sm.sequence_from_phases(f"l{n}", rng.uniform(0.2, 6.0, n), rng.uniform(-9, 9, n),
                                           rng.uniform(-1.5, 1.5, n)))
        out.append(sm.sequence_from_axes(f"a{n}", rng.uniform(0.2, 6.0, n),
                                         rng.normal(size=(n, 3)) * 3.0))
    out.append(sm.from_json_dict(MIXED_DOC))
    return out


def test_catalog_entries_equal_element_built_references(monkeypatch):
    new = {spec: catalog.named(spec) for spec in _catalog_specs()}
    new_dd = {spec: catalog.named_dd(spec).pulses for spec in DD_SPECS}
    monkeypatch.setattr(catalog, "sequence_from_phases", _ref_sequence_from_phases)
    monkeypatch.setattr(ddsim, "sequence_from_phases", _ref_sequence_from_phases)
    monkeypatch.setattr(sm, "nest", _ref_nest)
    monkeypatch.setattr(sm, "riffle", _ref_riffle)
    monkeypatch.setattr(sm.RotationSequence, "with_name", _ref_with_name)
    for spec, got in new.items():
        _same(got, catalog.named(spec))
    for spec, got in new_dd.items():
        _same(got, catalog.named_dd(spec).pulses)
    assert len(new) == 33


def test_structural_ops_equal_element_built_references():
    inputs = _op_inputs()
    for i, s in enumerate(inputs):
        _same(sm.reverse(s), _ref_reverse(s))
        _same(s.with_name("renamed"), _ref_with_name(s, "renamed"))
        for shift in (0, 1, 2, -3, 7):
            _same(sm.cyclic_permute(s, shift), _ref_cyclic_permute(s, shift))
        for dphi in (0.3, -2.5, 1e-12):
            _same(sm.global_phase_shift(s, dphi), _ref_global_phase_shift(s, dphi))
        for scale in (0.9, 1.0, 1.37):
            _same(sm.scale_betas(s, scale), _ref_scale_betas(s, scale))
        if s.is_equatorial():
            _same(sm.riffle(s), _ref_riffle(s))
            for k in (1, 2, -3):
                _same(sm.phase_scale(s, k), _ref_phase_scale(s, k))
            for inner in inputs[i % 5::9]:
                if inner.is_equatorial():
                    _same(sm.nest(s, inner), _ref_nest(s, inner))
    _same(vm.compensated_cycle().pulses, _ref_compensated_cycle_pulses())


def test_json_input_equals_element_built_reference():
    rng = np.random.default_rng(132)
    docs = [MIXED_DOC, {"elements": [{"beta": 0.5, "axis": [0.0, 1e-7, 1.0]}]},
            {"name": "m4", "cycle_order": 4, "elements": [
                {"beta": np.pi / 2, "phase": 0.1}, {"beta": np.pi / 2, "axis": [0.3, 0.1, 0.2]},
                {"beta": np.pi / 2, "phase": 2.0, "latitude": 0.5}]}]
    for n in range(1, 9):
        rows = [{"beta": float(b), "phase": float(p), "latitude": float(t)} if rng.random() < 0.5
                else {"beta": float(b), "axis": rng.normal(size=3).tolist()}
                for b, p, t in zip(rng.uniform(0.1, 6.0, n), rng.uniform(-9, 9, n),
                                   rng.uniform(-1.57, 1.57, n))]
        docs.append({"name": f"j{n}", "elements": rows})
    docs += [sm.to_json_dict(s) for s in _op_inputs()]
    for doc in docs:
        got, want = sm.from_json_dict(doc), _ref_from_json_dict(doc)
        _same(got, want)
        assert got._given_phases.tobytes() == want._given_phases.tobytes()
        assert got._given_latitudes.tobytes() == want._given_latitudes.tobytes()


def _ref_to_degrees_dict(d):
    """The document with its degrees converted to radians, element by
    element, as the CLI rebuilt it for ``--deg``."""
    els = []
    for ed in sm.json_elements(d):
        e = {"beta": np.radians(ed["beta"])}
        if "axis" in ed:
            e["axis"] = ed["axis"]
        else:
            e["phase"] = np.radians(ed["phase"])
            if "latitude" in ed:
                e["latitude"] = np.radians(ed["latitude"])
        els.append(e)
    out = {"name": d.get("name", "unnamed"), "elements": els}
    if "cycle_order" in d:
        out["cycle_order"] = d["cycle_order"]
    return out


def test_json_input_in_degrees_equals_the_converted_document():
    rng = np.random.default_rng(134)
    docs = [MIXED_DOC, {"name": "m4", "cycle_order": 4, "elements": [
        {"beta": 90, "phase": 10}, {"beta": 90.0, "axis": [0.3, 0.1, 0.2]},
        {"beta": 90, "phase": 200.0, "latitude": 30}]}]
    for n in range(1, 9):
        docs.append({"elements": [
            {"beta": float(b), "phase": float(p), "latitude": float(t)} if rng.random() < 0.5
            else {"beta": float(b), "axis": rng.normal(size=3).tolist()}
            for b, p, t in zip(rng.uniform(1.0, 360.0, n), rng.uniform(-720, 720, n),
                               rng.uniform(-90, 90, n))]})
    for doc in docs:
        _same(sm.from_json_dict(doc, deg=True), sm.from_json_dict(_ref_to_degrees_dict(doc)))


def test_vectorized_axis_from_phase_equals_scalar_kernel():
    rng = np.random.default_rng(133)
    lists = [(s.phases, s._given_latitudes) for s in map(catalog.named, _catalog_specs())
             if not np.isnan(s._given_phases).any()]
    lists += [(rng.uniform(-20, 20, n), rng.uniform(-np.pi / 2, np.pi / 2, n))
              for n in rng.integers(1, 40, 39)]
    assert len(lists) > 60
    for phases, lats in lists:
        want = np.array([_ref_axis_from_phase(p, t) for p, t in zip(phases, lats)])
        assert rc.axis_from_phase(phases, lats).tobytes() == want.tobytes()
        assert rc.axis_from_phase(phases).tobytes() == np.array(
            [_ref_axis_from_phase(p) for p in phases]).tobytes()


def test_axis_from_phase_names_the_first_bad_latitude():
    with pytest.raises(ValueError, match=r"^latitude 2\.0 outside"):
        rc.axis_from_phase([0.0, 1.0, 2.0], [0.0, 2.0, -3.0])
    with pytest.raises(ValueError, match="^latitude nan outside"):
        rc.axis_from_phase(0.0, np.nan)


def test_library_builds_no_pulse_elements(built_elements):
    seqs = [catalog.named(spec) for spec in _catalog_specs()]
    seqs += [catalog.named_dd(spec).pulses for spec in DD_SPECS]
    seqs.append(vm.compensated_cycle().pulses)
    seqs.append(sm.from_json_dict(MIXED_DOC))
    seqs.append(sm.sequence_from_phases("l", np.pi, [0.1, 0.2], [0.3, -0.4]))
    assert len(built_elements) == 0
    f1, u5 = catalog.f1(), catalog.u5()
    for s in seqs:
        sm.reverse(s), sm.cyclic_permute(s, 2), sm.global_phase_shift(s, 0.4)
        sm.scale_betas(s, 1.1), s.with_name("x"), s.with_axes(s.axes), s.phases
        sm.from_json_dict(sm.to_json_dict(s))
    for s in (f1, u5):
        sm.phase_scale(s, 3), sm.nest(f1, s), sm.riffle(s)
    assert len(built_elements) == 0


def test_infer_cycle_order_equals_the_scan():
    cases = [0.0, -0.0, -1.0, -np.pi, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 4 * np.pi, 20.0]
    for m in range(1, 66):
        b = 2.0 * np.pi / m
        cases += [b, b + 1e-13, b - 1e-13, b + 2e-12, b - 2e-12]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in cases:
            assert sm.infer_cycle_order(b) == _ref_infer_cycle_order(b), b
            assert sm.infer_cycle_order([b, b]) == _ref_infer_cycle_order([b, b]), b
            assert sm.infer_cycle_order([b, b + 1.0]) is None
            for m_max in (0, 1, 8):
                assert sm.infer_cycle_order(b, m_max) == _ref_infer_cycle_order(b, m_max), b
    assert sm.infer_cycle_order(2.0 * np.pi / 64) == 64
    assert sm.infer_cycle_order(2.0 * np.pi / 65) is None


# ---------------------------------------------------------------------------
# reference: the per-row CSV writers that the one writer, _csv_text, replaced
# ---------------------------------------------------------------------------

CSV_VALUES = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                       -1.0 / 3.0, 0.1, 1e17, 123456789.0, 0.0, -2.5e-300])


def _csv_cells(n_cols: int) -> np.ndarray:
    """(len(CSV_VALUES), n_cols) cells; every column holds every value."""
    return np.stack([np.roll(CSV_VALUES, -k) for k in range(n_cols)], axis=1)


def _complex(re, im) -> np.ndarray:
    """re + i im without the nan that 1j * inf makes."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _ref_fmt(x: float) -> str:
    return f"{x:.17g}"


def _ref_profile_csv(grid, qs, finals, errs) -> str:
    rows = np.column_stack([grid, qs, finals, errs]).tolist()
    lines = ["beta_prime,q,vx,vy,vz,err_deg"]
    lines += [",".join(["%.17g"] * 6) % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _ref_map_to_csv(cm) -> str:
    cells = ",".join(["%.17g"] * cm.beta_scales.size)
    lines = ["omega\\beta_scale," + cells % tuple(cm.beta_scales.tolist())]
    row_fmt = "%.17g," + cells
    lines += [row_fmt % (w, *row) for w, row in zip(cm.omegas.tolist(), cm.values.tolist())]
    return "\n".join(lines) + "\n"


def _ref_sweep_csv(beta_scale_grid) -> str:
    lines = ["beta_scale,max_abs_kappa20,compensated,"
             + ",".join(f"re_mu{m},im_mu{m}" for m in range(-2, 3))]
    fmt = "%.17g,%.17g,%d," + ",".join(["%.17g,%.17g"] * 5)
    for comp in (False, True):
        for row in vm.mas_kappa_sweep(comp, beta_scale_grid):
            parts = [c for z in row.kappa_row.tolist() for c in (z.real, z.imag)]
            lines.append(fmt % (row.beta_scale, row.max_abs, comp, *parts))
    return "\n".join(lines) + "\n"


def _ref_kappa_csv(table) -> str:
    """One row per cell, as the table's per-cell generator gave them."""
    lam = table.lam
    lines = ["lambda,mu,mu_prime,re,im"]
    for mu in range(-lam, lam + 1):
        for mup in range(-lam, lam + 1):
            z = table.matrix[mu + lam, mup + lam]
            lines.append(f"{lam},{mu},{mup},{_ref_fmt(z.real)},{_ref_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def _ref_trajectory_csv(path) -> str:
    lines = ["step,vx,vy,vz"]
    lines += [f"{i}," + ",".join(_ref_fmt(c) for c in v) for i, v in enumerate(path)]
    return "\n".join(lines) + "\n"


def test_csv_writer_prints_integer_columns_as_percent_d():
    ints = [-2 ** 53, -(10 ** 15) - 1, -2, -1, 0, 1, 7, 123456789, 2 ** 53]
    text = sm._csv_text("i,x", [np.array(ints), np.full(len(ints), -0.0)])
    assert text == "i,x\n" + "".join("%d,-0\n" % i for i in ints)


def test_profile_csv_equals_the_per_row_writer(monkeypatch):
    cells = _csv_cells(6)
    grid, qs, finals, errs = cells[:, 0], cells[:, 1], cells[:, 2:5], cells[:, 5]
    monkeypatch.setattr(profiles, "_profile_arrays", lambda s, e_xi, g: (grid, None, finals, qs))
    monkeypatch.setattr(profiles, "_errors_deg", lambda quats, target: errs)
    text = profiles.profile_csv(catalog.f1())
    assert text == _ref_profile_csv(grid, qs, finals, errs)
    assert "\n-0,nan,inf,-inf,4.9406564584124654e-324,1.7976931348623157e+308\n" in text


def test_map_to_csv_equals_the_per_row_writer():
    cells = _csv_cells(len(CSV_VALUES) + 1)
    cm = ddsim.CentroidMap(cells[:, 0], CSV_VALUES[::-1].copy(), cells[:, 1:], 1.0)
    assert ddsim.map_to_csv(cm) == _ref_map_to_csv(cm)


def test_sweep_csv_equals_the_per_row_writer(monkeypatch):
    cells = _csv_cells(12)

    def sweep(compensated, grid):
        rows = np.roll(cells, int(compensated), axis=0)
        kappa_rows = _complex(rows[:, 2:7], rows[:, 7:12])
        return list(map(vm.MasSweepRow, rows[:, 0].tolist(), kappa_rows, rows[:, 1].tolist()))

    monkeypatch.setattr(vm, "mas_kappa_sweep", sweep)
    assert vm.sweep_csv([1.0]) == _ref_sweep_csv([1.0])


def test_cli_kappa_csv_equals_the_per_row_writer(monkeypatch, capsys):
    cells = _csv_cells(5).T.ravel()[:50]
    table = averaging.KappaTable(2, _complex(cells[:25], cells[25:]).reshape(5, 5))
    monkeypatch.setattr(averaging, "kappa", lambda dd, lam, scale: table)
    assert cli.main(["kappa", "xy4", "--lambda", "2"]) == 0
    out = capsys.readouterr().out
    assert out == _ref_kappa_csv(table)
    assert out.split("\n")[1].startswith("2,-2,-2,")   # negative integer columns


def test_cli_trajectory_csv_equals_the_per_row_writer(monkeypatch, capsys):
    path = _csv_cells(3)
    monkeypatch.setattr(profiles, "trajectory", lambda s, v0, beta_prime: path)
    assert cli.main(["trajectory", "f1"]) == 0
    assert capsys.readouterr().out == _ref_trajectory_csv(path)
