"""Toggling map: base cases, cyclicity, closed form, inverse, phase maps."""

import tracemalloc
import warnings

import numpy as np
import pytest

from test_seqmodel import _value_id, exact_net_quaternions
from togglekit import catalog, rotcore as rc, search as se, seqmodel as sm, toggling as tg

PHI = np.arccos(-0.25)


def wrap(x):
    return np.abs(np.angle(np.exp(1j * np.asarray(x))))


def random_sequence(rng, n, beta=None):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    betas = np.full(n, beta) if beta is not None else rng.uniform(0.2, 3.0, n)
    return sm.sequence_from_axes("rand", betas, axes)


def test_single_element_is_fixed_point():
    s = random_sequence(np.random.default_rng(1), 1)
    assert sm.sequences_equal(tg.toggling_map(s), s)


def test_two_element_pi_example():
    s = sm.sequence_from_axes("xy", np.pi, np.array([rc.E_X, rc.E_Y]))
    t = tg.toggling_map(s)
    assert np.allclose(t.axes[0], rc.E_X, atol=1e-15)
    assert np.allclose(t.axes[1], -rc.E_Y, atol=1e-15)


def test_nb1_maps_to_f1_plus_offset():
    t = tg.toggling_map(catalog.nb1_tpg())
    want = catalog.f1().phases + 4 * PHI
    got = np.arctan2(t.axes[:, 1], t.axes[:, 0])
    assert np.max(wrap(got - want)) < 1e-12
    assert np.max(np.abs(t.axes[:, 2])) < 1e-15


def test_iterate_zero_returns_input():
    s = random_sequence(np.random.default_rng(2), 5)
    assert sm.sequences_equal(tg.toggling_map_iter(s, 0), s)


def test_pi_sequences_return_after_two():
    s = random_sequence(np.random.default_rng(3), 6, beta=np.pi)
    assert np.max(np.abs(tg.toggling_map_iter(s, 2).axes - s.axes)) < 1e-12


def test_third_roots_return_after_three():
    s = random_sequence(np.random.default_rng(4), 6, beta=2 * np.pi / 3)
    assert np.max(np.abs(tg.toggling_map_iter(s, 3).axes - s.axes)) < 1e-12


def test_closed_form_matches_iteration_single_step():
    s = random_sequence(np.random.default_rng(5), 7)
    assert np.max(np.abs(tg.closed_form_toggling(s, 1).axes
                         - tg.toggling_map(s).axes)) < 1e-12


def test_closed_form_identity_at_cycle():
    s = random_sequence(np.random.default_rng(6), 5, beta=2 * np.pi / 4)
    assert np.max(np.abs(tg.closed_form_toggling(s, 4).axes - s.axes)) < 1e-12


def test_mixed_angles_return_at_lcm():
    rng = np.random.default_rng(7)
    axes = rng.normal(size=(5, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    betas = np.array([2 * np.pi / 3, np.pi / 2, np.pi / 2, 2 * np.pi / 3, np.pi / 2])
    s = sm.sequence_from_axes("mix", betas, axes)
    assert np.max(np.abs(tg.toggling_map_iter(s, 12).axes - s.axes)) < 1e-10
    for m in (2, 5, 9):
        assert np.max(np.abs(tg.closed_form_toggling(s, m).axes
                             - tg.toggling_map_iter(s, m).axes)) < 1e-10


def test_inverse_round_trip_random():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        s = random_sequence(rng, n)
        t = tg.toggling_map(s)
        back = tg.inverse_toggling_map(t)
        assert np.max(np.abs(back.axes - s.axes)) < 1e-10
        fwd = tg.toggling_map(tg.inverse_toggling_map(s))
        assert np.max(np.abs(fwd.axes - s.axes)) < 1e-10


def reference_toggle_axes(axes, angles):
    """toggle_axes as it ran before it worked on components: the conjugated
    prefixes through quat_apply, then np.linalg.norm; kept as the reference."""
    prefixes = sm.prefix_quaternions(axes, angles)[..., :-1, :]
    out = rc.quat_apply(rc.quat_conj(prefixes), axes)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


@pytest.mark.parametrize("lead", [(), (1,), (9,), (25, 1)], ids=str)
def test_toggle_axes_bit_identical_to_quat_apply_form(lead):
    rng = np.random.default_rng([39, *lead])
    axes = random_unit_vectors(rng, lead + (12,))
    angles = [rng.uniform(0.0, 2 * np.pi, 12), np.linspace(0.0, 2.0, 21)[:, None] * np.pi]
    for a in angles if lead == (25, 1) else angles[:1] + [rng.uniform(-7, 7, lead + (12,))]:
        got = tg.toggle_axes(axes, a)
        assert got.tobytes() == reference_toggle_axes(axes, a).tobytes()


def reference_inverse_toggling_map(s):
    """The per-element loop that inverse_toggling_map ran before
    inverse_toggle_axes, kept as the reference."""
    f = s.axes
    betas = s.betas
    out = np.empty_like(f)
    q = rc.quat_identity()
    out[0] = f[0]
    for i in range(1, len(f)):
        step = rc.quat_from_axis_angle(out[i - 1], betas[i - 1])
        q = rc.quat_mul(step, q)
        q = q / np.linalg.norm(q)
        v = rc.quat_apply(q, f[i])
        out[i] = v / np.linalg.norm(v)
    return out


def test_inverse_toggling_map_matches_scalar_loop():
    rng = np.random.default_rng(31)
    for n in range(1, 11):
        for _ in range(5):
            s = random_sequence(rng, n)
            got = tg.inverse_toggling_map(s).axes
            assert np.max(np.abs(got - reference_inverse_toggling_map(s))) < 1e-14


def random_unit_vectors(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_inverse_toggle_axes_rows_equal_batch_of_one():
    rng = np.random.default_rng(32)
    f = random_unit_vectors(rng, (7, 6))
    angles = rng.uniform(0.2, 3.0, (7, 6))
    axes, nets = tg.inverse_toggle_axes(f, angles)
    assert axes.shape == (7, 6, 3) and nets.shape == (7, 4)
    for j in range(7):
        row_axes, row_net = tg.inverse_toggle_axes(f[j], angles[j])
        assert np.array_equal(axes[j], row_axes) and np.array_equal(nets[j], row_net)


@pytest.mark.parametrize("angle_shape", [(6,), (7, 6)])
def test_inverse_toggle_axes_round_trip_and_net(angle_shape):
    rng = np.random.default_rng(33)
    f = random_unit_vectors(rng, (7, 6))
    angles = rng.uniform(0.2, 3.0, angle_shape)
    axes, nets = tg.inverse_toggle_axes(f, angles)
    assert np.max(np.abs(tg.toggle_axes(axes, angles) - f)) < 1e-12
    ref = sm.prefix_quaternions(axes, angles)[..., -1, :]
    sign = np.sign(np.sum(nets * ref, axis=-1, keepdims=True))
    assert np.max(np.abs(nets - sign * ref)) < 1e-14


def _cross_form_apply(q, v):
    """quat_apply in its np.cross form."""
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def reference_inverse_toggle_axes(toggled, angles):
    """The array-form loop inverse_toggle_axes ran before its chain moved
    onto components, kept as the reference."""
    toggled = np.asarray(toggled, dtype=float)
    angles = np.broadcast_to(np.asarray(angles, dtype=float), toggled.shape[:-1])
    axes = np.empty_like(toggled)
    q = rc.quat_identity(toggled.shape[:-2])
    for i in range(toggled.shape[-2]):
        v = toggled[..., i, :]
        if i > 0:
            v = _cross_form_apply(q, v)
            v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        axes[..., i, :] = v
        q = rc.quat_mul(rc.quat_from_axis_angle(v, angles[..., i]), q)
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return axes, q


# inverse_toggle_axes against the forward reconstructions it ran before it
# became -T(-f); worst measured 4.3e-15 on axes and 1.9e-15 on nets (n = 40)
INVERSE_AGREE_TOL = 1e-14


def _assert_inverse_agrees(got, want, shape):
    (axes, net), (want_axes, want_net) = got, want
    assert axes.shape == shape + (3,) and net.shape == shape[:-1] + (4,)
    assert np.max(np.abs(axes - want_axes), initial=0.0) <= INVERSE_AGREE_TOL
    assert np.max(np.abs(net - want_net)) <= INVERSE_AGREE_TOL


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("lead", [(), (1,), (5,), (25, 21)], ids=str)
def test_inverse_toggle_axes_agrees_with_array_loop(n, lead):
    rng = np.random.default_rng([37, n, *lead])
    f = random_unit_vectors(rng, lead + (n,))
    strided = np.swapaxes(np.swapaxes(f, -1, -2).copy(), -1, -2)   # (3, n) storage
    assert n < 2 or not strided.flags.c_contiguous
    shared = rng.uniform(0.0, 2 * np.pi, 2 * n)[::2]                # (n,), every other value
    per_row = rng.uniform(-2 * np.pi, 2 * np.pi, lead + (n,))
    for toggled in (f, strided):
        for angles in (shared, per_row):
            _assert_inverse_agrees(tg.inverse_toggle_axes(toggled, angles),
                                   reference_inverse_toggle_axes(toggled, angles), lead + (n,))


def reference_broadcast_trig_inverse_toggle_axes(toggled, angles):
    """The component chain inverse_toggle_axes ran before cos and sin moved
    onto the angles' own shape: the trig over the broadcast (..., n) angles,
    and a batch of one stepping on 1-element arrays; kept as the reference."""
    toggled = np.asarray(toggled, dtype=float)
    half = 0.5 * np.broadcast_to(np.asarray(angles, dtype=float), toggled.shape[:-1])
    cos_h, sin_h = np.cos(half).T, np.sin(half).T
    fx, fy, fz = toggled.T
    axes = np.empty_like(toggled)
    ex, ey, ez = axes.T
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    for i in range(toggled.shape[-2]):
        vx, vy, vz = fx[i], fy[i], fz[i]
        if i > 0:
            vx, vy, vz = rc._unit3(*rc._apply3(w, x, y, z, vx, vy, vz))
        ex[i], ey[i], ez[i] = vx, vy, vz
        s = sin_h[i]
        w, x, y, z = rc._unit4(*rc._mul4(cos_h[i], s * vx, s * vy, s * vz, w, x, y, z))
    q = np.empty(toggled.shape[:-2] + (4,))
    q.T[0], q.T[1], q.T[2], q.T[3] = w, x, y, z
    return axes, q


@pytest.mark.parametrize("lead", [(), (1,), (1, 1), (300,), (4, 5)], ids=str)
def test_inverse_toggle_axes_agrees_with_broadcast_trig(lead):
    # search passes one scalar beta for every candidate tuple
    rng = np.random.default_rng([38, *lead])
    f = random_unit_vectors(rng, lead + (8,))
    for angles in (2 * np.pi / 3, np.pi, rng.uniform(0.0, 2 * np.pi, 8),
                   rng.uniform(0.0, 2 * np.pi, lead + (8,))):
        _assert_inverse_agrees(tg.inverse_toggle_axes(f, angles),
                               reference_broadcast_trig_inverse_toggle_axes(f, angles), lead + (8,))


# worst measured 1.2e-15 at n = 80; the forward reconstruction reached 2.0e-15
EXACT_NET_TOL = 1.5e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 40, 80])
@pytest.mark.parametrize("beta", [np.pi, 2 * np.pi / 3, np.pi / 2, 2 * np.pi / 5, 1.2345],
                         ids=["m2", "m3", "m4", "m5", "generic"])
def test_inverse_toggle_nets_agree_with_a_50_digit_product(n, beta):
    # U_n of the recovered axes is R(beta, f_0) ... R(beta, f_n-1) of the toggled ones
    rng = np.random.default_rng([91, n, round(1e4 * beta)])
    f = random_unit_vectors(rng, (4, n))
    _, nets = tg.inverse_toggle_axes(f, beta)
    exact = np.array([exact_net_quaternions(row[::-1], np.array([0.5 * beta]))[0] for row in f])
    assert np.max(np.abs(nets - exact)) <= EXACT_NET_TOL


def _chain_outputs(axes, angles):
    """prefix_quaternions, toggle_axes and inverse_toggle_axes (axes, net) of one input."""
    return (sm.prefix_quaternions(axes, angles), tg.toggle_axes(axes, angles),
            *tg.inverse_toggle_axes(axes, angles))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_batch_of_one_equals_stack_rows(n):
    # one sequence steps on Python floats, a stack on arrays: same bytes
    rng = np.random.default_rng([41, n])
    k = 3
    stack = random_unit_vectors(rng, (5, n))
    strided = np.swapaxes(np.swapaxes(stack, -1, -2).copy(), -1, -2)   # (3, n) storage
    assert n < 2 or not strided[k].flags.c_contiguous
    shared = rng.uniform(0.0, 2 * np.pi, 2 * n)[::2]                  # (n,), every other value
    per_row = rng.uniform(-2 * np.pi, 2 * np.pi, (5, n))
    for axes in (stack, strided):
        for one_angles, stack_angles in ((2 * np.pi / 3, 2 * np.pi / 3), (shared, shared),
                                         (per_row[k], per_row)):
            one = _chain_outputs(axes[k], one_angles)
            row = _chain_outputs(axes[k][None], np.asarray(one_angles)[None])
            rows = _chain_outputs(axes, stack_angles)
            assert [a.shape for a in one] == [(n + 1, 4), (n, 3), (n, 3), (4,)]
            for got, as_one, as_rows in zip(one, row, rows):
                assert got.flags.c_contiguous and as_one.shape == (1,) + got.shape
                assert got.tobytes() == as_one[0].tobytes() == as_rows[k].tobytes()
            if n == 0:
                assert np.array_equal(one[0], [[1.0, 0.0, 0.0, 0.0]])
                assert np.array_equal(one[3], [1.0, 0.0, 0.0, 0.0])


def test_batch_of_one_broadcasts_one_axis_over_the_elements():
    axis, angles = random_unit_vectors(np.random.default_rng(42), (1,)), np.linspace(0.5, 2.5, 6)
    axes = np.repeat(axis, 6, axis=0)
    for got, want in zip(_chain_outputs(axis, angles), _chain_outputs(axes, angles)):
        assert got.tobytes() == want.tobytes()


def _octahedron_search_stack():
    """The (3904, 8, 3) stack of toggled axes, and its flip angle, of the
    octahedron n = 8, m = 4 equatorial-pi search: the vertices of the walk's
    tuples."""
    spec = se.SearchSpec(se.octahedron(), 8, 4, "equatorial_pi")
    f = spec.axis_set.vertices[se._walk(spec)[0]]
    assert f.shape == (3904, 8, 3)
    return f, spec.beta


# traced peak over the bytes returned; with one batched unrotation pass
# after the chain, both toggling directions peaked at 7x
@pytest.mark.parametrize("fn, bound", [(tg.toggle_axes, 4.0), (tg.inverse_toggle_axes, 4.0),
                                       (sm.prefix_quaternions, 2.5)],
                         ids=["toggle_axes", "inverse_toggle_axes", "prefix_quaternions"])
def test_chain_peak_memory_on_the_octahedron_search_stack(fn, bound):
    f, beta = _octahedron_search_stack()
    fn(f, beta)
    tracemalloc.start()
    try:
        out = fn(f, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


BAD_COUNTS = [
    (tg.closed_form_toggling, 2.5), (tg.closed_form_toggling, True), (tg.closed_form_toggling, -1),
    (tg.closed_form_toggling, 1e308), (tg.closed_form_toggling, 10 ** 308),
    (tg.closed_form_toggling, 10 ** 400), (tg.closed_form_toggling, "2"),
    (tg.toggling_map_iter, 2.0), (tg.toggling_map_iter, True), (tg.toggling_map_iter, -1),
    (tg.toggling_map_iter, None), (tg.toggling_map_iter, -10 ** 5000),
    (tg.cyclicity_order, 3.0), (tg.cyclicity_order, True), (tg.cyclicity_order, False),
    (tg.cyclicity_order, 0), (tg.cyclicity_order, np.float64(4.0)),
]


def _count_id(fn, count):
    return f"{fn.__name__}-{_value_id(count)}"


@pytest.mark.parametrize("fn, count", BAD_COUNTS, ids=[_count_id(*row) for row in BAD_COUNTS])
def test_bad_count_raises_one_value_error(fn, count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="iteration count|m_max|scaled flip angles"):
            fn(catalog.p34(), count)


def test_integer_counts_of_any_integer_type():
    s = catalog.p34()
    assert tg.closed_form_toggling(s, np.int64(2)).name == "p34^(2)"
    assert tg.toggling_map_iter(s, np.int32(1)).name == "p34^(1)"
    assert tg.cyclicity_order(s, np.int64(8)) == s.cycle_order == 3


def test_inverse_of_shifted_f1_is_nb1():
    shifted = sm.global_phase_shift(catalog.f1(), 4 * PHI)
    back = tg.inverse_toggling_map(shifted)
    assert sm.sequences_equal(back, catalog.nb1_tpg())


def test_cyclicity_order_pi():
    s = random_sequence(np.random.default_rng(9), 5, beta=np.pi)
    assert tg.cyclicity_order(s, 6) == 2


def test_cyclicity_order_fifth():
    s = random_sequence(np.random.default_rng(10), 4, beta=2 * np.pi / 5)
    assert tg.cyclicity_order(s, 8) == 5


def test_cyclicity_order_generic_angle_none():
    s = random_sequence(np.random.default_rng(11), 4, beta=1.0)
    assert tg.cyclicity_order(s, 12) is None


def test_phase_map_constant_is_fixed():
    assert np.allclose(tg.phase_map(np.zeros(6)), np.zeros(6))


def test_phase_map_nb1():
    got = tg.phase_map(np.array([PHI, -PHI, 0.0, -PHI, PHI]))
    assert np.allclose(got, [PHI, 3 * PHI, 4 * PHI, 5 * PHI, 7 * PHI], atol=1e-13)


def test_phase_map_xy4():
    got = tg.phase_map(np.array([0.0, np.pi / 2, 0.0, np.pi / 2]))
    assert np.allclose(got, [0.0, -np.pi / 2, -np.pi, -3 * np.pi / 2], atol=1e-13)


def test_phase_map_agrees_with_toggling_axes():
    rng = np.random.default_rng(12)
    phis = rng.uniform(0, 2 * np.pi, 9)
    s = sm.sequence_from_phases("r", np.pi, phis)
    t = tg.toggling_map(s)
    want = np.stack([np.cos(tg.phase_map(phis)), np.sin(tg.phase_map(phis)),
                     np.zeros(9)], axis=1)
    assert np.max(np.abs(t.axes - want)) < 1e-12
    assert np.max(np.abs(t.axes[:, 2])) < 1e-12  # stays equatorial


def test_phase_map_is_self_inverse():
    rng = np.random.default_rng(13)
    phis = rng.uniform(0, 2 * np.pi, 7)
    assert np.allclose(tg.phase_map(tg.phase_map(phis)), phis, atol=1e-12)


def test_duality_of_differences_for_toggled_pair():
    rng = np.random.default_rng(14)
    s = sm.sequence_from_phases("r", np.pi, rng.uniform(0, 2 * np.pi, 8))
    assert tg.finite_difference_duality_check(s, tg.toggling_map(s))


def test_duality_of_differences_vitanov():
    assert tg.finite_difference_duality_check(catalog.nprime(5), catalog.bprime(5))


def test_duality_of_differences_negative_case():
    s = sm.sequence_from_phases("r", np.pi, [0.0, 1.0, 2.5])
    assert not tg.finite_difference_duality_check(s, s)
    with pytest.raises(ValueError):
        tg.finite_difference_duality_check(s, catalog.f1())


def test_commutes_with_global_z_rotation():
    rng = np.random.default_rng(15)
    s = random_sequence(rng, 6)
    delta = 0.9
    lhs = tg.toggling_map(sm.global_phase_shift(s, delta))
    rhs = sm.global_phase_shift(tg.toggling_map(s), delta)
    assert np.max(np.abs(lhs.axes - rhs.axes)) < 1e-12


def test_toggled_frame_first_vector_invariant():
    # nothing precedes the first element, so its axis is the same at every depth
    rng = np.random.default_rng(19)
    s = random_sequence(rng, 6)
    for depth in (1, 2, 3):
        assert np.allclose(tg.toggling_map_iter(s, depth).axes[0], s.axes[0], atol=1e-12)


def test_detuning_frame_single_pulse():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    frame = tg.detuning_frame(s)
    assert frame.shape == (1, 3)
    assert np.allclose(frame[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_detuning_frame_alternates_sign():
    s = sm.sequence_from_phases("xx", np.pi, [0.0, 0.0])
    frame = tg.detuning_frame(s)
    plain = tg.toggling_map(s).axes
    up = rc.rotate(rc.from_axis_angle(rc.E_Z, np.pi / 2), plain[0])
    down = rc.rotate(rc.from_axis_angle(rc.E_Z, -np.pi / 2), plain[1])
    assert np.allclose(frame[0], up, atol=1e-15)
    assert np.allclose(frame[1], down, atol=1e-15)


def test_detuning_frame_u5_sublists_balanced():
    frame = tg.detuning_frame(catalog.u5())
    assert np.linalg.norm(frame[0::2].mean(axis=0)) < 1e-12
    assert np.linalg.norm(frame[1::2].mean(axis=0)) < 1e-12


def test_detuning_frame_requires_equatorial_pi():
    with pytest.raises(ValueError):
        tg.detuning_frame(catalog.p46())
    with pytest.raises(ValueError):
        tg.detuning_frame(catalog.derome())


def test_half_band_cases():
    assert tg.half_band_check(catalog.t1(), 1e-12)
    assert tg.half_band_check(catalog.pb1(), 1e-12)
    assert not tg.half_band_check(catalog.f1(), 1e-12)


def test_cyclicity_theorem_batch():
    rng = np.random.default_rng(16)
    for m in range(2, 7):
        axes = rng.normal(size=(100, 5, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        betas = np.full(5, 2 * np.pi / m)
        cur = axes
        for _ in range(m):
            cur = tg.toggle_axes(cur, betas)
        assert np.max(np.abs(cur - axes)) < 1e-10
