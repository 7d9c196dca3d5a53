"""Sequence model: propagators, structural algebra, JSON schema."""

import json

import numpy as np
import pytest

from togglekit import catalog, rotcore as rc, seqmodel as sm, toggling as tg

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
    el = sm.element_from_phase(np.pi, 0.0)
    with pytest.raises(ValueError):
        sm.RotationSequence("bad", (el,), cycle_order=3)
    ok = sm.RotationSequence("ok", (el,), cycle_order=2)
    assert ok.cycle_order == 2


@pytest.mark.parametrize("m", [2.0, True, "2", 0, -2])
def test_cycle_order_must_be_a_positive_integer(m):
    el = sm.element_from_phase(2 * np.pi, 0.0) if m is True else sm.element_from_phase(np.pi, 0.0)
    with pytest.raises(ValueError):
        sm.RotationSequence("bad", (el,), cycle_order=m)
    with pytest.raises(ValueError):
        sm.sequences_from_arrays(["bad"], [[el.beta]], [[el.axis]], m)


def test_cycle_order_is_stored_as_int():
    s = sm.RotationSequence("ok", (sm.element_from_phase(np.pi, 0.0),), cycle_order=np.int64(2))
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


def test_derived_elements_equal_eager_ones():
    rng = np.random.default_rng(82)
    betas, axes = _stack(rng, 20, 6)
    for s, b, a in zip(sm.sequences_from_arrays(["r"] * 20, betas, axes), betas, axes):
        for lazy, eager in zip(s.elements, (sm.PulseElement(x, v) for x, v in zip(b, a))):
            assert type(lazy.beta) is float and lazy.beta == eager.beta
            assert lazy.axis.tobytes() == eager.axis.tobytes() and lazy.axis.shape == (3,)
            assert lazy.phase is None and lazy.latitude is None
        assert s.elements is s.elements


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
            step = rc.from_axis_angle(s.elements[i].axis, scale * s.elements[i].beta)
            lhs = sm.prefix_propagator(s, i + 1, scale)
            rhs = rc.compose(step, sm.prefix_propagator(s, i, scale))
            assert rc.rotation_angle_between(lhs, rhs) < 1e-12


def reference_prefix_propagator(s, i, scale=1.0):
    """The per-element loop that prefix_propagator ran before it became a
    batch-of-one call on prefix_quaternions, kept as the reference."""
    q = rc.quat_identity()
    for el in s.elements[:i]:
        q = rc.quat_mul(rc.quat_from_axis_angle(el.axis, scale * el.beta), q)
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


def test_net_quaternions_bit_identical_to_broadcast_trig():
    rng = np.random.default_rng(75)
    grid = np.linspace(0.0, 2 * np.pi, 721)
    for n in (1, 2, 8, 13):
        beta = float(rng.uniform(0.1, 2 * np.pi))
        s = sm.sequence_from_axes("r", beta, _unit_rows(rng, (n,)))
        # angles within BETA_MATCH_TOL but not exactly equal take the (G, n) path
        betas = beta + rng.uniform(-1e-13, 1e-13, n) * (np.arange(n) > 0)
        near = sm.sequences_from_arrays(["near"], betas[None], s.axes[None])[0]
        for seq in (s, near):
            want = reference_net_quaternions(seq, grid)
            assert sm.net_quaternions(seq, grid).tobytes() == want.tobytes()


def test_reverse():
    s = sm.sequence_from_phases("ab", np.pi, [0.0, np.pi / 2])
    r = sm.reverse(s)
    assert np.allclose(r.phases, [np.pi / 2, 0.0])
    assert sm.sequences_equal(sm.reverse(r), s)


def test_cyclic_permute():
    s = sm.sequence_from_phases("abc", np.pi, [0.1, 0.2, 0.3])
    assert np.allclose(sm.cyclic_permute(s, 1).phases, [0.2, 0.3, 0.1])
    assert sm.sequences_equal(sm.cyclic_permute(s, 3), s)


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
    el = sm.element_from_phase(np.pi / 2, 0.3, 0.4)
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
])
def test_from_json_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        sm.from_json_dict(doc)
