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


def test_prefix_propagator_zero_is_identity():
    s = catalog.f1()
    assert rc.rotation_angle_between(rc.IDENTITY, sm.prefix_propagator(s, 0)) == 0.0


def test_prefix_propagator_single_pi_inverts():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    assert np.allclose(rc.rotate(sm.prefix_propagator(s, 1), rc.E_Z), -rc.E_Z, atol=1e-15)


def test_prefix_propagator_out_of_range():
    with pytest.raises(ValueError):
        sm.prefix_propagator(catalog.f1(), 6)


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
