"""Toggling map: base cases, cyclicity, closed form, inverse, phase maps."""

import numpy as np
import pytest

from togglekit import catalog, rotcore as rc, seqmodel as sm, toggling as tg

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
    assert np.allclose(tg.inverse_phase_map(tg.phase_map(phis)), phis, atol=1e-12)


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
    rng = np.random.default_rng(19)
    s = random_sequence(rng, 6)
    for depth in (1, 2, 3):
        frame = tg.toggled_frame(s, depth)
        assert frame.depth == depth
        assert np.allclose(frame.vectors[0], s.axes[0], atol=1e-12)
        assert frame.source is s


def test_detuning_frame_single_pulse():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    frame = tg.detuning_frame(s)
    assert frame.depth == 1
    assert np.allclose(frame.vectors[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_detuning_frame_alternates_sign():
    s = sm.sequence_from_phases("xx", np.pi, [0.0, 0.0])
    frame = tg.detuning_frame(s)
    plain = tg.toggling_map(s).axes
    up = rc.rotate(rc.from_axis_angle(rc.E_Z, np.pi / 2), plain[0])
    down = rc.rotate(rc.from_axis_angle(rc.E_Z, -np.pi / 2), plain[1])
    assert np.allclose(frame.vectors[0], up, atol=1e-15)
    assert np.allclose(frame.vectors[1], down, atol=1e-15)


def test_detuning_frame_u5_sublists_balanced():
    frame = tg.detuning_frame(catalog.u5())
    assert np.linalg.norm(frame.vectors[0::2].mean(axis=0)) < 1e-12
    assert np.linalg.norm(frame.vectors[1::2].mean(axis=0)) < 1e-12


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
