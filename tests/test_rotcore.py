"""Rotation algebra: conventions, canonicalization, group properties."""

import numpy as np
import pytest

from togglekit import rotcore as rc


def rodrigues(axis, angle):
    """Independent 3x3 rotation-matrix oracle (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_zero_angle_is_identity():
    r = rc.from_axis_angle(rc.E_Z, 0.0)
    assert np.allclose(rc.rotate(r, rc.E_X), rc.E_X, atol=1e-15)


def test_right_hand_rule_defining_case():
    r = rc.from_axis_angle(rc.E_Z, np.pi / 2)
    assert np.allclose(rc.rotate(r, rc.E_X), rc.E_Y, atol=1e-15)


def test_pi_flip_about_x():
    r = rc.from_axis_angle(rc.E_X, np.pi)
    assert np.allclose(rc.rotate(r, rc.E_Z), -rc.E_Z, atol=1e-15)


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        rc.from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError):
        rc.unit_vector([bad, 0.0, 0.0])
    with pytest.raises(ValueError):
        rc.Rotation(np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        rc.from_axis_angle(rc.E_X, bad)


def test_unit_vector_matches_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(100_000, 3)) * 10.0 ** rng.uniform(-6, 6, size=(100_000, 1))
    extra = [rng.normal(size=2), rng.normal(size=7), rng.normal(size=(3, 3))[:, 1],
             rng.normal(size=(2, 3)).T]
    for v in [*vecs, *extra]:
        assert rc.unit_vector(v).tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_rotate_about_z_matches_rodrigues_and_broadcasts():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(5, 3))
    angles = rng.uniform(-4, 4, 7)
    out = rc.rotate_about_z(v[None, :, :], angles[:, None])
    assert out.shape == (7, 5, 3)
    for k, a in enumerate(angles):
        assert np.allclose(out[k], v @ rodrigues(rc.E_Z, a).T, atol=1e-14)
    assert np.array_equal(rc.rotate_about_z(v, 0.0), v)


def test_axis_angle_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        beta = rng.uniform(1e-6, np.pi - 1e-6)
        axis, angle = rc.to_axis_angle(rc.from_axis_angle(e, beta))
        assert abs(angle - beta) < 1e-10
        assert np.allclose(axis, e, atol=1e-10)


def test_to_axis_angle_identity_convention():
    axis, angle = rc.to_axis_angle(rc.IDENTITY)
    assert angle == 0.0
    assert np.allclose(axis, rc.E_Z)


def test_to_axis_angle_canonicalizes_negative_angle():
    axis, angle = rc.to_axis_angle(rc.from_axis_angle(rc.E_Y, -np.pi / 3))
    assert abs(angle - np.pi / 3) < 1e-12
    assert np.allclose(axis, -rc.E_Y, atol=1e-12)


def test_quat_to_rotation_vector_matches_axis_angle_rows():
    rng = np.random.default_rng(18)
    axes = rng.normal(size=(200, 3))
    rots = [rc.from_axis_angle(a / np.linalg.norm(a), t)
            for a, t in zip(axes, rng.uniform(0.0, 2.0 * np.pi, 200))]
    rots += [rc.IDENTITY, rc.from_axis_angle(-rc.E_Z, 1e-10),
             rc.Rotation(np.array([-1.0, 0.0, 0.0, 0.0])), rc.from_axis_angle(rc.E_X, 3.0)]
    got = rc.quat_to_rotation_vector(np.array([r.q for r in rots]))
    for v, r in zip(got, rots):
        axis, angle = rc.to_axis_angle(r)
        assert np.max(np.abs(v - angle * axis)) < 1e-14


def test_quat_mul_bit_identical_to_cross_product_form():
    def cross_form(a, b):
        aw, av = a[..., :1], a[..., 1:]
        bw, bv = b[..., :1], b[..., 1:]
        w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
        return np.concatenate([w, aw * bv + bw * av + np.cross(av, bv)], axis=-1)

    rng = np.random.default_rng(19)
    a, b = rng.normal(size=(2, 10000, 4))
    assert np.array_equal(rc.quat_mul(a, b), cross_form(a, b))
    assert np.array_equal(rc.quat_mul(a[0], b), cross_form(a[0], b))
    for i in range(200):
        assert np.array_equal(rc.quat_mul(a[i], b[i]), cross_form(a[i], b[i]))


def test_pi_rotation_axis_tie_break_is_lex_largest():
    axis, angle = rc.to_axis_angle(rc.from_axis_angle(-rc.E_Y, np.pi))
    assert abs(angle - np.pi) < 1e-12
    assert np.allclose(axis, rc.E_Y, atol=1e-12)


def test_compose_order_earlier_then_later():
    c = rc.compose(rc.from_axis_angle(rc.E_Z, np.pi / 2),
                   rc.from_axis_angle(rc.E_X, np.pi / 2))
    assert np.allclose(rc.rotate(c, rc.E_Z), rc.E_X, atol=1e-14)
    oracle = rodrigues(rc.E_Z, np.pi / 2) @ rodrigues(rc.E_X, np.pi / 2)
    assert np.allclose(c.as_matrix(), oracle, atol=1e-14)


def test_double_pi_is_identity_on_vectors():
    r = rc.from_axis_angle(rc.E_X, np.pi)
    rr = rc.compose(r, r)
    assert rc.rotation_angle_between(rc.IDENTITY, rr) < 1e-12


def test_compose_with_identity():
    r = rc.from_axis_angle(rc.E_Y, 0.4)
    assert rc.rotation_angle_between(r, rc.compose(r, rc.IDENTITY)) < 1e-14


def test_axis_cycling_rotation():
    r = rc.from_axis_angle(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), 2 * np.pi / 3)
    assert np.allclose(rc.rotate(r, rc.E_X), rc.E_Y, atol=1e-14)
    assert np.allclose(r.as_matrix(),
                       rodrigues([1, 1, 1], 2 * np.pi / 3), atol=1e-14)


def test_axis_from_phase():
    assert np.allclose(rc.axis_from_phase(0.0, 0.0), [1, 0, 0])
    assert np.allclose(rc.axis_from_phase(np.pi / 2, 0.0), [0, 1, 0], atol=1e-15)
    assert np.allclose(rc.axis_from_phase(0.0, np.pi / 2), [0, 0, 1], atol=1e-15)
    with pytest.raises(ValueError):
        rc.axis_from_phase(0.0, 2.0)


def test_group_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rots = []
        for _ in range(3):
            v = rng.normal(size=3)
            rots.append(rc.from_axis_angle(v / np.linalg.norm(v),
                                           rng.uniform(0, 2 * np.pi)))
        a, b, c = rots
        left = rc.compose(rc.compose(a, b), c)
        right = rc.compose(a, rc.compose(b, c))
        assert rc.rotation_angle_between(left, right) < 1e-10
        assert rc.rotation_angle_between(
            rc.IDENTITY, rc.compose(a, rc.inverse(a))) < 1e-10


def test_rotate_preserves_dot_products():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.normal(size=3)
        r = rc.from_axis_angle(v / np.linalg.norm(v), rng.uniform(0, 2 * np.pi))
        u1, u2 = rng.normal(size=(2, 3))
        d0 = float(u1 @ u2)
        d1 = float(rc.rotate(r, u1) @ rc.rotate(r, u2))
        assert abs(d0 - d1) < 1e-10


def test_rotation_vector_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.normal(size=3) * 0.8
        r = rc.from_rotation_vector(v)
        assert np.allclose(rc.quat_to_rotation_vector(r.q), v, atol=1e-12)


def test_rotation_is_immutable():
    r = rc.from_axis_angle(rc.E_X, 0.5)
    with pytest.raises(AttributeError):
        r.q = np.zeros(4)
    with pytest.raises(ValueError):
        r.q[0] = 2.0
