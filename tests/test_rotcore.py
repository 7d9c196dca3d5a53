"""Rotation algebra: conventions, canonicalization, group properties."""

import numpy as np
import pytest

from togglekit import catalog, rotcore as rc, seqmodel


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


@pytest.mark.parametrize("scalar", [2.0, np.float64(-1.5), np.array(3.0)], ids=repr)
def test_unit_vector_rejects_a_scalar_with_one_line(scalar):
    with pytest.raises(ValueError, match="^expected a vector, got the scalar") as info:
        rc.unit_vector(scalar)
    assert "\n" not in str(info.value)


def test_unit_vector_matches_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(100_000, 3)) * 10.0 ** rng.uniform(-6, 6, size=(100_000, 1))
    extra = [rng.normal(size=2), rng.normal(size=7), rng.normal(size=(3, 3))[:, 1],
             rng.normal(size=(2, 3)).T]
    for v in [*vecs, *extra]:
        # a multi-dimensional v counts as one vector of its elements in C order
        want = v / np.linalg.norm(np.ascontiguousarray(v))
        assert rc.unit_vector(v).tobytes() == want.tobytes()


def test_cross3_equals_np_cross_bit_for_bit():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 10_000, 3)) * 10.0 ** rng.uniform(-6, 6, size=(2, 10_000, 1))
    got = np.stack(rc._cross3(*a.T, *b.T), axis=-1)
    assert got.tobytes() == np.cross(a, b).tobytes()
    for x, y in zip(a[:200], b[:200]):   # numpy scalars, as a propagator chain steps on them
        assert np.array(rc._cross3(*x, *y)).tobytes() == np.cross(x, y).tobytes()


def test_rotate_about_z_matches_rodrigues_and_broadcasts():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(5, 3))
    angles = rng.uniform(-4, 4, 7)
    out = rc.rotate_about_z(v[None, :, :], angles[:, None])
    assert out.shape == (7, 5, 3)
    for k, a in enumerate(angles):
        assert np.allclose(out[k], v @ rodrigues(rc.E_Z, a).T, atol=1e-14)
    assert np.array_equal(rc.rotate_about_z(v, 0.0), v)


def _rotate_about_z_reference(v, angles):
    """rotate_about_z as it stacked three broadcast component arrays."""
    v = np.asarray(v, dtype=float)
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


def test_rotate_about_z_matches_the_stacked_components():
    rng = np.random.default_rng(23)
    v = rng.normal(size=(40, 6, 3))
    v[rng.random(v.shape) < 0.2] = 0.0
    v[rng.random(v.shape) < 0.2] = -0.0          # -0.0 components, x, y and z
    angles = rng.uniform(-4, 4, 40)
    angles[:4] = [0.0, -0.0, np.pi, -np.pi / 2]
    cases = [
        (v, angles[:, None]),                    # (N, 1) against (N, n, 3)
        (v[0], angles[:6]),                      # (n,) against (n, 3)
        (v[0], angles[:, None]),                 # (N, 1) against (n, 3): (N, n, 3)
        (v, 0.7), (v, -0.0), (v[0, 0], 0.0),     # scalar angles; one vector
        (v[0, 0], angles),                       # one vector, N angles
        (v[:0], angles[:0, None]), (v[:, :0], angles[:, None]), (v[:0], 1.0),   # empty stacks
        ([[-0.0, -0.0, -0.0]], [-0.0]), ([[0.0, -0.0, -0.0]], np.pi),
    ]
    for vs, a in cases:
        got, want = rc.rotate_about_z(vs, a), _rotate_about_z_reference(vs, a)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert np.signbit(rc.rotate_about_z(v, 0.0)[..., 2]).any()


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


def _quat_mul_reference(a, b):
    """quat_mul's array formula before it moved onto components."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ((ax * bx + ay * by) + az * bz)
    out[..., 1] = (aw * bx + bw * ax) + (ay * bz - az * by)
    out[..., 2] = (aw * by + bw * ay) + (az * bx - ax * bz)
    out[..., 3] = (aw * bz + bw * az) + (ax * by - ay * bx)
    return out


def _quat_apply_reference(q, v):
    """quat_apply in its np.cross form, kept as the reference."""
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def _strided(rng, shape):
    """Random values of ``shape`` in a non-contiguous view."""
    return rng.normal(size=shape[::-1] + (2,))[..., 0].T


@pytest.mark.parametrize("shapes", [((4,), (4,)), ((300, 4), (300, 4)), ((300, 4), (4,)),
                                    ((4,), (300, 4)), ((5, 1, 4), (3, 4)), ((25, 21, 4), (21, 4))])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_quat_kernels_bit_identical_to_array_formulas(shapes, layout):
    rng = np.random.default_rng(23)
    make = (lambda shape: rng.normal(size=shape)) if layout == "contiguous" \
        else (lambda shape: _strided(rng, shape))
    a, b = make(shapes[0]), make(shapes[1])
    assert layout == "contiguous" or not a.flags.c_contiguous
    assert np.array_equal(rc.quat_mul(a, b), _quat_mul_reference(a, b))
    assert np.array_equal(rc.quat_normalize(a), a / np.linalg.norm(a, axis=-1, keepdims=True))
    unit = a / np.linalg.norm(a, axis=-1, keepdims=True)
    v = b[..., 1:]
    assert np.array_equal(rc.quat_apply(unit, v), _quat_apply_reference(unit, v))
    assert np.array_equal(rc.quat_apply(a, v), _quat_apply_reference(a, v))


def test_quat_kernels_keep_signed_zeros_and_non_finite_values():
    a = np.array([[0.0, -0.0, 1.0, -2.0], [np.inf, 1.0, -0.0, 0.5], [np.nan, 0.0, 1.0, 0.0]])
    b = np.array([[-0.0, 0.0, -1.0, 3.0], [1.0, -np.inf, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        pairs = [(rc.quat_mul(a, b), _quat_mul_reference(a, b)),
                 (rc.quat_normalize(a), a / np.linalg.norm(a, axis=-1, keepdims=True)),
                 (rc.quat_apply(a, b[:, 1:]), _quat_apply_reference(a, b[:, 1:]))]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


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
        r = rc.from_axis_angle(v / np.linalg.norm(v), np.linalg.norm(v))
        assert np.allclose(rc.quat_to_rotation_vector(r.q), v, atol=1e-12)


def test_rotation_is_immutable():
    r = rc.from_axis_angle(rc.E_X, 0.5)
    with pytest.raises(AttributeError):
        r.q = np.zeros(4)
    with pytest.raises(ValueError):
        r.q[0] = 2.0


def _scalar_angle_between(a, b):
    """The scalar chain that quat_angle_between batches."""
    _, beta = rc.to_axis_angle(rc.compose(rc.inverse(a), b))
    return beta


def test_quat_angle_between_matches_scalar_chain_bit_for_bit():
    rng = np.random.default_rng(19)
    a = [rc.Rotation(q / np.linalg.norm(q)) for q in rng.normal(size=(40, 4))]
    b = [rc.Rotation(q / np.linalg.norm(q)) for q in rng.normal(size=(40, 4))]
    for r in a[:8]:   # the identity, q against -q, angles near and below ZERO_ANGLE_TOL, pi
        a.extend([r, r, r, r, r, rc.IDENTITY, rc.IDENTITY])
        b.extend([r, rc.Rotation(-r.q), rc.compose(r, rc.from_axis_angle(rc.E_X, 5e-10)),
                  rc.compose(r, rc.from_axis_angle(rc.E_Y, 3e-9)),
                  rc.compose(r, rc.from_axis_angle(rc.E_Z, np.pi)),
                  rc.Rotation(np.array([0.0, 1.0, 0.0, 0.0])),
                  rc.Rotation(np.array([-0.0, 0.0, -1.0, 0.0]))])
    want = np.array([_scalar_angle_between(x, y) for x, y in zip(a, b)])
    assert np.sum(want == 0.0) >= 16 and np.sum(want == np.pi) >= 2
    got = rc.quat_angle_between(np.array([r.q for r in a]), np.array([r.q for r in b]))
    assert got.tobytes() == want.tobytes()
    assert [rc.rotation_angle_between(x, y) for x, y in zip(a, b)] == want.tolist()
    one = rc.quat_angle_between(a[0].q, np.array([r.q for r in b]))   # broadcast
    assert one.tolist() == [_scalar_angle_between(a[0], y) for y in b]


def test_unit_quaternions_rows_equal_rotation_constructor():
    rng = np.random.default_rng(23)
    q = rng.normal(size=(33, 4))
    q *= (1.0 + rng.uniform(-5e-7, 5e-7, size=(33, 1))) / np.linalg.norm(q, axis=1, keepdims=True)
    want = np.array([rc.Rotation(row).q for row in q])
    got = rc.unit_quaternions(q)
    assert got.tobytes() == want.tobytes() and not got.flags.writeable


@pytest.mark.parametrize("bad", [1.01, 0.0, np.nan, np.inf])
def test_unit_quaternions_check_the_whole_stack(bad):
    q = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    q[3, 0] = bad
    with pytest.raises(ValueError, match="too far from 1"):
        rc.unit_quaternions(q)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 4\)"):
        rc.unit_quaternions(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# references: the log map, rotation vector, constructor and matrix that the
# one batched log map and unit_quaternions replaced
# ---------------------------------------------------------------------------

def _to_axis_angle_reference(q):
    """The scalar to_axis_angle body, on a unit quaternion (4,)."""
    q = q if q[0] >= 0.0 else -q
    vnorm = float(np.linalg.norm(q[1:]))
    angle = 2.0 * np.arctan2(vnorm, q[0])
    if angle < rc.ZERO_ANGLE_TOL:
        return rc.E_Z, 0.0
    axis = q[1:] / vnorm
    if angle > np.pi - 1e-12:
        neg = -axis
        if tuple(neg) > tuple(axis):
            axis = neg
    return axis.copy(), float(angle)


def _rotation_vector_reference(q):
    """quat_to_rotation_vector with its own log map and np.linalg.norm."""
    q = np.where(q[..., :1] >= 0.0, q, -q)
    vnorm = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(vnorm, q[..., :1])
    small = angle < rc.ZERO_ANGLE_TOL
    return np.where(small, 0.0, angle * (q[..., 1:] / np.where(small, 1.0, vnorm)))


def _rotation_init_reference(q):
    """The Rotation constructor's own shape check and scalar normalizer."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
    n = float(np.linalg.norm(q))
    if not abs(n - 1.0) <= rc.AXIS_INPUT_TOL:
        raise ValueError(f"quaternion norm {n} too far from 1")
    return q / n


def _as_matrix_reference(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _log_map_rows():
    """Special rows first (the identity, w < 0 and w = -0, pi about axes whose
    leading components are zero or negative, pi - 1e-13, angles below
    ZERO_ANGLE_TOL, catalog nets), then 20 000 random unit quaternions."""
    special = [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, -0.0],
               [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
               [-0.0, 0.0, -0.0, -1.0], [0.0, -0.0, -0.6, 0.8], [0.0, 0.0, 0.6, -0.8],
               [-0.0, 0.0, 1.0, 0.0], [0.0, -0.6, 0.0, 0.8]]
    special += [rc.quat_from_axis_angle(e, t) for e in ([-0.6, 0.8, 0.0], [0.0, -0.8, 0.6],
                                                       [0.6, -0.8, 0.0], [0.0, 0.0, -1.0])
                for t in (np.pi - 1e-13, np.pi + 1e-13, -np.pi, 5e-10, -5e-10, 2 * np.pi - 3e-10)]
    nets = [seqmodel.net_propagator(catalog.named(name)).q
            for name in ("f1", "nb1_tpg", "t1", "pb1", "p34", "i34", "derome", "tycko", "u5")]
    rng = np.random.default_rng(41)
    random = rng.normal(size=(20_000, 4))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    random[::7, 0] *= -1.0
    return np.concatenate([np.array(special + nets), random])


def test_quat_to_axis_angle_matches_scalar_reference_at_every_batch_shape():
    q = _log_map_rows()
    want = [_to_axis_angle_reference(row) for row in q]
    want_axes = np.array([a for a, _ in want])
    want_angles = [t for _, t in want]
    assert sum(t == 0.0 for t in want_angles) >= 9 and sum(t > np.pi - 1e-12 for t in want_angles) >= 14
    axes, angles = rc.quat_to_axis_angle(q)                          # (N,)
    assert axes.shape == (len(q), 3) and angles.shape == (len(q),)
    assert axes.tobytes() == want_axes.tobytes() and angles.tolist() == want_angles
    grid = q[:len(q) // 9 * 9].reshape(9, -1, 4)                      # (A, B)
    axes, angles = rc.quat_to_axis_angle(grid)
    assert axes.tobytes() == want_axes[:grid.shape[0] * grid.shape[1]].tobytes()
    assert angles.ravel().tolist() == want_angles[:angles.size]
    for row, (axis, angle) in zip(q[:2000], want):                   # ()
        got_axis, got_angle = rc.quat_to_axis_angle(row)
        assert got_axis.shape == (3,) and got_angle.shape == ()
        assert got_axis.tobytes() == axis.tobytes() and float(got_angle) == angle
        r = rc.Rotation(row)
        axis, angle = _to_axis_angle_reference(r.q)
        r_axis, r_angle = rc.to_axis_angle(r)
        assert r_axis.tobytes() == axis.tobytes() and type(r_angle) is float and r_angle == angle
        assert not r_axis.flags.writeable


def test_quat_to_rotation_vector_matches_old_log_map():
    # the norm moved from np.linalg.norm to vecdot: a last-bit change on a
    # few rows, and at pi the canonical axis where either sign was valid
    q = _log_map_rows()
    got, want = rc.quat_to_rotation_vector(q), _rotation_vector_reference(q)
    near_pi = np.linalg.norm(want, axis=1) > np.pi - 1e-12
    assert np.max(np.abs(got - want)[~near_pi]) <= 4.5e-16 * np.pi
    assert np.array_equal(np.abs(got[near_pi]), np.abs(want[near_pi]))
    rng = np.random.default_rng(43)
    small = rc.quat_from_axis_angle(rc.unit_vectors(rng.normal(size=(5000, 3))),
                                    rng.uniform(-0.3, 0.3, 5000))
    assert np.max(np.abs(rc.quat_to_rotation_vector(small) - _rotation_vector_reference(small))) \
        <= 4.5e-16


def test_quat_angle_between_is_the_log_map_angle_bit_for_bit():
    # the distance takes only the log map's angle steps, without its axes
    q = _log_map_rows()
    _, angles = rc.quat_to_axis_angle(q)
    assert rc._log_angles(q)[2].tobytes() == angles.tobytes()
    for a in (rc.IDENTITY.q, np.roll(q, 1, axis=0)):
        inv = rc.unit_quaternions(rc.quat_conj(a))
        rel = rc.unit_quaternions(rc.quat_normalize(rc.quat_mul(inv, q)))
        assert rc.quat_angle_between(a, q).tobytes() == rc.quat_to_axis_angle(rel)[1].tobytes()


def test_rotation_constructor_matches_its_old_normalizer():
    rng = np.random.default_rng(47)
    q = rng.normal(size=(20_000, 4))
    q *= (1.0 + rng.uniform(-1e-7, 1e-7, size=(20_000, 1))) / np.linalg.norm(q, axis=1,
                                                                            keepdims=True)
    for row in q:
        r = rc.Rotation(row)
        assert r.q.tobytes() == _rotation_init_reference(row).tobytes()
        assert not r.q.flags.writeable and not np.shares_memory(r.q, row)
    bad = [np.ones(3), np.ones((2, 4)), np.array(1.0), [1.01, 0, 0, 0], np.zeros(4),
           [np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1.0, 0.0, 0.0, 3e-3]]
    for b in bad:
        with pytest.raises(ValueError) as want:
            _rotation_init_reference(b)
        with pytest.raises(ValueError) as got:
            rc.Rotation(b)
        assert str(got.value) == str(want.value)


def test_as_matrix_matches_the_component_formula():
    rng = np.random.default_rng(53)
    q = rng.normal(size=(2000, 4))
    for row in q / np.linalg.norm(q, axis=1, keepdims=True):
        m = rc.Rotation(row).as_matrix()
        assert m.shape == (3, 3)
        assert np.max(np.abs(m - _as_matrix_reference(row))) < 2e-15
        assert np.array_equal(m[:, 0], rc.rotate(rc.Rotation(row), rc.E_X))
