"""Tests of the benchmark's rotation oracle against closed forms.

Run with ``python3 -m pytest bench -q`` from the repository root.  Nothing
here imports togglekit: the oracle has to stand on its own.
"""

import math

import numpy as np
import pytest

import oracle

EX, EY, EZ = np.eye(3)


def _random_axes(rng, n):
    a = rng.normal(size=(n, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _expm_series(k, terms=40):
    out, term = np.eye(3), np.eye(3)
    for j in range(1, terms):
        term = term @ k / j
        out = out + term
    return out


def test_rodrigues_is_active_and_right_handed():
    np.testing.assert_allclose(oracle.rodrigues(EZ, math.pi / 2) @ EX, EY, atol=1e-15)
    np.testing.assert_allclose(oracle.rodrigues(EX, math.pi / 2) @ EY, EZ, atol=1e-15)


def test_rodrigues_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    for e in _random_axes(rng, 20):
        angle = float(rng.uniform(-4.0, 4.0))
        k = angle * np.array([[0, -e[2], e[1]], [e[2], 0, -e[0]], [-e[1], e[0], 0]])
        r = oracle.rodrigues(e, angle)
        np.testing.assert_allclose(r, _expm_series(k), atol=1e-12)
        assert oracle.is_rotation(r)


def test_prefix_products_apply_element_zero_first():
    u = oracle.prefix_products([EZ, EX], [math.pi / 2, math.pi / 2])
    np.testing.assert_allclose(u[0], np.eye(3))
    # e_x -> e_y under the first element, then e_y -> e_z under the second
    np.testing.assert_allclose(u[2] @ EX, EZ, atol=1e-15)
    np.testing.assert_allclose(oracle.net([EZ, EX], math.pi / 2), u[2])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_toggling_is_cyclic_with_period_m(m):
    rng = np.random.default_rng(m)
    for n in (1, 2, 5, 9):
        axes = _random_axes(rng, n)
        out = oracle.toggled_axes_iter(axes, 2 * math.pi / m, m)
        np.testing.assert_allclose(out, axes, atol=1e-12)
        if n > 1:
            assert np.max(np.abs(oracle.toggled_axes(axes, 2 * math.pi / m) - axes)) > 1e-6
            assert oracle.cycle_order(axes, 2 * math.pi / m, 8) == m


def test_untoggle_inverts_toggle_for_any_angles():
    rng = np.random.default_rng(7)
    axes = _random_axes(rng, 7)
    angles = rng.uniform(0.1, 6.0, size=7)
    np.testing.assert_allclose(oracle.untoggle(oracle.toggled_axes(axes, angles), angles),
                               axes, atol=1e-12)
    np.testing.assert_allclose(oracle.toggled_axes(axes, angles)[0], axes[0])


def test_orders_of_two_orthogonal_axes():
    np.testing.assert_allclose(oracle.order1([EX, EY]), [1.0, 1.0, 0.0])
    # 1/2 e_1 x e_0 with e_0 = x first and e_1 = y second
    np.testing.assert_allclose(oracle.order2([EX, EY]), [0.0, 0.0, -0.5])


def test_orders_match_the_rotation_vector_of_small_kicks():
    rng = np.random.default_rng(11)
    v = _random_axes(rng, 5)
    eps = 1e-3
    prod = np.eye(3)
    for e in v:
        prod = oracle.rodrigues(e, eps) @ prod
    angle = oracle.rotation_angle(prod)
    w = np.array([prod[2, 1] - prod[1, 2], prod[0, 2] - prod[2, 0], prod[1, 0] - prod[0, 1]])
    rotvec = angle * w / np.linalg.norm(w)
    expect = eps * oracle.order1(v) + eps ** 2 * oracle.order2(v)
    assert np.max(np.abs(rotvec - expect)) < 50 * eps ** 3


def test_residual_angle_is_a_distance_up_to_pi():
    rng = np.random.default_rng(3)
    e = _random_axes(rng, 1)[0]
    for theta in (0.0, 1e-9, 0.3, 2.0, math.pi - 1e-9, math.pi):
        r = oracle.rodrigues(e, theta)
        assert abs(oracle.residual_angle(np.eye(3), r) - theta) < 1e-12
        assert abs(oracle.residual_angle(r, np.eye(3)) - theta) < 1e-12


def test_targets_and_symmetry_classes():
    assert oracle.meets_target(oracle.rodrigues(EX, math.pi), "equatorial_pi")
    assert not oracle.meets_target(oracle.rodrigues(EZ, math.pi), "equatorial_pi")
    assert not oracle.meets_target(oracle.rodrigues(EX, 3.0), "equatorial_pi")
    cyc = oracle.rodrigues(np.ones(3) / math.sqrt(3.0), 2 * math.pi / 3)
    assert oracle.meets_target(cyc, "axis_cycling")
    assert oracle.meets_target(cyc, oracle.AXIS_CYCLE)
    assert not oracle.meets_target(cyc.T, "axis_cycling")
    a = np.array([oracle.phase_axis(p) for p in (0.1, 0.7, 0.1)])
    assert oracle.symmetry_class(a) == "symmetric"
    b = np.array([oracle.phase_axis(p) for p in (0.1, 0.0, -0.1)])
    assert oracle.symmetry_class(b) == "antisymmetric"
    assert oracle.symmetry_class(np.array([EX, EY, EY])) == "neither"


def test_sequence_from_json_reads_both_element_forms():
    betas, axes = oracle.sequence_from_json({"elements": [
        {"beta": 1.0, "phase": math.pi / 2},
        {"beta": 2.0, "phase": 0.0, "latitude": math.pi / 2},
        {"beta": 3.0, "axis": [0.0, 0.0, 2.0]}]})
    np.testing.assert_allclose(betas, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(axes, [EY, EZ, EZ], atol=1e-15)


def test_cube_rotations_form_the_group_of_the_cube():
    g = oracle.CUBE_ROTATIONS
    assert len(g) == 24
    assert all(oracle.is_rotation(m) for m in g)
    cube = oracle.AXIS_SETS["cube"]
    assert all(oracle.on_vertices(cube @ m.T, cube) for m in g)
    keys = {oracle._rounded(m) for m in g}
    assert len(keys) == 24
    assert all(oracle._rounded(a @ b) in keys for a in g for b in g)


def test_class_keys_separate_exactly_the_equivalent_lists():
    rng = np.random.default_rng(3)
    axes = _random_axes(rng, 5)
    axes[2] = [math.cos(0.3), math.sin(0.3), 0.0]          # one equatorial axis
    turned = axes @ oracle.rodrigues(EZ, 1.1).T
    assert oracle.class_key(turned, "global_z") == oracle.class_key(axes, "global_z")
    assert oracle.class_key(turned, "none") != oracle.class_key(axes, "none")
    tilted = axes @ oracle.rodrigues(EX, 0.2).T
    assert oracle.class_key(tilted, "global_z") != oracle.class_key(axes, "global_z")
    cube = oracle.AXIS_SETS["cube"][[0, 3, 5, 6]]            # no equatorial axis
    for m in oracle.CUBE_ROTATIONS:
        for symmetry in ("global_z", "axis_set_rotations"):
            assert oracle.class_key(cube @ m.T, symmetry) == oracle.class_key(cube, symmetry)
    other = oracle.AXIS_SETS["cube"][[0, 3, 5, 5]]
    assert oracle.class_key(other, "global_z") != oracle.class_key(cube, "global_z")
    assert oracle.class_key(axes, "none") == oracle.class_key(axes + 1e-12, "none")


def test_batches_match_one_sequence_at_a_time():
    rng = np.random.default_rng(5)
    axes = np.array([_random_axes(rng, 6) for _ in range(4)])
    angles = rng.uniform(0.1, 3.0, size=6)
    for batched, single in ((oracle.prefix_products, oracle.prefix_products),
                            (oracle.toggled_axes, oracle.toggled_axes),
                            (oracle.untoggle, oracle.untoggle)):
        np.testing.assert_allclose(batched(axes, angles),
                                   [single(a, angles) for a in axes], atol=1e-14)
    nets = oracle.net(axes, angles)
    target = nets[2]
    assert list(oracle.meets_target(nets, target)) == [oracle.meets_target(m, target) for m in nets]
    np.testing.assert_allclose(oracle.residual_angle(nets[0], nets),
                               [oracle.residual_angle(nets[0], m) for m in nets], atol=1e-14)
