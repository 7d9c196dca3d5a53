"""Flip-angle sweeps: inversion profiles, glide duality, trajectories,
rotation error, and the m=2 -> m=4 conversion."""

import numpy as np
import pytest

from togglekit import averaging as av, catalog, profiles as pf, rotcore as rc, seqmodel as sm, toggling as tg


def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_q_profile_at_zero_is_one():
    for name in ("f1", "nb1_tpg", "u5"):
        samples = pf.q_profile(catalog.named(name), rc.E_Z, [0.0])
        assert abs(samples[0].q - 1.0) < 1e-14


def test_single_pulse_profile_is_cosine():
    s = sm.sequence_from_phases("pix", np.pi, [0.0])
    grid = np.linspace(0, 2 * np.pi, 91)
    qs = pf.q_values(s, rc.E_Z, grid)
    assert np.max(np.abs(qs - np.cos(grid))) < 1e-13


def test_f1_inverts_at_nominal_angle():
    assert abs(float(pf.q_values(catalog.f1(), rc.E_Z, [np.pi])[0]) + 1.0) < 1e-12


def test_default_grid_is_721_points():
    samples = pf.q_profile(catalog.f1(), rc.E_Z)
    assert len(samples) == 721
    assert abs(samples[0].q - 1.0) < 1e-12
    assert abs(samples[360].q + 1.0) < 1e-12  # beta' = pi


def test_q_profile_periodicity_for_cycle_sequences():
    s = catalog.p34()   # uniform beta = 2pi/3, m = 3
    grid = np.linspace(0, 2 * np.pi, 40)
    q0 = pf.q_values(s, rc.E_Z, grid)
    q1 = pf.q_values(s, rc.E_Z, grid + 3 * 2 * np.pi)
    assert np.max(np.abs(q0 - q1)) < 1e-10


def test_glide_f1_nb1_pair():
    shifted = sm.global_phase_shift(catalog.nb1_tpg(), 4 * np.arccos(-0.25))
    assert pf.glide_reflection_check(catalog.f1(), shifted) < 1e-9


def test_glide_single_pulse_self_dual():
    one = sm.sequence_from_phases("pix", np.pi, [0.0])
    plus, minus = pf.glide_reflection_deviations(one, one)
    assert min(plus, minus) < 1e-12


def test_glide_vitanov_pairs():
    for n in (3, 7):
        assert pf.glide_reflection_check(catalog.bprime(n), catalog.nprime(n)) < 1e-9


def test_glide_holds_for_random_dual_pairs():
    # any odd equatorial pi sequence is a nominal inverter; its toggling
    # image satisfies the glide relation
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = 2 * int(rng.integers(1, 5)) + 1
        s = sm.sequence_from_phases("r", np.pi, rng.uniform(0, 2 * np.pi, n))
        assert pf.glide_reflection_check(s, tg.toggling_map(s)) < 1e-9


def test_glide_rejects_non_inverters():
    with pytest.raises(ValueError):
        pf.glide_reflection_check(catalog.xy4(), catalog.xy4())


def test_trajectory_at_zero_scale_stays_put():
    path = pf.trajectory(catalog.f1(), rc.E_Z, 0.0)
    assert np.allclose(path, rc.E_Z, atol=1e-15)
    assert path.shape == (6, 3)


def test_trajectory_p34_cycles_x_to_y():
    path = pf.trajectory(catalog.p34(), rc.E_X, 2 * np.pi / 3)
    assert np.allclose(path[-1], rc.E_Y, atol=1e-12)


def test_trajectory_90x180y90x_inverts_z():
    s = catalog.comp_90x180y90x()
    path = pf.trajectory(s, rc.E_Z, np.pi / 2)
    m = np.eye(3)
    for el in s.elements:
        m = rodrigues(el.axis, el.beta) @ m
    assert np.allclose(path[-1], m @ rc.E_Z, atol=1e-13)
    assert np.allclose(path[-1], -rc.E_Z, atol=1e-13)


def test_rotation_error_zero_at_nominal():
    s = catalog.p34()
    target = sm.net_propagator(s)
    assert pf.rotation_error(s, 2 * np.pi / 3, target) < 1e-9


def test_rotation_error_single_pulse_scales_linearly():
    beta = 2 * np.pi / 3
    s = sm.sequence_from_axes("one", beta, np.array([[1, 1, 1]]) / np.sqrt(3))
    target = rc.from_axis_angle(np.array([1, 1, 1.0]) / np.sqrt(3), beta)
    err = pf.rotation_error(s, 1.2 * beta, target)
    assert abs(err - np.degrees(0.2 * beta)) < 1e-9


def test_p34_beats_single_pulse_off_nominal():
    beta = 2 * np.pi / 3
    target = rc.from_axis_angle(np.array([1, 1, 1.0]) / np.sqrt(3), beta)
    single = sm.sequence_from_axes("one", beta, np.array([[1, 1, 1]]) / np.sqrt(3))
    for scale in (0.85, 0.9, 1.1, 1.15):
        assert (pf.rotation_error(catalog.p34(), scale * beta, target)
                < pf.rotation_error(single, scale * beta, target))


def test_convert_bprime5():
    out = pf.convert_m2_to_m4(catalog.bprime(5))
    assert len(out) == 10
    assert np.allclose(out.betas, np.pi / 2)
    dev = rc.rotation_angle_between(sm.net_propagator(out),
                                    rc.from_axis_angle(rc.E_X, np.pi))
    assert dev < 1e-8
    assert np.linalg.norm(av.centroid(tg.toggling_map(out).axes)) < 1e-9
    assert av.symmetry_class(out) == "antisymmetric"


@pytest.mark.parametrize("make", [
    catalog.tycko,                                          # net at 60 deg
    catalog.u5,                                             # net at -30 deg
    lambda: sm.global_phase_shift(catalog.bprime(5), np.pi / 7),
    lambda: sm.global_phase_shift(catalog.bprime(9), -2.0),
])
def test_convert_any_equatorial_net(make):
    src = make()
    out = pf.convert_m2_to_m4(src)
    assert len(out) == 2 * len(src)
    assert np.allclose(out.betas, np.pi / 2)
    dev = rc.rotation_angle_between(sm.net_propagator(out),
                                    rc.from_axis_angle(rc.E_X, np.pi))
    assert dev < 1e-8
    assert np.linalg.norm(av.centroid(tg.toggling_map(out).axes)) < 1e-9
    assert av.symmetry_class(out) == "antisymmetric"


def _mirror_symmetric_set(rng, pairs, on_plane, equatorial):
    """Random axes plus their xz mirrors and some axes in the xz plane, in
    shuffled order; off-equator sets also carry the z pole."""
    v = rng.normal(size=(pairs + on_plane, 3))
    v[pairs:, 1] = 0.0
    if equatorial:
        v[:, 2] = 0.0
    axes = np.concatenate([v, v[:pairs] * np.array([1.0, -1.0, 1.0])]
                          + ([] if equatorial else [rc.E_Z[None, :]]))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return axes[rng.permutation(len(axes))]


@pytest.mark.parametrize("seed", range(12))
def test_symmetrizing_angles_recover_known_turn(seed):
    rng = np.random.default_rng(seed)
    axes = _mirror_symmetric_set(rng, int(rng.integers(1, 5)), int(rng.integers(0, 3)),
                                 equatorial=seed % 2 == 1)
    delta0 = rng.uniform(-np.pi, np.pi)
    turned = rc.rotate_about_z(axes, delta0)
    deltas = pf._symmetrizing_angles(turned)
    assert deltas == sorted(deltas) and all(0.0 <= d < 2 * np.pi for d in deltas)
    offsets = (np.array(deltas) + delta0) % np.pi
    assert np.min(np.minimum(offsets, np.pi - offsets)) < 1e-12
    for d in deltas:
        assert pf._mirror_asymmetry(rc.rotate_about_z(turned, d)) < 1e-9


def test_convert_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        pf.convert_m2_to_m4(catalog.nprime(5))      # antisymmetric, narrowband
    with pytest.raises(ValueError):
        pf.convert_m2_to_m4(catalog.derome())       # beta = pi/2 already
    with pytest.raises(ValueError):
        pf.convert_m2_to_m4(catalog.xy4())          # even length, not an inverter


def test_profile_csv_shape():
    text = pf.profile_csv(catalog.f1(), rc.E_Z, np.linspace(0, 2 * np.pi, 5))
    lines = text.strip().split("\n")
    assert lines[0] == "beta_prime,q,vx,vy,vz,err_deg"
    assert len(lines) == 6
    first = [float(t) for t in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-14
