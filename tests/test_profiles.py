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
    with pytest.raises(ValueError, match="nonempty"):
        pf.glide_reflection_check(catalog.f1(), catalog.f1(), grid=[])


def reference_glide_deviations(s, s_dual, grid=None, e_xi=rc.E_Z):
    """glide_reflection_deviations as it ran before one sweep per sequence:
    two q(pi) inverter checks, then three sweeps; kept as the reference."""
    def require_inverter(seq):
        q_pi = float(pf.q_values(seq, e_xi, [np.pi])[0])
        if abs(q_pi + 1.0) > 1e-8:
            raise ValueError(f"{seq.name!r} is not a nominal inverter of the probe "
                             f"vector (q(pi) = {q_pi:.6g})")

    grid = pf.DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    require_inverter(s)
    require_inverter(s_dual)
    qd = pf.q_values(s_dual, e_xi, grid)
    plus = float(np.max(np.abs(qd + pf.q_values(s, e_xi, np.pi + grid))))
    minus = float(np.max(np.abs(qd + pf.q_values(s, e_xi, np.pi - grid))))
    return plus, minus


def _turned_dual_pair(rng, n, turn):
    """A random odd equatorial pi-sequence and its toggling image, both
    turned by ``turn``, with the probe e_z turned the same way."""
    s = sm.sequence_from_phases("r", np.pi, rng.uniform(0, 2 * np.pi, n))
    s = sm.sequence_from_axes("s", np.pi, rc.quat_apply(turn.q, s.axes))
    return s, tg.toggling_map(s), rc.rotate(turn, rc.E_Z)


def test_glide_bit_identical_to_three_sweeps():
    rng = np.random.default_rng(56)
    pairs = [(catalog.f1(), sm.global_phase_shift(catalog.nb1_tpg(), 4 * np.arccos(-0.25)),
              rc.E_Z), (catalog.bprime(9), catalog.nprime(9), rc.E_Z)]
    turns = [rc.from_axis_angle(rc.E_Y, np.pi / 2), rc.from_axis_angle(rc.E_X, -np.pi / 2)]
    pairs += [_turned_dual_pair(rng, 2 * k + 1, turns[k % 2]) for k in range(4)]
    # an off-axis probe: numpy's (1, 3) @ (3,) product rounds differently from
    # a many-row one, so one-point grids (the old code's one-row sweeps) agree
    # to within an ulp of 1 only
    off_axis = [_turned_dual_pair(rng, 2 * k + 1, rc.from_rotation_vector(rng.normal(size=3)))
                for k in range(4)]
    for (s, dual, probe), exact in [(p, True) for p in pairs] + [(p, False) for p in off_axis]:
        for grid in (None, rng.uniform(-np.pi, np.pi, 40), [0.3]):
            got = pf.glide_reflection_deviations(s, dual, grid, probe)
            want = reference_glide_deviations(s, dual, grid, probe)
            if exact or grid is None or len(grid) > 1:
                assert got == want
            else:
                assert np.max(np.abs(np.subtract(got, want))) <= 2.3e-16


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no ValueError")


@pytest.mark.parametrize("case", ["s mixed", "s not inverter", "dual not inverter",
                                  "empty", "nan", "inf", "-inf"])
def test_glide_checks_in_the_old_order(case):
    # s before its dual, and the grid (nonempty, finite) after both
    good = catalog.f1()
    mixed = sm.sequence_from_phases("mixed", [np.pi, 0.5 * np.pi, np.pi], [0.0, 1.0, 2.0])
    s, dual = {"s mixed": (mixed, catalog.xy4()), "s not inverter": (catalog.xy4(), mixed),
               "dual not inverter": (good, catalog.xy4())}.get(case, (good, good))
    for grid in {"empty": [[]], "nan": [[0.1, np.nan]], "inf": [[np.inf, np.nan]],
                 "-inf": [[0.2, -np.inf]]}.get(case, [[], [np.nan], None]):
        want = _raised(lambda: reference_glide_deviations(s, dual, grid))
        assert _raised(lambda: pf.glide_reflection_deviations(s, dual, grid)) == want
        assert "\n" not in want


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


@pytest.mark.parametrize("name, balanced", [
    ("bprime(3)", True), ("bprime(7)", True), ("bprime(15)", True), ("tycko", True), ("u5", True),
    ("nb1_tpg", False),     # symmetric and odd but not broadband: converts, unbalanced
])
def test_convert_balances_broadband_inputs_only(name, balanced):
    out = pf.convert_m2_to_m4(catalog.named(name))
    dev = rc.rotation_angle_between(sm.net_propagator(out), rc.from_axis_angle(rc.E_X, np.pi))
    assert dev < 1e-8
    norm = np.linalg.norm(av.centroid(tg.toggling_map(out).axes))
    assert norm < 1e-12 if balanced else abs(norm - 0.375) < 1e-12


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
    """A known z-turn of the input is undone: the output is the plain
    input's or its order reversal (its xz mirror), and the final turn read
    off the net lands it where the reference's symmetrizing scan does."""
    rng = np.random.default_rng(seed)
    plain = sm.sequence_from_phases("r", np.pi, _symmetric_phases(rng, lattice=False))
    turned = sm.global_phase_shift(plain, rng.uniform(-np.pi, np.pi))
    out = pf.convert_m2_to_m4(turned).axes
    assert np.max(np.abs(out - reference_convert_m2_to_m4(turned)[0].axes)) < 1e-13
    base = pf.convert_m2_to_m4(plain).axes
    assert min(np.max(np.abs(out - base)), np.max(np.abs(out - base[::-1]))) < 1e-13


def reference_mirror_asymmetry(axes):
    """Set-wise distance of one axis set from its xz mirror image, as the
    symmetrizing scan called it once per candidate turn."""
    mirrored = axes * np.array([1.0, -1.0, 1.0])
    d2 = np.sum((mirrored[:, None, :] - axes[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.min(axis=1).max()))


def reference_symmetrizing_angles(axes):
    """Global z-turns in [0, 2pi), ascending, that make the axis set
    mirror-symmetric in the xz plane: the scan convert_m2_to_m4 used to
    take its final turn from, kept as the reference."""
    tol = 1e-9
    r = int(np.argmax(np.hypot(axes[:, 0], axes[:, 1])))
    phis = np.arctan2(axes[:, 1], axes[:, 0])
    half = -0.5 * (phis[r] + phis[np.abs(axes[:, 2] - axes[r, 2]) < tol])
    candidates = np.concatenate([half, half + np.pi]) % (2.0 * np.pi) % (2.0 * np.pi)
    turned = rc.rotate_about_z(axes, candidates[:, None])
    found = sorted(float(d) for d, t in zip(candidates, turned)
                   if reference_mirror_asymmetry(t) < tol)
    merged = []
    for d in found:
        if not merged or d - merged[-1] > tol:
            merged.append(d)
    if len(merged) > 1 and merged[-1] - merged[0] > 2.0 * np.pi - tol:
        merged.pop()
    return merged


def test_symmetrizing_angles_equal_per_candidate_loop():
    rng = np.random.default_rng(57)
    sets = [catalog.bprime(n).axes for n in (3, 7, 11, 15)]
    sets += [rc.rotate_about_z(_mirror_symmetric_set(rng, int(rng.integers(1, 6)),
                                                     int(rng.integers(0, 3)), k % 2 == 0),
                               rng.uniform(-np.pi, np.pi)) for k in range(30)]
    sets += [rng.normal(size=(7, 3)) for _ in range(5)]   # no symmetrizing turn
    sets += [_mirror_symmetric_set(rng, 25, 10, True)]
    for axes in sets:
        deltas = reference_symmetrizing_angles(axes)
        assert np.all(pf._mirror_asymmetry(rc.rotate_about_z(axes, np.c_[deltas])) < 1e-9)
        stack = rc.rotate_about_z(axes, rng.uniform(0, 2 * np.pi, (4, 1)))
        got = pf._mirror_asymmetry(stack)
        assert got.tolist() == [reference_mirror_asymmetry(a) for a in stack]


def reference_convert_m2_to_m4(s):
    """convert_m2_to_m4 with its scan over the symmetrizing turns, kept as
    the reference: the output and the final z-turn it took."""
    axis, _ = rc.to_axis_angle(sm.net_propagator(s))
    name = f"{s.name}->m4"
    s = sm.global_phase_shift(s, -np.arctan2(axis[1], axis[0]))
    r = sm.riffle(s)
    toggled = tg.toggle_axes(r.axes, r.betas)
    lifted = rc.quat_apply(rc.quat_from_axis_angle(rc.E_X, np.pi / 2.0), toggled)
    frame = sm.sequence_from_axes(name, np.pi / 2.0, np.roll(lifted, len(s), axis=0))
    candidate = tg.inverse_toggling_map(frame)
    for delta in reference_symmetrizing_angles(candidate.axes):
        axes = rc.rotate_about_z(candidate.axes, delta)
        out = sm.sequence_from_axes(name, np.full(2 * len(s), np.pi / 2.0), axes)
        ax, ang = rc.to_axis_angle(sm.net_propagator(out))
        if abs(ang - np.pi) < 1e-6 and abs(abs(ax[0]) - 1.0) < 1e-6:
            return out, delta
    raise ValueError("no xz-symmetrizing z-rotation yields a (pi)_x net rotation")


def _symmetric_phases(rng, lattice):
    """An order-reversal-symmetric phase list of odd length 3..15, uniform
    or on the pi/6 lattice."""
    half = int(rng.integers(2, 9))
    head = rng.integers(0, 12, half) * np.pi / 6 if lattice else rng.uniform(0, 2 * np.pi, half)
    return np.concatenate([head, head[-2::-1]])


def _assert_conversion_contract(out, n):
    assert len(out) == 2 * n
    assert np.allclose(out.betas, np.pi / 2)
    assert rc.rotation_angle_between(sm.net_propagator(out),
                                     rc.from_axis_angle(rc.E_X, np.pi)) < 1e-8
    assert np.max(np.abs(out.axes[::-1] * [1.0, -1.0, 1.0] - out.axes)) < 1e-9   # antisymmetric


@pytest.mark.parametrize("make", [
    *[lambda n=n: catalog.bprime(n) for n in (3, 5, 7, 9, 11, 15, 21)],
    catalog.tycko, catalog.u5,
    lambda: sm.global_phase_shift(catalog.bprime(5), np.pi / 7),
    lambda: sm.global_phase_shift(catalog.bprime(9), -2.0),
])
def test_convert_matches_the_scan_on_named_inputs(make):
    s = make()
    ref, _ = reference_convert_m2_to_m4(s)
    out = pf.convert_m2_to_m4(s)
    assert out.name == ref.name
    assert np.max(np.abs(out.axes - ref.axes)) < 1e-13


def test_convert_matches_the_scan_on_random_symmetric_lists():
    rng = np.random.default_rng(1606)
    compared = 0
    while compared < 200:
        s = sm.sequence_from_phases("r", np.pi, _symmetric_phases(rng, lattice=False))
        ref, delta = reference_convert_m2_to_m4(s)
        if min(delta % np.pi, np.pi - delta % np.pi) <= 1e-9:
            continue   # the pi-lattice tie, checked below
        assert np.max(np.abs(pf.convert_m2_to_m4(s).axes - ref.axes)) < 1e-13
        compared += 1


def test_convert_on_the_lattice_meets_the_contract_up_to_a_pi_turn():
    rng = np.random.default_rng(6)
    flipped = 0
    for _ in range(150):
        phases = _symmetric_phases(rng, lattice=True)
        s = sm.sequence_from_phases("lattice", np.pi, phases)
        ref, _ = reference_convert_m2_to_m4(s)
        out = pf.convert_m2_to_m4(s)
        _assert_conversion_contract(ref, len(phases))
        _assert_conversion_contract(out, len(phases))
        if np.max(np.abs(out.axes - ref.axes)) >= 1e-13:
            assert np.max(np.abs(out.axes - rc.rotate_about_z(ref.axes, np.pi))) < 1e-13
            flipped += 1
    assert flipped > 0   # the scan's rounding-dependent pick does occur here


def test_convert_lattice_tie_takes_the_zero_turn():
    s = sm.sequence_from_phases("tie", np.pi, np.array([0.5, 0.5, 0.0, 0.5, 0.5]) * np.pi)
    out = pf.convert_m2_to_m4(s)
    want = np.array([0, 1, 1, 1, 1, 3, 3, 3, 3, 0]) * np.pi / 2
    assert np.max(np.abs(np.angle(np.exp(1j * (out.phases - want))))) < 1e-12
    ref, delta = reference_convert_m2_to_m4(s)
    assert abs(delta - np.pi) < 1e-9   # the scan took the pi turn
    assert np.max(np.abs(out.axes - rc.rotate_about_z(ref.axes, np.pi))) < 1e-13


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
    with pytest.raises(ValueError, match="nonempty"):
        pf.profile_csv(catalog.f1(), rc.E_Z, [])


def _profile_csv_reference(s, e_xi, grid):
    """profile_csv as a loop over grid points, one Rotation and one scalar
    SO(3) distance per point."""
    quats = sm.net_quaternions(s, grid)
    finals = rc.quat_apply(quats, e_xi)
    nominal = sm.net_propagator(s)
    lines = ["beta_prime,q,vx,vy,vz,err_deg"]
    for bp, qv, v, qq in zip(grid, finals @ e_xi, finals, quats):
        _, angle = rc.to_axis_angle(rc.compose(rc.inverse(nominal), rc.Rotation(qq)))
        lines.append(",".join(f"{x:.17g}" for x in
                              (float(bp), float(qv), v[0], v[1], v[2], np.degrees(angle))))
    return "\n".join(lines) + "\n"


def _random_equatorial(rng):
    n = int(rng.integers(1, 10))
    beta = float(rng.choice([np.pi, np.pi / 2, 2 * np.pi / 3, rng.uniform(0.3, 2 * np.pi)]))
    return sm.sequence_from_phases("r", beta, rng.uniform(0, 2 * np.pi, n))


def test_profile_csv_matches_point_loop_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(6):
        s = _random_equatorial(rng)
        beta = s.uniform_beta()
        grid = np.sort(np.concatenate([rng.uniform(0, 2 * np.pi, 60), [0.0, beta, np.pi]]))
        for e_xi in (rc.E_X, rc.E_Y, rc.E_Z):
            assert pf.profile_csv(s, e_xi, grid) == _profile_csv_reference(s, e_xi, grid)
    s = catalog.bprime(11)
    assert pf.profile_csv(s) == _profile_csv_reference(s, rc.E_Z, pf.DEFAULT_GRID)


def test_q_values_do_not_depend_on_the_grid_size():
    rng = np.random.default_rng(62)
    probe = rc.unit_vector(rng.normal(size=3))
    for s in (catalog.f1(), catalog.bprime(11), _random_equatorial(rng)):
        full = pf.q_values(s, probe, pf.DEFAULT_GRID)
        for i, bp in enumerate(pf.DEFAULT_GRID.tolist()):
            assert pf.q_values(s, probe, [bp]).tobytes() == full[i:i + 1].tobytes()
        # a scalar grid is a sweep of one point
        assert pf.q_values(s, probe, np.pi).tobytes() == pf.q_values(s, probe, [np.pi]).tobytes()


def test_q_profile_rotations_equal_per_point_constructors():
    s = catalog.nb1_tpg()
    grid = np.linspace(0, 2 * np.pi, 37)
    samples = pf.q_profile(s, rc.E_Y, grid)
    quats = sm.net_quaternions(s, grid)
    assert [p.beta_prime for p in samples] == grid.tolist()
    assert all(p.net_rotation.q.tobytes() == rc.Rotation(qq).q.tobytes()
               for p, qq in zip(samples, quats))


def test_profile_sample_is_built_from_a_rotation():
    # the constructor takes the net as a Rotation, as q_profile's samples give it back
    p = pf.q_profile(catalog.f1(), rc.E_Z, [1.0])[0]
    rebuilt = pf.ProfileSample(p.beta_prime, p.q, p.final_vector, p.net_rotation)
    assert rebuilt.net_rotation.q.tobytes() == p.net_rotation.q.tobytes()
    assert (rebuilt.beta_prime, rebuilt.q, rebuilt.final_vector) == (1.0, p.q, p.final_vector)
    assert repr(rebuilt) == repr(p) and repr(p).startswith("ProfileSample(beta_prime=1.0, q=")
    with pytest.raises(AttributeError):
        p.q = 0.0


ERROR_DEG_TOL = 1e-12   # swept residual angles against per-point chains, in degrees


def test_rotation_errors_match_scalar_errors():
    rng = np.random.default_rng(67)
    for _ in range(5):
        s = _random_equatorial(rng)
        beta = s.uniform_beta()
        target = sm.net_propagator(s)
        bps = np.concatenate([rng.uniform(0.5, 1.5, 20) * beta, [beta]])
        want = [float(np.degrees(rc.to_axis_angle(rc.compose(
            rc.inverse(target), sm.net_propagator(s, bp / beta)))[1])) for bp in bps]
        got = pf.rotation_errors(s, bps, target)
        assert np.max(np.abs(got - want)) <= ERROR_DEG_TOL
        assert [pf.rotation_error(s, bp, target) for bp in bps] == got.tolist()
        assert want[-1] == 0.0 and got[-1] == 0.0
        assert pf.rotation_errors(s, bps[0], target).tolist() == got[:1].tolist()   # scalar grid


@pytest.mark.parametrize("call, says", [
    pytest.param(lambda: pf.profile_csv(catalog.f1(), grid=[np.inf]), "grid must be finite",
                 id="profile-csv-inf"),
    pytest.param(lambda: pf.q_values(catalog.f1(), rc.E_Z, [0.0, np.nan]), "grid must be finite",
                 id="q-values-nan"),
    pytest.param(lambda: pf.glide_reflection_check(catalog.f1(), catalog.nb1_tpg(),
                                                   grid=[-np.inf]), "grid must be finite",
                 id="glide-inf"),
    pytest.param(lambda: pf.rotation_errors(catalog.f1(), [np.inf], rc.IDENTITY),
                 "flip-angle grid must be finite", id="rotation-errors-inf"),
    pytest.param(lambda: pf.trajectory(catalog.f1(), rc.E_Z, np.inf),
                 "scaled flip angles must be finite", id="trajectory-inf"),
])
def test_sweeps_reject_non_finite_grids_with_one_line(call, says):
    with pytest.raises(ValueError, match=says) as info:
        call()
    assert "\n" not in str(info.value)
