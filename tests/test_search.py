"""Polyhedral synthesis: enumeration, target matching, deduplication."""

import itertools

import numpy as np
import pytest

from togglekit import catalog, profiles as pf, rotcore as rc, search as se, seqmodel as sm, toggling as tg

CYC = rc.from_axis_angle(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), 2 * np.pi / 3)
PI0 = rc.from_axis_angle(rc.E_X, np.pi)


def test_axis_sets_are_unit_and_distinct():
    for build in se.BUILTIN_AXIS_SETS.values():
        s = build()
        assert np.allclose(np.linalg.norm(s.vertices, axis=1), 1.0)
    with pytest.raises(ValueError):
        se.AxisSet("dup", np.array([[1, 0, 0], [1, 0, 0.0]]))


def test_search_spec_validation():
    with pytest.raises(ValueError):
        se.SearchSpec(se.tetrahedron(), 0, 3, PI0)
    with pytest.raises(ValueError):
        se.SearchSpec(se.tetrahedron(), 4, 3, PI0, balance_mode="bogus")
    with pytest.raises(ValueError):
        se.SearchSpec(se.tetrahedron(), 4, 3, "bogus_target")


@pytest.mark.parametrize("n, m, target", [
    (4, 3, (rc.E_X, np.pi)),      # an (axis, angle) pair is not a Rotation
    (4, 3, None),
    (4, 3, 3.0),
    (4.0, 3, "equatorial_pi"),
    (4, 3.0, "equatorial_pi"),
    (True, 3, "equatorial_pi"),
    (4, True, "equatorial_pi"),
    (4, "3", "equatorial_pi"),
])
def test_search_spec_rejects_wrong_types(n, m, target):
    with pytest.raises(ValueError):
        se.SearchSpec(se.diagonal_quad(), n, m, target)


def test_search_spec_keeps_integer_orders():
    spec = se.SearchSpec(se.diagonal_quad(), np.int64(4), np.int32(3), PI0)
    assert type(spec.n) is int and type(spec.m) is int
    assert [s.cycle_order for s in se.enumerate_balanced(spec)] == [3, 3]


@pytest.mark.parametrize("vertices", [
    [[1.0, 0, 0], [0, 1.0, 0], [np.nan, 0, 0]],
    [[1.0, 0, 0], [0, np.inf, 0]],
    np.eye(4),
    [1.0, 0, 0],
    np.zeros((0, 3)),
    [[[1.0, 0, 0]]],
])
def test_axis_set_rejects_malformed_vertices(vertices):
    with pytest.raises(ValueError):
        se.AxisSet("bad", vertices)


def test_state_guard_bounds_each_level():
    # non-closing generators (2pi/5 on cube vertices) pass the bound at a
    # level of the walk; octahedron n=12 has 4 557 888 candidate tuples,
    # refused before they are expanded
    for spec, level in ((se.SearchSpec(se.cube(), 12, 5, "axis_cycling", "z_only"), 7),
                        (se.SearchSpec(se.octahedron(), 12, 4, "equatorial_pi"), 12)):
        with pytest.raises(ValueError, match=f"search level {level} needs .* candidate states"):
            se.enumerate_balanced(spec)


def test_tetrahedron_search_finds_p34():
    res = se.enumerate_balanced(se.SearchSpec(se.tetrahedron(), 4, 3, CYC))
    assert any(sm.sequences_equal(s, catalog.p34()) for s in res)


def test_diagonal_quad_search_finds_i34():
    res = se.enumerate_balanced(se.SearchSpec(se.diagonal_quad(), 4, 3, PI0))
    assert any(sm.sequences_equal(s, catalog.i34()) for s in res)


def test_octahedron_search_finds_derome():
    res = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"))
    assert any(sm.sequences_equal(s, catalog.derome()) for s in res)


def test_axis_cycling_search_finds_p46_variants():
    res = se.nonequatorial_search(se.SearchSpec(se.octahedron(), 6, 4, "axis_cycling"))
    assert any(sm.sequences_equal(s, catalog.p46()) for s in res)
    assert any(sm.sequences_equal(s, catalog.p46_prime()) for s in res)


def test_nonequatorial_search_needs_axis_cycling_target():
    with pytest.raises(ValueError):
        se.nonequatorial_search(se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"))


def test_results_satisfy_contract():
    # balance of the toggled axes, net within tolerance, and compensation:
    # smaller error at 1.1x nominal than a bare rotation with the same target
    res = se.enumerate_balanced(se.SearchSpec(se.tetrahedron(), 4, 3, CYC))
    beta = 2 * np.pi / 3
    single = sm.sequence_from_axes("one", beta, np.array([[1, 1, 1]]) / np.sqrt(3))
    bare = pf.rotation_error(single, 1.1 * beta, CYC)
    for s in res:
        toggled = tg.toggling_map(s).axes
        assert np.linalg.norm(toggled.mean(axis=0)) < 1e-9
        assert rc.rotation_angle_between(sm.net_propagator(s), CYC) < 1e-8
        assert pf.rotation_error(s, 1.1 * beta, CYC) < bare


def test_exhaustive_spot_check():
    # a z-rotated copy of a known solution's toggled tuple must be found
    res = se.enumerate_balanced(se.SearchSpec(se.diagonal_quad(), 4, 3, PI0))
    known = catalog.i34()
    perms = {tuple(np.round(tg.toggling_map(s).axes, 6).flatten()) for s in res}
    assert tuple(np.round(tg.toggling_map(known).axes, 6).flatten()) in perms


def test_z_only_balance_mode_is_weaker():
    full = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 4, 4, "equatorial_pi"))
    zonly = se.enumerate_balanced(
        se.SearchSpec(se.octahedron(), 4, 4, "equatorial_pi", balance_mode="z_only"))
    assert len(zonly) >= len(full)


def test_dedupe_global_z_merges_rotated_copies():
    s = catalog.derome()
    rotated = sm.global_phase_shift(s, 1.234)
    out = se.dedupe([s, rotated, s], "global_z")
    assert len(out) == 1
    assert se.dedupe([], "global_z") == []


def test_dedupe_none_keeps_distinct():
    s = catalog.derome()
    rotated = sm.global_phase_shift(s, 1.234)
    assert len(se.dedupe([s, rotated], "none")) == 2


def test_dedupe_axis_set_rotations_merges_mirror():
    s = catalog.derome()
    mirrored = s.with_axes(s.axes * np.array([1.0, -1.0, 1.0]))
    assert len(se.dedupe([s, mirrored], "axis_set_rotations")) == 1
    assert len(se.dedupe([s, mirrored], "global_z")) == 2


def test_dedupe_unknown_symmetry():
    with pytest.raises(ValueError):
        se.dedupe([], "bogus")


def test_octahedral_group_size():
    assert len(se._OCTAHEDRAL) == 24


# ---------------------------------------------------------------------------
# reference: the k^n odometer and the per-sequence dedupe the walk replaced
# ---------------------------------------------------------------------------

def _odometer_reference(spec):
    """Every tuple decoded in odometer order, then the float balance test,
    the reverse transform and the target test; sequences built one by one."""
    verts = spec.axis_set.vertices
    k, n = len(verts), spec.n
    idx = np.arange(k ** n, dtype=np.int64)
    digits = np.empty((idx.size, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = idx % k
        idx //= k
    tuples = verts[digits]
    sums = tuples.sum(axis=1)
    if spec.balance_mode == "full":
        keep = np.linalg.norm(sums, axis=1) < n * se.BALANCE_SUM_TOL
    else:
        keep = np.abs(sums[:, 2]) < n * se.BALANCE_SUM_TOL
    tuples = tuples[keep]
    if tuples.size == 0:
        return []
    axes, nets = tg.inverse_toggle_axes(tuples, spec.beta)
    return [sm.sequence_from_axes(f"{spec.axis_set.name}-{spec.m}-{j}", spec.beta, a)
            for j, a in enumerate(axes[se._target_mask(spec, nets)])]


def _round_key(axes):
    r = np.round(axes, 9) + 0.0
    return tuple(map(tuple, r))


def _z_canonical(axes):
    equatorial = axes[np.abs(axes[:, 2]) <= 1e-9]
    if len(equatorial) == 0:
        return min(_round_key(axes @ g.T) for g in se._OCTAHEDRAL)
    deltas = -np.arctan2(equatorial[:, 1], equatorial[:, 0])
    return min(map(_round_key, rc.rotate_about_z(axes, deltas[:, None])))


def _dedupe_reference(results, symmetry):
    seen = {}
    for seq in results:
        if symmetry == "none":
            key = _round_key(seq.axes)
        elif symmetry == "global_z":
            key = _z_canonical(seq.axes)
        else:
            key = min(_round_key(seq.axes @ g.T) for g in se._OCTAHEDRAL)
        seen.setdefault(key, seq)
    return list(seen.values())


def _vertex_product(verts, digits, beta):
    """R(beta, f_0) R(beta, f_1) ... R(beta, f_{n-1}) for (B, n) index tuples."""
    steps = rc.quat_from_axis_angle(verts, np.full(len(verts), beta))
    q = rc.quat_identity((len(digits),))
    for i in range(digits.shape[1]):
        q = rc.quat_mul(q, steps[digits[:, i]])
    return q


def _assert_same_results(got, want):
    assert [s.name for s in got] == [s.name for s in want]
    assert [s.cycle_order for s in got] == [s.cycle_order for s in want]
    for a, b in zip(got, want):
        assert a.axes.tobytes() == b.axes.tobytes()
        assert a.betas.tobytes() == b.betas.tobytes()


@pytest.mark.parametrize("set_name", sorted(se.BUILTIN_AXIS_SETS))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_walk_matches_odometer_reference(set_name, m):
    # seeded small specs over both balance modes and all three target kinds;
    # the rotation target is the vertex product of a random balanced tuple
    rng = np.random.default_rng(1000 * m + len(set_name))
    axis_set = se.BUILTIN_AXIS_SETS[set_name]()
    verts, k = axis_set.vertices, len(axis_set)
    found = 0
    for n in range(1, 6 if k <= 6 else 5):
        digits = np.array(list(itertools.product(range(k), repeat=n)))
        balanced = digits[np.linalg.norm(verts[digits].sum(axis=1), axis=1) < 1e-9]
        pick = balanced if len(balanced) else digits
        net = _vertex_product(verts, pick[[rng.integers(len(pick))]], 2 * np.pi / m)[0]
        for target in (rc.Rotation(net), "equatorial_pi", "axis_cycling"):
            for balance in ("full", "z_only"):
                spec = se.SearchSpec(axis_set, n, m, target, balance)
                got = se.enumerate_balanced(spec)
                _assert_same_results(got, _odometer_reference(spec))
                found += len(got)
    assert found > 0


def test_reversed_vertex_product_is_the_net():
    rng = np.random.default_rng(7)
    for build in se.BUILTIN_AXIS_SETS.values():
        verts = build().vertices
        for n in range(1, 11):
            digits = rng.integers(len(verts), size=(200, n))
            beta = 2 * np.pi / rng.integers(2, 6)
            _, nets = tg.inverse_toggle_axes(verts[digits], beta)
            prod = _vertex_product(verts, digits, beta)
            signs = np.where(np.sum(nets * prod, axis=1) < 0, -1.0, 1.0)
            assert np.max(np.abs(nets - signs[:, None] * prod)) < 1e-14


def _synthesis_mix():
    specs = [se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"),
             se.SearchSpec(se.octahedron(), 4, 4, "axis_cycling", "z_only"),
             se.SearchSpec(se.diagonal_quad(), 4, 3, "equatorial_pi", "z_only"),
             se.SearchSpec(se.cube(), 4, 3, "axis_cycling"),
             se.SearchSpec(se.octahedron(), 3, 2, PI0, "z_only"),
             se.SearchSpec(se.octahedron(), 5, 4, "equatorial_pi", "z_only")]
    return [s for spec in specs for s in se.enumerate_balanced(spec)]


@pytest.mark.parametrize("symmetry", ["global_z", "axis_set_rotations", "none"])
def test_dedupe_matches_per_sequence_reference(symmetry):
    rng = np.random.default_rng(3)
    mixed = _synthesis_mix()
    shuffled = [mixed[i] for i in rng.permutation(len(mixed))]
    # turned copies, so that global_z has classes to merge across phases
    turned = [sm.global_phase_shift(s, float(rng.uniform(0, 2 * np.pi))) for s in mixed[:40]]
    no_equatorial = se.enumerate_balanced(se.SearchSpec(se.cube(), 6, 3, "axis_cycling"))
    assert not any(np.any(np.abs(s.axes[:, 2]) <= 1e-9) for s in no_equatorial)
    for results in (mixed, shuffled + turned, no_equatorial, []):
        got, want = se.dedupe(results, symmetry), _dedupe_reference(results, symmetry)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    assert len({len(s) for s in mixed}) == 4
