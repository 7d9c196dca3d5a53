"""Polyhedral synthesis: enumeration, target matching, deduplication."""

import hashlib
import itertools

import numpy as np
import pytest

from test_toggling import reference_inverse_toggle_axes
from togglekit import catalog, cli, profiles as pf, rotcore as rc, search as se, seqmodel as sm, \
    toggling as tg

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
    res = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 6, 4, "axis_cycling"))
    assert any(sm.sequences_equal(s, catalog.p46()) for s in res)
    assert any(sm.sequences_equal(s, catalog.p46_prime()) for s in res)


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


def test_search_and_dedupe_build_no_pulse_elements(built_elements):
    raw = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"))
    unique = se.dedupe(raw)
    assert len(raw) > len(unique) > 0 and len(built_elements) == 0
    sm.PulseElement(1.0, rc.E_X)   # the fixture counts the elements that are built
    assert len(built_elements) == 1


def test_stack_reads_like_a_list_of_its_rows(built_sequences):
    stack = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"))
    n = len(stack)
    assert isinstance(stack, sm.SequenceStack) and n == 80 and len(built_sequences) == 0
    subs = [stack[2:60:7], stack[::-3], stack[np.array([5, 0, 5, 79])],
            stack[np.arange(n) % 3 == 1], stack[10:][::-2][4:9], stack[[]]]
    assert len(built_sequences) == 0
    assert all(isinstance(sub, sm.SequenceStack) and sub._axes is stack._axes for sub in subs)
    rows = list(stack)
    assert len(built_sequences) == n
    for i in (0, 1, 37, n - 1, -1, -n):
        _assert_same_results([stack[i]], [rows[i]])
    _assert_same_results(rows, [stack[i] for i in range(n)])
    assert [s.name for s in rows] == [f"octahedron-4-{i}" for i in range(n)]
    picks = [range(2, 60, 7), range(n - 1, -1, -3), [5, 0, 5, 79], range(1, n, 3),
             list(range(10, n))[::-2][4:9], []]
    for sub, pick in zip(subs, picks):
        assert len(sub) == len(pick)
        _assert_same_results(sub, [rows[i] for i in pick])
        _assert_same_results([sub[j] for j in range(-len(sub), 0)], [rows[i] for i in pick])
        assert sub.axes.tobytes() == b"".join(rows[i].axes.tobytes() for i in pick)
    for i in (n, -n - 1, 10 ** 9):
        with pytest.raises(IndexError, match="out of range"):
            stack[i]
    with pytest.raises(IndexError):
        stack[np.zeros((2, 2), dtype=np.intp)]
    with pytest.raises(TypeError, match="no public constructor"):
        sm.SequenceStack()


def test_empty_search_is_an_empty_stack(built_sequences):
    empty = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 3, 4, "equatorial_pi"))
    assert isinstance(empty, sm.SequenceStack) and len(empty) == 0 and not empty
    assert list(empty) == [] and empty.axes.shape == (0, 3, 3) and len(empty[:]) == 0
    for symmetry in ("global_z", "axis_set_rotations", "none"):
        unique = se.dedupe(empty, symmetry)
        assert isinstance(unique, sm.SequenceStack) and len(unique) == 0
    with pytest.raises(IndexError):
        empty[0]
    assert len(built_sequences) == 0


@pytest.mark.parametrize("n", [1, 3])
def test_search_without_a_balanced_tuple_skips_the_chain(monkeypatch, n):
    calls, chain = [], se.inverse_toggle_axes

    def counted(*args, **kwargs):
        calls.append(args)
        return chain(*args, **kwargs)

    monkeypatch.setattr(se, "inverse_toggle_axes", counted)
    empty = se.enumerate_balanced(se.SearchSpec(se.octahedron(), n, 4, "equatorial_pi"))
    assert calls == []
    assert isinstance(empty, sm.SequenceStack) and len(empty) == 0
    assert empty.axes.shape == (0, n, 3)
    assert se.enumerate_balanced(se.SearchSpec(se.tetrahedron(), 4, 3, se.AXIS_CYCLING))
    assert len(calls) == 1   # the counter counts


@pytest.mark.parametrize("symmetry", ["global_z", "axis_set_rotations", "none"])
def test_dedupe_of_a_stack_equals_dedupe_of_its_rows(symmetry):
    rng = np.random.default_rng(17)
    for spec in (se.SearchSpec(se.octahedron(), 6, 4, "equatorial_pi"),
                 se.SearchSpec(se.cube(), 6, 3, "axis_cycling"),
                 se.SearchSpec(se.octahedron(), 5, 4, "equatorial_pi", "z_only")):
        stack = se.enumerate_balanced(spec)
        # a shuffled sub-stack with repeats: the first of each class in its order
        for results in (stack, stack[rng.integers(len(stack), size=2 * len(stack))]):
            got = se.dedupe(results, symmetry)
            assert isinstance(got, sm.SequenceStack) and 0 < len(got) <= len(results)
            _assert_same_results(got, se.dedupe(list(results), symmetry))


def test_search_and_dedupe_build_no_sequences(built_sequences):
    raw = se.enumerate_balanced(se.SearchSpec(se.octahedron(), 8, 4, "equatorial_pi"))
    unique = se.dedupe(raw)
    assert len(raw) == 3904 and len(unique) == 976 and len(built_sequences) == 0
    assert unique[0].name == "octahedron-4-0" and len(built_sequences) == 1


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
    return [sm.RotationSequence(f"{spec.axis_set.name}-{spec.m}-{j}",
                                [sm.PulseElement(spec.beta, e) for e in a], spec.m)
            for j, a in enumerate(axes[_target_mask_reference(spec, nets)])]


def _walk_reference(spec):
    """The walk before the affine step: quaternions stepped by quat_mul and
    partial sums by a broadcast add, kept as separate arrays, and the target
    test on every row of the last level."""
    verts = spec.axis_set.vertices
    k, n = len(verts), spec.n
    steps = rc.quat_from_axis_angle(verts, np.full(k, spec.beta))
    part = verts if spec.balance_mode == "full" else verts[:, 2:]
    reach = float(np.linalg.norm(part, axis=1).max())
    quats, sums = rc.quat_identity((1,)), np.zeros((1, part.shape[1]))
    tables = []
    for level in range(1, n + 1):
        rows = len(quats) * k
        se._check_level(level, rows)
        q = rc.quat_mul(quats[:, None, :], steps[None, :, :]).reshape(rows, 4)
        s = (sums[:, None, :] + part[None, :, :]).reshape(rows, -1)
        dist = np.linalg.norm(s, axis=1)
        if level == n:
            accept = (dist < se.WALK_TOL) & se._target_mask(spec, q, se.WALK_TOL)
            break
        keep = np.flatnonzero(dist <= (n - level) * reach + se.WALK_TOL)
        if keep.size == 0:
            return np.empty((0, n), dtype=np.intp)
        qk = np.rint(q[keep] * se._KEY_SCALE).astype(np.int64)
        lead = qk[np.arange(len(qk)), (qk != 0).argmax(axis=1)]
        qk[lead < 0] *= -1
        keys = np.concatenate([qk, np.rint(s[keep] * se._KEY_SCALE).astype(np.int64)], axis=1)
        first, inverse = se._unique_rows(keys)
        table = np.full(rows, len(first))
        table[keep] = inverse
        tables.append(table.reshape(-1, k))
        quats, sums = q[keep[first]], s[keep[first]]
    edges = [accept.reshape(-1, k)]
    for table in reversed(tables):
        alive = np.append(edges[0].any(axis=1), False)
        edges.insert(0, alive[table])
    paths, digits = np.zeros(1, dtype=np.intp), np.empty((1, 0), dtype=np.intp)
    for level, live in enumerate(edges):
        r, c = np.nonzero(live[paths])
        digits = np.column_stack([digits[r], c])
        if level < n - 1:
            paths = tables[level][paths[r], c]
    return digits


def _target_mask_reference(spec, net_quats, tol=se.NET_MATCH_TOL):
    """The target test before it ran on quat_angle_between: its own log map
    for a Rotation, and the action on the basis vectors for axis cycling."""
    if isinstance(spec.target, rc.Rotation):
        resid = rc.quat_mul(rc.quat_conj(spec.target.q)[None, :], net_quats)
        angles = 2.0 * np.arctan2(np.linalg.norm(resid[:, 1:], axis=1), np.abs(resid[:, 0]))
        return angles < tol
    if spec.target == "equatorial_pi":
        return (np.abs(net_quats[:, 0]) < tol / 2.0) & (np.abs(net_quats[:, 3]) < tol / 2.0)
    ex = rc.quat_apply(net_quats, rc.E_X)
    ey = rc.quat_apply(net_quats, rc.E_Y)
    ez = rc.quat_apply(net_quats, rc.E_Z)
    err = np.maximum(np.linalg.norm(ex - rc.E_Y, axis=1),
                     np.maximum(np.linalg.norm(ey - rc.E_Z, axis=1),
                                np.linalg.norm(ez - rc.E_X, axis=1)))
    return err < tol


@pytest.mark.parametrize("set_name, n, m, target, balance", [
    # the golden CLI searches with a rotation or axis-cycling target
    ("tetrahedron", 4, 3, "1,1,1:2.0943951023931953", "full"),
    ("cube", 4, 3, "axis_cycling", "full"),
    ("tetrahedron", 4, 3, "axis_cycling", "z_only"),
    # criterion 9
    ("tetrahedron", 4, 3, "AXIS_CYCLING", "full"),
    ("diagonal_quad", 4, 3, "1,0,0:3.141592653589793", "full"),
    ("octahedron", 6, 4, "axis_cycling", "full"),
    # cube n = 6
    ("cube", 6, 3, "axis_cycling", "full"),
    ("cube", 6, 3, "axis_cycling", "z_only"),
])
def test_target_tests_match_the_reference_mask(monkeypatch, set_name, n, m, target, balance):
    if target == "AXIS_CYCLING":
        target = se.AXIS_CYCLING
    elif target != "axis_cycling":
        target = cli._target_from_string(target)
    spec = se.SearchSpec(se.BUILTIN_AXIS_SETS[set_name](), n, m, target, balance)
    got = se.enumerate_balanced(spec)
    monkeypatch.setattr(se, "_target_mask", _target_mask_reference)
    want = se.enumerate_balanced(spec)
    assert len(want) > 0
    _assert_same_results(got, want)


def test_axis_cycling_constant_cycles_the_basis():
    for e, image in ((rc.E_X, rc.E_Y), (rc.E_Y, rc.E_Z), (rc.E_Z, rc.E_X)):
        assert np.max(np.abs(rc.rotate(se.AXIS_CYCLING, e) - image)) < 1e-15


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
                assert np.array_equal(se._walk(spec), _walk_reference(spec))
                got = se.enumerate_balanced(spec)
                _assert_same_results(got, _odometer_reference(spec))
                found += len(got)
    assert found > 0


@pytest.mark.parametrize("set_name, n, m, target, found", [
    ("octahedron", 8, 4, "equatorial_pi", 3904),
    # pi/2 turns about tetrahedral axes generate no finite group: no states
    # merge, and no tuple reaches the target
    ("tetrahedron", 8, 4, "equatorial_pi", 0),
    ("cube", 6, 3, "axis_cycling", 360),
])
def test_walk_matches_the_quat_mul_walk(monkeypatch, set_name, n, m, target, found):
    spec = se.SearchSpec(se.BUILTIN_AXIS_SETS[set_name](), n, m, target)
    got, want = se._walk(spec), _walk_reference(spec)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(se.enumerate_balanced(spec)) == found
    # the states each level merges: equal keys, so equal tables
    seen, group = [], se._unique_rows
    monkeypatch.setattr(se, "_unique_rows", lambda keys: seen.append(keys) or group(keys))
    se._walk(spec)
    half = len(seen)
    _walk_reference(spec)
    assert half == len(seen) - half == n - 1
    for a, b in zip(seen[:half], seen[half:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("set_name", sorted(se.BUILTIN_AXIS_SETS))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("balance", ["full", "z_only"])
def test_step_matrix_is_quat_mul_and_an_exact_sum(set_name, m, balance):
    rng = np.random.default_rng(m)
    spec = se.SearchSpec(se.BUILTIN_AXIS_SETS[set_name](), 3, m, "equatorial_pi", balance)
    verts, k = spec.axis_set.vertices, len(spec.axis_set)
    part = verts if balance == "full" else verts[:, 2:]
    step = se._step_matrix(spec)
    width = 5 + part.shape[1]
    assert step.shape == (width, k * width)
    states = np.ones((500, width))
    states[:, :4] = rc.quat_normalize(rng.normal(size=(500, 4)))
    states[:, 4:-1] = rng.normal(size=(500, part.shape[1])) * 10.0 ** rng.integers(-3, 3, (500, 1))
    stepped = (states @ step).reshape(500, k, width)
    steps = rc.quat_from_axis_angle(verts, np.full(k, spec.beta))
    want = rc.quat_mul(states[:, None, :4], steps[None, :, :])
    assert np.max(np.abs(stepped[..., :4] - want)) < 4e-16
    sums = states[:, None, 4:-1] + part[None, :, :]
    assert np.array_equal(stepped[..., 4:-1], sums)
    assert np.all(stepped[..., -1] == 1.0)


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
    assert isinstance(no_equatorial, sm.SequenceStack)
    for results in (mixed, shuffled + turned, []):
        got, want = se.dedupe(results, symmetry), _dedupe_reference(results, symmetry)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    # a stack's rows are built on every read, so they are equal, not identical
    got = se.dedupe(no_equatorial, symmetry)
    assert isinstance(got, sm.SequenceStack)
    _assert_same_results(got, _dedupe_reference(no_equatorial, symmetry))
    assert len({len(s) for s in mixed}) == 4


# ---------------------------------------------------------------------------
# reference: np.unique over structured rows and the matmul octahedral images
# that the lexsort row grouping and the signed-permutation gather replaced
# ---------------------------------------------------------------------------

def _unique_rows_reference(keys):
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _octahedral_keys_reference(axes):
    best = np.full((len(axes), axes.shape[1] * 3), np.inf)
    for g in se._OCTAHEDRAL:
        best = se._lex_min(best, se._rounded(axes @ g.T))
    return best


def _walk_state_keys(monkeypatch, spec):
    """The key arrays the walk of one search groups, level by level."""
    seen, group = [], se._unique_rows
    monkeypatch.setattr(se, "_unique_rows", lambda keys: seen.append(keys.copy()) or group(keys))
    se._walk(spec)
    monkeypatch.undo()
    return seen


def test_unique_rows_matches_np_unique(monkeypatch):
    rng = np.random.default_rng(11)
    ties = rng.integers(-1, 2, size=(5000, 7)).astype(np.int64)      # many repeated rows
    ties[:, :3] = 0
    ties[:, 0] = rng.choice([-10 ** 12, -3, 7, 10 ** 12], size=5000)
    floats = np.round(rng.choice([-0.5, -0.0, 0.0, 1 / 3, 2 / 3], size=(3000, 12)), 9) + 0.0
    cases = [ties, floats, ties[:1], floats[:1],
             *_walk_state_keys(monkeypatch, se.SearchSpec(se.octahedron(), 8, 4, "equatorial_pi"))]
    assert len(cases) == 11 and all(np.signbit(floats[floats == 0.0]) == 0)
    for keys in cases:
        first, inverse = se._unique_rows(keys)
        want_first, want_inverse = _unique_rows_reference(keys)
        assert first.dtype == inverse.dtype == np.intp and inverse.shape == (len(keys),)
        assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)
    assert len(_unique_rows_reference(ties)[0]) < len(ties) // 2


def _digest(results, names=False):
    h = hashlib.sha256()
    for seq in results:
        if names:
            h.update(seq.name.encode())
        h.update(seq.axes.tobytes())
    return h.hexdigest()


LARGEST_SPEC = se.SearchSpec(se.octahedron(), 8, 4, "equatorial_pi")


def test_largest_walk_and_dedupe_pinned():
    # octahedron n = 8, m = 4, equatorial pi, re-recorded when the inverse
    # toggle became the forward chain on negated axes
    raw = se.enumerate_balanced(LARGEST_SPEC)
    assert len(raw) == 3904
    assert _digest(raw) == "cce6e0eb6f37828a0edff0a18e5c35658cca49d97c3d11883576bbb0806e9df2"
    for symmetry, count, digest in (
            ("global_z", 976, "e84b7d3202846e1b93fa92f7beb923d0c50534fd56b402506fc4159363fec689"),
            ("axis_set_rotations", 244,
             "582e8804a071792f77158d88f6413b03a3df6110a48684b16b238a8770f2970b"),
            ("none", 3904, "3c60a73a03af45ce1c51d8c8bdcda91794aa69643b4bfcb637e8e9f9804f0d65")):
        unique = se.dedupe(raw, symmetry)
        assert len(unique) == count and _digest(unique, names=True) == digest


def test_largest_walk_and_dedupe_agree_with_the_forward_reconstruction(monkeypatch):
    # the pins above as they stood while the inverse toggle rebuilt the axes
    # forward, e_i = U_i f_i; worst axis change 1.1e-15
    raw = se.enumerate_balanced(LARGEST_SPEC)
    monkeypatch.setattr(se, "inverse_toggle_axes", reference_inverse_toggle_axes)
    old = se.enumerate_balanced(LARGEST_SPEC)
    assert _digest(old) == "8727a0c77fb182dca806b6fe088b6e5fd9ac327b454b6e5a60f33ea28d6c62e6"
    assert np.array_equal(raw._rows, old._rows)
    assert np.max(np.abs(raw.axes - old.axes)) <= 2e-15
    for symmetry, digest in (
            ("global_z", "024591aa686baa548e76bfe094a71071c33ac0f9cc6494e26b1c8470c45ab633"),
            ("axis_set_rotations",
             "670e2d4b5c7a304684b39cbae60e4d6f59ff523e925188d48d7d2b2411a98f94"),
            ("none", "70b92a5b1c9f2d8f0f67ed91cabfa68009f4509573f74bc3447987c92320e8d6")):
        unique, old_unique = se.dedupe(raw, symmetry), se.dedupe(old, symmetry)
        assert _digest(old_unique, names=True) == digest
        assert np.array_equal(unique._rows, old_unique._rows)


def test_octahedral_keys_match_the_matmul_images():
    rng = np.random.default_rng(5)
    mixed = _synthesis_mix()
    stacks = [np.array([s.axes for s in mixed if len(s) == n])
              for n in sorted({len(s) for s in mixed})]
    # off the lattice, the 9-decimal rounding decides the keys' last digits,
    # down to components halfway between two rounded values
    stacks.append(rc.unit_vectors(rng.normal(size=(2000, 5, 3))))
    stacks.append((rng.integers(-10 ** 9, 10 ** 9, size=(500, 4, 3)) + 0.5) / 1e9)
    # first axes with large stabilizers: on 4-, 3- and 2-fold axes, or with
    # zero components; the rest drawn from the same axes and off the lattice
    special = rc.unit_vectors(np.concatenate([
        np.eye(3), -np.eye(3),
        np.array(list(itertools.product([-1.0, 1.0], repeat=3))),
        [[1, 1, 0], [0, -1, 1], [-1, 0, -1], [1, -1, 0]],
        [[0.6, 0.0, 0.8], [0.0, -0.8, 0.6], [-0.28, 0.96, 0.0], [0.0, 0.0, -1.0]]]))
    for n in (1, 2, 5):
        lists = special[rng.integers(len(special), size=(600, n))]
        lists[200:400, 1:] = rc.unit_vectors(rng.normal(size=(200, n - 1, 3)))
        stacks.append(lists)
    stacks.append(special[:, None, :])
    for axes in stacks:
        got, want = se._octahedral_keys(axes.copy()), _octahedral_keys_reference(axes.copy())
        assert got.tobytes() == want.tobytes()
    assert sum(len(a) for a in stacks) > 4000
    # every stabilizer size of the octahedral group is hit by some first axis
    firsts = np.round(np.concatenate([a[:, 0] for a in stacks]), 9)
    fixing = [np.all(firsts[:, perm] * signs == firsts, axis=1) for perm, signs in
              zip(se._PERMS, se._SIGNS)]
    assert set(np.sum(fixing, axis=0).tolist()) == {1, 2, 3, 4}


def test_global_z_partition_matches_every_equatorial_turn():
    # one turn, by the first equatorial element's phase, against the least
    # key over the turns of every equatorial element
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 6):
        axes = rng.normal(size=(500, n, 3))
        axes[rng.random((500, n)) < 0.4, 2] = 0.0
        axes = rc.unit_vectors(axes)
        turned = rc.rotate_about_z(axes, rng.uniform(0, 2 * np.pi, size=(500, 1)))
        stack = np.concatenate([axes, turned, axes[:50]])
        got = se._unique_rows(se._canonical_keys(stack, "global_z"))[1]
        ids = {}
        want = np.array([ids.setdefault(_z_canonical(a), len(ids)) for a in stack])
        pairs = set(zip(got.tolist(), want.tolist()))
        assert len(pairs) == len(set(got.tolist())) == len(ids)
        # each list merges with its turned copy when it has an equatorial element
        equatorial = np.any(np.abs(axes[..., 2]) <= 1e-9, axis=1)
        assert np.array_equal(got[:500] == got[500:1000], equatorial)
        assert 0 < equatorial.sum() < 500
