"""synthesis workload: search.enumerate_balanced followed by search.dedupe.

Fifty searches per round over the four built-in axis sets, the three target
kinds and both balance modes, from the n = 4 rediscoveries of p34 and i34 up
to octahedron n = 8, m = 4, equatorial pi (1.68 M tuples).  The list is
fixed; the seed picks the round's order and, for the rotation targets, a
symmetry g of the axis set that keeps the z axis: the target (pi)_x becomes
(pi)_{g x}.  g maps the balanced tuples for one target one-to-one onto those
for the other, so every seed does the same amount of work.

The comments give each band's latency on 2 CPUs.  The bands are sized so
that the median falls in the middle of the second and the 90th percentile
inside the third; no band edge sits at either rank.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import oracle
from common import Op, need
from togglekit import catalog, rotcore, search

BRUTE_FORCE_SPACE = 5000   # raw counts are recounted by brute force up to this size
CHECK_SLICE = 256          # search results checked in one batch

# (axis set, n, m, target, balance, dedupe symmetry).  Targets: the strings
# of SearchSpec, "pi" for the seeded (pi)_{g x}, and "p34"/"i34" for the fixed
# nets of those catalog gates.
SPECS = [
    # 1-10 ms
    ("tetrahedron", 4, 3, "p34", "full", "global_z"),
    ("diagonal_quad", 4, 3, "i34", "full", "global_z"),
    ("tetrahedron", 4, 3, "axis_cycling", "z_only", "global_z"),
    ("diagonal_quad", 4, 3, "equatorial_pi", "full", "global_z"),
    ("diagonal_quad", 4, 3, "equatorial_pi", "z_only", "none"),
    ("octahedron", 4, 4, "axis_cycling", "full", "global_z"),
    ("octahedron", 4, 4, "axis_cycling", "z_only", "axis_set_rotations"),
    ("cube", 4, 3, "axis_cycling", "full", "global_z"),
    ("octahedron", 4, 4, "pi", "z_only", "global_z"),
    ("diagonal_quad", 4, 3, "axis_cycling", "z_only", "global_z"),
    ("octahedron", 3, 2, "equatorial_pi", "z_only", "global_z"),
    ("cube", 4, 3, "pi", "full", "global_z"),
    ("octahedron", 3, 2, "pi", "z_only", "none"),
    ("octahedron", 4, 4, "equatorial_pi", "z_only", "global_z"),
    ("cube", 5, 4, "equatorial_pi", "full", "global_z"),
    # 15-80 ms
    ("cube", 4, 3, "equatorial_pi", "full", "global_z"),
    ("diagonal_quad", 6, 3, "pi", "full", "global_z"),
    ("diagonal_quad", 6, 3, "pi", "z_only", "global_z"),
    ("octahedron", 6, 4, "pi", "full", "global_z"),
    ("octahedron", 6, 4, "equatorial_pi", "full", "global_z"),
    ("cube", 4, 3, "axis_cycling", "z_only", "global_z"),
    ("octahedron", 5, 4, "equatorial_pi", "z_only", "global_z"),
    ("cube", 4, 3, "pi", "z_only", "global_z"),
    ("octahedron", 6, 4, "axis_cycling", "full", "global_z"),
    ("diagonal_quad", 6, 3, "equatorial_pi", "full", "global_z"),
    ("diagonal_quad", 6, 3, "axis_cycling", "z_only", "global_z"),
    ("diagonal_quad", 6, 3, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 6, 3, "equatorial_pi", "full", "global_z"),
    ("octahedron", 6, 2, "pi", "full", "global_z"),
    ("tetrahedron", 8, 4, "equatorial_pi", "full", "global_z"),
    ("diagonal_quad", 8, 4, "equatorial_pi", "full", "global_z"),
    ("octahedron", 6, 3, "axis_cycling", "z_only", "global_z"),
    ("tetrahedron", 8, 3, "axis_cycling", "full", "global_z"),
    ("diagonal_quad", 8, 2, "equatorial_pi", "full", "global_z"),
    ("octahedron", 6, 2, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 7, 4, "equatorial_pi", "full", "global_z"),
    # 100-300 ms
    ("tetrahedron", 6, 3, "pi", "z_only", "global_z"),
    ("cube", 4, 3, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 7, 3, "equatorial_pi", "full", "global_z"),
    ("octahedron", 5, 2, "pi", "z_only", "global_z"),
    ("cube", 6, 3, "axis_cycling", "full", "global_z"),
    ("tetrahedron", 6, 3, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 6, 4, "axis_cycling", "z_only", "global_z"),
    ("octahedron", 5, 2, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 6, 4, "pi", "z_only", "global_z"),
    ("cube", 6, 2, "equatorial_pi", "z_only", "global_z"),
    ("octahedron", 7, 4, "axis_cycling", "z_only", "global_z"),
    ("octahedron", 7, 2, "axis_cycling", "full", "global_z"),
    # 0.5-2 s
    ("diagonal_quad", 8, 3, "pi", "full", "global_z"),
    ("octahedron", 8, 4, "equatorial_pi", "full", "global_z"),
]

# the catalog gates each search must rediscover among its raw results
REDISCOVER = {
    ("tetrahedron", 4, 3, "p34"): ("p34",),
    ("diagonal_quad", 4, 3, "i34"): ("i34",),
    ("octahedron", 6, 4, "equatorial_pi"): ("derome",),
    ("octahedron", 6, 4, "axis_cycling"): ("p46", "p46_prime"),
}

_EX = np.array([1.0, 0.0, 0.0])
_FIXED_TARGETS = {"p34": (np.ones(3) / math.sqrt(3.0), 2.0 * math.pi / 3.0),
                  "i34": (_EX, math.pi)}


def _z_keeping_symmetries(vertices: np.ndarray) -> list[np.ndarray]:
    """Rotations among the 24 signed permutations that map the vertex set
    onto itself and the z axis onto +/- z."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            g = np.zeros((3, 3))
            g[range(3), perm] = signs
            if np.linalg.det(g) < 0 or abs(abs(g[2, 2]) - 1.0) > 0:
                continue
            if oracle.on_vertices(vertices @ g.T, vertices):
                out.append(g)
    return out


def check_results(betas, axes, m, vertices, balance, target) -> None:
    """All results of one search, (B, n) flip angles and (B, n, 3) axes:
    flip angles 2pi/m, toggled axes on the vertices and balanced in the given
    mode, nets meeting the target."""
    need(np.max(np.abs(betas - 2.0 * math.pi / m)) < 1e-12, "flip angle is not 2pi/m")
    toggled = oracle.toggled_axes(axes, betas)
    need(oracle.on_vertices(toggled, vertices), "toggled axis off the vertex set")
    sums = toggled.sum(axis=-2)
    off = np.linalg.norm(sums, axis=-1) if balance == "full" else np.abs(sums[:, 2])
    need(np.max(off) < 1e-8, f"toggled axes unbalanced by {np.max(off):.2e}")
    need(np.all(oracle.meets_target(oracle.net(axes, betas), target)), "net misses the target")


def check_dedupe(raw, unique, symmetry) -> None:
    """dedupe keeps one of the raw axis lists from every equivalence class of
    the oracle, and nothing else."""
    raw_lists = {oracle.class_key(a, "none") for a in raw}
    need(all(oracle.class_key(u, "none") in raw_lists for u in unique),
         "dedupe returned a non-result")
    kept = [oracle.class_key(u, symmetry) for u in unique]
    need(len(set(kept)) == len(kept), "dedupe kept two equivalent results")
    classes = {oracle.class_key(a, symmetry) for a in raw}
    need(len(kept) == len(classes),
         f"dedupe kept {len(kept)} results of {len(classes)} classes")


def brute_force(vertices, n, beta, target, balance) -> np.ndarray:
    """Every raw result, as (K, n, 3) axes in odometer order, found by trying
    every tuple of toggled axes with the oracle."""
    idx = np.array(list(itertools.product(range(len(vertices)), repeat=n)))
    tuples = vertices[idx]
    sums = tuples.sum(axis=1)
    keep = (np.linalg.norm(sums, axis=1) if balance == "full" else np.abs(sums[:, 2])) < 1e-8
    axes = oracle.untoggle(tuples[keep], beta)
    return axes[oracle.meets_target(oracle.net(axes, beta), target)]


def _make_op(spec_row, rng) -> Op:
    set_name, n, m, target, balance, symmetry = spec_row
    axis_set = search.BUILTIN_AXIS_SETS[set_name]()
    beta = 2.0 * math.pi / m
    if target == "pi":
        groups = _z_keeping_symmetries(oracle.AXIS_SETS[set_name])
        target = (groups[rng.integers(len(groups))] @ _EX, math.pi)
    elif target in _FIXED_TARGETS:
        target = _FIXED_TARGETS[target]
    if isinstance(target, str):
        lib_target = oracle_target = target
    else:
        lib_target = rotcore.from_axis_angle(*target)
        oracle_target = oracle.rodrigues(*target)
    spec = search.SearchSpec(axis_set, n, m, lib_target, balance)
    label = f"{set_name} n={n} m={m} {spec_row[3]} {balance} {symmetry}"

    def call():
        raw = search.enumerate_balanced(spec)
        return raw, search.dedupe(raw, symmetry)

    def check(out):
        raw, unique = out
        verts = oracle.AXIS_SETS[set_name]
        need(oracle.on_vertices(axis_set.vertices, verts)
             and len(axis_set.vertices) == len(verts), "axis set differs from the oracle's")
        # in slices, so the check's arrays stay below the search's own peak memory
        for lo in range(0, len(raw), CHECK_SLICE):
            part = raw[lo:lo + CHECK_SLICE]
            check_results(np.array([s.betas for s in part]), np.array([s.axes for s in part]),
                          m, verts, balance, oracle_target)
        if len(verts) ** n <= BRUTE_FORCE_SPACE:
            expect = len(brute_force(verts, n, beta, oracle_target, balance))
            need(len(raw) == expect, f"{len(raw)} raw results, brute force finds {expect}")
        check_dedupe([s.axes for s in raw], [u.axes for u in unique], symmetry)
        for name in REDISCOVER.get(spec_row[:4], ()):
            want = catalog.named(name).axes
            need(any(s.axes.shape == want.shape and np.max(np.abs(s.axes - want)) < 1e-10
                     for s in raw), f"{name} not found")

    def digest(out):
        raw, unique = out
        return (b"".join(s.axes.tobytes() for s in raw), b"".join(u.axes.tobytes() for u in unique))

    return Op(label, call, check, digest)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [_make_op(row, rng) for row in SPECS]
    return [ops[i] for i in rng.permutation(len(ops))]


def warm() -> None:
    spec = search.SearchSpec(search.tetrahedron(), 4, 3, "axis_cycling")
    search.dedupe(search.enumerate_balanced(spec))
