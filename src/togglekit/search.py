"""Exhaustive synthesis of balanced, compensated rotation sequences on
discrete (polyhedral) axis sets.

The enumeration runs over ordered tuples of candidate *toggled* axes: a
balanced tuple is reverse-transformed to a playable sequence whose net
propagator is then matched against the target.

The tuples are not listed one by one.  In the toggling frame
U_{i+1} = R(beta, U_i f_i) U_i = U_i R(beta, f_i), so the net of the
reconstructed sequence is the product of the *vertex* rotations
R(beta, f_0) ... R(beta, f_{n-1}), and balance is a partial sum.  A
level-synchronous walk therefore tracks states (vertex product up to
sign, partial sum), merges equal states level by level, prunes partial
sums that the remaining steps cannot cancel (past level n/2; before it no
sum is that far out) and keeps the states from which an accepting end
state is reachable.  A step is linear in the row [q, s, 1], q times the
vertex rotation and s plus its balance part, so one matmul steps every
state by every vertex.  The balance and target tests run once, on the last
level.  Expanding the live transitions in vertex order lists the accepted
tuples in odometer order; each level's map from its rows to their parent
rows and vertices is composed backward into each tuple's vertex and state
per level.  That state is the prefix propagator U_i, so the walk also
yields the playable axes U_i f_i (the reverse transform) and the nets, and
no propagator chain runs.

Results are one ``seqmodel.SequenceStack``: the unit axes of every result
in one array, from which a ``RotationSequence`` is built only when a row is
read.  Deduplication keys each row of a stack once: one z-turn for
'global_z', and for the octahedral group only the rotations that give the
smallest image of the first axis, each image one batched matmul by the
rotations' matrices.  It keeps a sub-stack, so a search and its dedupe
build no sequence at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rotcore
from .rotcore import Rotation
from .seqmodel import SequenceStack, _sequence_stack, integer_at_least

STATE_GUARD = 1 << 20    # candidate rows (states x vertices, or tuples) one level may allocate
WALK_GUARD = 8 * STATE_GUARD   # candidate rows of all levels: any n <= 8 walk under STATE_GUARD
NET_MATCH_TOL = 1e-8
BALANCE_SUM_TOL = 1e-9
_KEY_SCALE = 1e9         # states merge on their components rounded to 1e-9

AXIS_CYCLING = rotcore.from_axis_angle(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), 2.0 * np.pi / 3.0)


@dataclass(frozen=True)
class AxisSet:
    name: str
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] != 3:
            raise ValueError(f"axis-set vertices must be a (k, 3) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("axis-set vertices must be finite")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("axis-set vertices must be unit vectors")
        dots = v @ v.T - np.eye(len(v))
        if np.any(dots > 1.0 - 1e-10):
            raise ValueError("axis-set vertices must be pairwise distinct")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return len(self.vertices)


_SQ3 = np.sqrt(3.0)


def tetrahedron() -> AxisSet:
    return AxisSet("tetrahedron", np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / _SQ3)


def octahedron() -> AxisSet:
    return AxisSet("octahedron", np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1.0]]))


def cube() -> AxisSet:
    verts = np.array(list(itertools.product([-1, 1], repeat=3)), dtype=float) / _SQ3
    return AxisSet("cube", verts)


def diagonal_quad() -> AxisSet:
    """Four cube vertices in the diagonal plane x + z = 0."""
    return AxisSet("diagonal_quad", np.array(
        [[-1, 1, 1], [1, 1, -1], [1, -1, -1], [-1, -1, 1]]) / _SQ3)


BUILTIN_AXIS_SETS = {
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "cube": cube,
    "diagonal_quad": diagonal_quad,
}


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: ``target`` is a Rotation, the string
    'equatorial_pi' (a pi rotation about any equatorial axis), or
    'axis_cycling' (``AXIS_CYCLING``, the 2pi/3 rotation about (1,1,1),
    which maps e_x -> e_y -> e_z -> e_x)."""

    axis_set: AxisSet
    n: int
    m: int
    target: Rotation | str
    balance_mode: str = "full"      # full | z_only

    def __post_init__(self):
        for name in ("n", "m"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name)))
        if self.balance_mode not in ("full", "z_only"):
            raise ValueError("balance_mode must be 'full' or 'z_only'")
        if not isinstance(self.target, Rotation) \
                and self.target not in ("equatorial_pi", "axis_cycling"):
            raise ValueError(f"unknown target {self.target!r}")

    @property
    def beta(self) -> float:
        return 2.0 * np.pi / self.m


def _target_mask(spec: SearchSpec, net_quats: np.ndarray) -> np.ndarray:
    """Boolean mask of nets (quaternions up to sign) matching the target
    within NET_MATCH_TOL."""
    if spec.target == "equatorial_pi":
        # pi rotations have scalar part 0; equatorial axis means no z component
        return (np.abs(net_quats[:, 0]) < NET_MATCH_TOL / 2.0) \
            & (np.abs(net_quats[:, 3]) < NET_MATCH_TOL / 2.0)
    target = AXIS_CYCLING if spec.target == "axis_cycling" else spec.target
    return rotcore.quat_angle_between(target.q, net_quats) < NET_MATCH_TOL


def _check_level(level: int, rows: int) -> None:
    if rows > STATE_GUARD:
        raise ValueError(f"search level {level} needs {rows} candidate states, "
                         f"above the bound {STATE_GUARD}")


def _unique_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of a (N, L) array of 8-byte items: the index of
    each group's first row and each row's group, the partition and first
    occurrences of numpy's row-wise unique.  One stable argsort over a
    ``np.void`` view of the contiguous rows sorts them as byte strings, and
    neighbours are compared item by item as 8-byte integers, so rows are
    equal when their bytes are.  Groups come in byte order, not
    lexicographic order.  ``dedupe`` sorts the first rows, but the walk
    reads the order: group g is the state in row g of the next level, so
    the order sets the next level's row order, through it which stepped row
    stands for each state merged there, and so the last bits of the
    playable axes."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).reshape(-1)
    order = np.argsort(rows, kind="stable")
    ranked = keys.view(np.uint64)[order]
    starts = np.ones(len(keys), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _state_keys(states: np.ndarray) -> np.ndarray:
    """Integer keys (N, 4 + d) of state rows [q, s]: the components rounded
    to 1e-9, the quaternion's sign fixed by its first nonzero rounded
    component."""
    keys = np.rint(states * _KEY_SCALE).astype(np.int64)
    qk = keys[:, :4]
    lead = qk[np.arange(len(qk)), (qk != 0).argmax(axis=1)]
    qk[lead < 0] *= -1
    return keys


# q * p == q @ M(p) for row quaternions, with M(p)[a, b] == sum_c p[c] _RIGHT_MUL[a, c, b]:
# the Hamilton product of the unit quaternions e_a * e_c, one signed unit per (a, b)
_RIGHT_MUL = rotcore.quat_mul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])


def _step_matrix(spec: SearchSpec) -> np.ndarray:
    """The (5 + d, k (5 + d)) matrix that steps a state row [q, s, 1] by
    every vertex at once: block j holds the right-multiplication matrix of
    vertex j's rotation (q @ M_j == q * step_j), one einsum against
    ``_RIGHT_MUL``, the identity on the partial sum s and the vertex's
    balance part on the homogeneous row."""
    verts = spec.axis_set.vertices
    k = len(verts)
    steps = rotcore.quat_from_axis_angle(verts, np.full(k, spec.beta))
    part = verts if spec.balance_mode == "full" else verts[:, 2:]
    d = part.shape[1]
    step = np.zeros((5 + d, k, 5 + d))
    step[:4, :, :4] = np.einsum("acb,jc->ajb", _RIGHT_MUL, steps)
    step[4:4 + d, :, 4:4 + d] = np.eye(d)[:, None, :]
    step[4 + d, :, 4:4 + d] = part
    step[4 + d, :, 4 + d] = 1.0
    return step.reshape(5 + d, k * (5 + d))


def _walk(spec: SearchSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex-index tuples (C, n), in odometer order, whose partial sum is
    within n BALANCE_SUM_TOL of balance (in full, or in z alone) and whose
    vertex product passes the target test within NET_MATCH_TOL, with their
    playable axes (C, n, 3) and their nets (C, 4), quaternions up to sign.

    States are rows [q, s, 1], and each level is one matmul by
    ``_step_matrix``, state-major and vertex-minor.  The partial sums are
    exact additions, as in a plain sum in tuple order: every other product
    is by 0 or 1.  A tuple is tested on the sum of the first row of each
    state it passes, so where a level merged sums of the same parts added in
    another order, it is a few ulps off its own.  The quaternions may differ
    from ``quat_mul``'s in their last bits, far below the 1e-9 on which
    states merge.  Up to level n/2 no row is pruned, since |s| <= level
    reach <= (n - level) reach; past it a row is pruned when no remaining
    steps bring its sum within the tolerance.  The last level runs the
    target test only on the balanced rows.

    The merged state of level i is the prefix propagator U_i of every tuple
    through it (U_{i+1} = U_i R(beta, f_i)).  The expansion maps each row of
    level i to its parent row and vertex, and to the parent's state; the
    maps, composed backward from the last level, give each tuple's vertex
    and state per level in one preallocated column each.  Its playable axes
    U_i f_i are one ``quat_apply`` of the live states of every level over
    the vertices and one gather, and its net is its level-n row."""
    verts = spec.axis_set.vertices
    k, n = len(verts), spec.n
    step = _step_matrix(spec)
    width = step.shape[0]
    part = step[-1].reshape(k, width)[:, 4:-1]         # each vertex's balance part
    reach = float(np.linalg.norm(part, axis=1).max())
    tol = n * BALANCE_SUM_TOL
    states = np.zeros((1, width))
    states[0, [0, -1]] = 1.0
    quats = [states[:, :4]]   # the merged state quaternions of every level below n
    tables = []          # per level below n: (states, k) next state, len(next) if pruned
    walked = 0
    accept = np.zeros(0, dtype=bool)   # no accepted row if a level prunes them all
    for level in range(1, n + 1):
        rows = len(states) * k
        _check_level(level, rows)
        walked += rows
        if walked > WALK_GUARD:
            raise ValueError(f"search walk needs {walked} candidate states up to level {level}, "
                             f"above the bound {WALK_GUARD} on all levels")
        stepped = (states @ step).reshape(rows, width)
        if 2 * level <= n:
            # |s| <= level reach <= (n - level) reach: the prune keeps every row
            first, table = _unique_rows(_state_keys(stepped[:, :-1]))
            tables.append(table.reshape(-1, k))
            states = stepped[first]
            quats.append(states[:, :4])
            continue
        sums = stepped[:, 4:-1]
        dist = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        if level == n:
            accept = dist < tol
            near = np.flatnonzero(accept)
            accept[near] = _target_mask(spec, stepped[near, :4])
            break
        keep = np.flatnonzero(dist <= (n - level) * reach + tol)
        if keep.size == 0:
            break
        kept = stepped[keep]
        first, inverse = _unique_rows(_state_keys(kept[:, :-1]))
        table = np.full(rows, len(first))
        table[keep] = inverse
        tables.append(table.reshape(-1, k))
        states = kept[first]
        quats.append(states[:, :4])
    if not accept.any():
        return np.empty((0, n), dtype=np.intp), np.empty((0, n, 3)), np.empty((0, 4))
    # backward reachability: live transitions of every level
    edges = [accept.reshape(-1, k)]
    for table in reversed(tables):
        alive = np.append(edges[0].any(axis=1), False)
        edges.insert(0, alive[table])
    # path counts, so that the expansion stays under the bound.  Every counted
    # path ends in an accepted tuple, so a count above the bound refuses the
    # search, and the counts stay exact integers until then.
    counts = np.ones(1)
    for table, live, after in zip(tables, edges, edges[1:]):
        r, c = np.nonzero(live)
        counts = np.bincount(table[r, c], weights=counts[r], minlength=len(after))
        if counts.max() > STATE_GUARD:
            raise ValueError(f"search level {n} needs more candidate states than "
                             f"the bound {STATE_GUARD}")
    _check_level(n, int(counts @ edges[-1].sum(axis=1)))
    # expand live transitions in row-major order: odometer order.  Level i
    # maps each of its rows to its parent row r and its vertex c, and to the
    # parent's state as a slot among the live states of all levels
    live = np.concatenate([e.any(axis=1) for e in edges])
    slots = np.cumsum(live) - 1
    offsets = np.cumsum([0] + [len(e) for e in edges[:-1]])
    paths = np.zeros(1, dtype=np.intp)
    maps = []
    for level, edge in enumerate(edges):
        r, c = np.nonzero(edge[paths])
        maps.append((r, c, slots[paths + offsets[level]]))
        if level < n - 1:
            paths = tables[level][paths[r], c]
    last = stepped[paths[r] * k + c]
    # compose the maps backward: each tuple's vertex and state per level
    digits = np.empty((len(c), n), dtype=np.intp)
    visits = np.empty((len(c), n), dtype=np.intp)
    rows = np.arange(len(c))
    for level in range(n - 1, -1, -1):
        r, c, seen = maps[level]
        digits[:, level] = c[rows]
        rows = r[rows]
        visits[:, level] = seen[rows]
    axes = rotcore.quat_apply(np.concatenate(quats)[live, None, :], verts)[visits, digits]
    return digits, axes, last[:, :4]


def enumerate_balanced(spec: SearchSpec) -> SequenceStack:
    """All length-n tuples from the axis set whose balance holds in the
    toggled frame and whose reverse transform hits the target propagator.

    Results are raw (undeduplicated) sequences in odometer order, named
    ``{axis set}-{m}-{index}``, as one ``SequenceStack``: their unit axes
    are one array, and a ``RotationSequence`` is built only when a row is
    read (``stack[i]``, or all rows in one batch by iteration).  No result
    is an empty stack.
    """
    return _sequence_stack(f"{spec.axis_set.name}-{spec.m}-", spec.beta, _walk(spec)[1], spec.m)


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------

def _octahedral_rotations() -> np.ndarray:
    """The 24 rotation matrices (24, 3, 3) permuting the signed coordinate axes."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = signs[row]
            if np.linalg.det(m) > 0.5:
                mats.append(m)
    return np.array(mats)


_OCTAHEDRAL = _octahedral_rotations()
_IMAGES = np.ascontiguousarray(_OCTAHEDRAL.transpose(0, 2, 1))   # v @ _IMAGES[g] == v @ g.T
# row 24 c + g of _FIRST_IMAGES @ v is component c of g v: all 24 images, column by column
_FIRST_IMAGES = np.ascontiguousarray(_OCTAHEDRAL.transpose(1, 0, 2)).reshape(-1, 3)


def _rounded(axes: np.ndarray) -> np.ndarray:
    """(N, n, 3) axes as (N, 3n) keys rounded to 9 decimals, -0.0 made 0.0, in place."""
    keys = axes.reshape(len(axes), axes.shape[1] * 3)
    np.round(keys, 9, out=keys)
    keys += 0.0
    return keys


def _lex_min(best: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic minimum of two (N, L) key arrays."""
    differ = cand != best
    first = differ.argmax(axis=1)
    rows = np.arange(len(best))
    take = cand[rows, first] < best[rows, first]
    best[take] = cand[take]
    return best


def _octahedral_keys(axes: np.ndarray) -> np.ndarray:
    """The smallest rounded image of each axis list under _OCTAHEDRAL.  The
    axes are rounded once: a signed permutation moves and negates components
    exactly, and rounding commutes with both.  An image is a matmul by the
    rotation's matrix, exact too: each component is one signed component of
    the list plus zeros, and ``+= 0.0`` makes a -0.0 of those sums 0.0.

    The smallest image of a list starts with the smallest image of its first
    axis.  The rotations giving that are a coset of the first axis's
    stabilizer, at most 4 of the 24, so the 24 images of the first axis are
    narrowed column by column, each a (24, N) array, and only the rotations
    left are applied to the whole list."""
    rounded = np.round(axes, 9)
    firsts = (_FIRST_IMAGES @ np.ascontiguousarray(rounded[:, 0].T)).reshape(3, len(_IMAGES),
                                                                              len(axes))
    least = firsts[0] == firsts[0].min(axis=0)
    for column in firsts[1:]:
        column = np.where(least, column, np.inf)
        least &= column == column.min(axis=0)
    lists, coset = np.nonzero(least.T)          # each list's rotations, list by list
    size = np.bincount(lists, minlength=len(axes))
    start = np.cumsum(size) - size
    best = np.full((len(axes), axes.shape[1] * 3), np.inf)
    for j in range(int(size.max(initial=0))):
        g = coset[start + np.minimum(j, size - 1)]   # a smaller coset repeats its last rotation
        image = rounded @ _IMAGES[g]                 # (N, n, 3) @ (N, 3, 3)
        image += 0.0
        best = _lex_min(best, image.reshape(best.shape))
    return best


def _canonical_keys(axes: np.ndarray, symmetry: str) -> np.ndarray:
    """Canonical keys (N, 3n) of a stack of axis lists (N, n, 3): equal keys
    mark equivalent lists.

    'none' rounds the axes; 'axis_set_rotations' takes the lexicographically
    smallest rounded image under the octahedral group; 'global_z' turns each
    list about z by minus the phase of its first equatorial element, and
    takes the octahedral key for lists with no equatorial element.  A z-turn
    keeps z components, so it keeps which element is the first equatorial
    one: two lists get one key when a z-turn maps one onto the other, up to
    the 9-decimal rounding.
    """
    axes = np.asarray(axes, dtype=float)
    if symmetry == "none":
        return _rounded(axes.copy())
    if symmetry == "axis_set_rotations":
        return _octahedral_keys(axes)
    equatorial = np.abs(axes[..., 2]) <= 1e-9                     # (N, n)
    keys = np.empty((len(axes), axes.shape[1] * 3))
    turned = equatorial.any(axis=1)
    rows, rest = np.flatnonzero(turned), np.flatnonzero(~turned)
    if rows.size:
        lead = axes[rows, equatorial[rows].argmax(axis=1)]       # first equatorial element
        turns = -np.arctan2(lead[:, 1], lead[:, 0])
        keys[rows] = _rounded(rotcore.rotate_about_z(axes[rows], turns[:, None]))
    if rest.size:
        keys[rest] = _octahedral_keys(axes[rest])
    return keys


def dedupe(results: SequenceStack, symmetry: str = "global_z") -> SequenceStack:
    """One representative per equivalence class, the first in input order.

    symmetry 'global_z' identifies sequences differing by a rigid rotation
    of all axes about z (non-equatorial-only sets fall back to the axis-set
    rotation group); 'axis_set_rotations' uses the rotation group of the
    octahedron; 'none' deduplicates exact duplicates only.

    The stack's rows get canonical keys (``_canonical_keys``: one z-turn
    per row for 'global_z', images over a stabilizer coset for the
    octahedral group) whose classes ``_unique_rows`` finds.  The kept rows
    come back in input order as a sub-stack on the same axes, so no
    sequence is built.
    """
    if symmetry not in ("global_z", "axis_set_rotations", "none"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    return results[np.sort(_unique_rows(_canonical_keys(results.axes, symmetry))[0])]
