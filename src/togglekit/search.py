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
sums that the remaining steps cannot cancel and keeps the states from
which an accepting end state is reachable.  A step is linear in the row
[q, s, 1], q times the vertex rotation and s plus its balance part, so one
matmul steps every state by every vertex.  Expanding the live transitions in
vertex order lists the candidate tuples in odometer order; the float
balance test, the reverse transform and the target test then decide on
the candidates alone, exactly as they would on every tuple.

Results are one ``seqmodel.SequenceStack``: the unit axes of every result
in one array, from which a ``RotationSequence`` is built only when a row is
read.  Deduplication keys each result once: one z-turn for 'global_z', and
for the octahedral group only the rotations that give the smallest image of
the first axis.  It keeps a sub-stack of a stack, so a search and its
dedupe build no sequence at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rotcore
from .rotcore import Rotation
from .seqmodel import RotationSequence, SequenceStack, _sequence_stack, positive_int
from .toggling import inverse_toggle_axes

STATE_GUARD = 1 << 20    # candidate rows (states x vertices, or tuples) one level may allocate
NET_MATCH_TOL = 1e-8
BALANCE_SUM_TOL = 1e-9
WALK_TOL = 1e-6          # loose acceptance of the walk, far above its rounding drift
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
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        if self.balance_mode not in ("full", "z_only"):
            raise ValueError("balance_mode must be 'full' or 'z_only'")
        if not isinstance(self.target, Rotation) \
                and self.target not in ("equatorial_pi", "axis_cycling"):
            raise ValueError(f"unknown target {self.target!r}")

    @property
    def beta(self) -> float:
        return 2.0 * np.pi / self.m


def _target_mask(spec: SearchSpec, net_quats: np.ndarray, tol: float = NET_MATCH_TOL) -> np.ndarray:
    """Boolean mask of nets (quaternions up to sign) matching the target within tol."""
    if spec.target == "equatorial_pi":
        # pi rotations have scalar part 0; equatorial axis means no z component
        return (np.abs(net_quats[:, 0]) < tol / 2.0) & (np.abs(net_quats[:, 3]) < tol / 2.0)
    target = AXIS_CYCLING if spec.target == "axis_cycling" else spec.target
    return rotcore.quat_angle_between(target.q, net_quats) < tol


def _check_level(level: int, rows: int) -> None:
    if rows > STATE_GUARD:
        raise ValueError(f"search level {level} needs {rows} candidate states, "
                         f"above the bound {STATE_GUARD}")


def _unique_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of a (N, L) array, in lexicographic order: the
    index of each group's first row and each row's group, the index and
    inverse of numpy's row-wise unique, from one stable lexsort instead of a
    sort of structured rows."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
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


def _step_matrix(spec: SearchSpec) -> np.ndarray:
    """The (5 + d, k (5 + d)) matrix that steps a state row [q, s, 1] by
    every vertex at once: block j holds the right-multiplication matrix of
    vertex j's rotation (q @ M_j == q * step_j), the identity on the partial
    sum s and the vertex's balance part on the homogeneous row."""
    verts = spec.axis_set.vertices
    k = len(verts)
    steps = rotcore.quat_from_axis_angle(verts, np.full(k, spec.beta))
    part = verts if spec.balance_mode == "full" else verts[:, 2:]
    d = part.shape[1]
    step = np.zeros((5 + d, k, 5 + d))
    step[:4, :, :4] = rotcore.quat_mul(np.eye(4)[:, None, :], steps[None, :, :])
    step[4:4 + d, :, 4:4 + d] = np.eye(d)[:, None, :]
    step[4 + d, :, 4:4 + d] = part
    step[4 + d, :, 4 + d] = 1.0
    return step.reshape(5 + d, k * (5 + d))


def _walk(spec: SearchSpec) -> np.ndarray:
    """Vertex-index tuples (C, n), in odometer order, whose vertex product
    and partial sum pass the target and balance tests within WALK_TOL: a
    superset of the tuples the float tests accept.

    States are rows [q, s, 1], and each level is one matmul by
    ``_step_matrix``, state-major and vertex-minor.  The partial sums are
    exact additions, as in a plain sum: every other product is by 0 or 1.
    The quaternions may differ from ``quat_mul``'s in their last bits, far
    below the 1e-9 on which states merge.  The last level runs the target
    test only on the rows whose sum is within WALK_TOL of balance."""
    k, n = len(spec.axis_set), spec.n
    step = _step_matrix(spec)
    width = step.shape[0]
    part = step[-1].reshape(k, width)[:, 4:-1]         # each vertex's balance part
    reach = float(np.linalg.norm(part, axis=1).max())
    states = np.zeros((1, width))
    states[0, [0, -1]] = 1.0
    tables = []          # per level below n: (states, k) next state, len(next) if pruned
    for level in range(1, n + 1):
        rows = len(states) * k
        _check_level(level, rows)
        stepped = (states @ step).reshape(rows, width)
        sums = stepped[:, 4:-1]
        dist = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        if level == n:
            accept = dist < WALK_TOL
            near = np.flatnonzero(accept)
            accept[near] = _target_mask(spec, stepped[near, :4], WALK_TOL)
            break
        keep = np.flatnonzero(dist <= (n - level) * reach + WALK_TOL)
        if keep.size == 0:
            return np.empty((0, n), dtype=np.intp)
        kept = stepped[keep]
        first, inverse = _unique_rows(_state_keys(kept[:, :-1]))
        table = np.full(rows, len(first))
        table[keep] = inverse
        tables.append(table.reshape(-1, k))
        states = kept[first]
    # backward reachability: live transitions of every level
    edges = [accept.reshape(-1, k)]
    for table in reversed(tables):
        alive = np.append(edges[0].any(axis=1), False)
        edges.insert(0, alive[table])
    # path counts, so that the expansion stays under the bound
    counts = np.ones(1)
    for table, live, after in zip(tables, edges, edges[1:]):
        r, c = np.nonzero(live)
        counts = np.bincount(table[r, c], weights=counts[r], minlength=len(after))
    _check_level(n, int(counts @ edges[-1].sum(axis=1)))
    # expand live transitions in row-major order: odometer order
    paths, digits = np.zeros(1, dtype=np.intp), np.empty((1, 0), dtype=np.intp)
    for level, live in enumerate(edges):
        r, c = np.nonzero(live[paths])
        digits = np.column_stack([digits[r], c])
        if level < n - 1:
            paths = tables[level][paths[r], c]
    return digits


def enumerate_balanced(spec: SearchSpec) -> SequenceStack:
    """All length-n tuples from the axis set whose balance holds in the
    toggled frame and whose reverse transform hits the target propagator.

    Results are raw (undeduplicated) sequences in odometer order, named
    ``{axis set}-{m}-{index}``, as one ``SequenceStack``: their unit axes
    are one array, and a ``RotationSequence`` is built only when a row is
    read (``stack[i]``, or all rows in one batch by iteration).  No result
    is an empty stack.
    """
    tuples = spec.axis_set.vertices[_walk(spec)]          # (C, n, 3)
    sums = tuples.sum(axis=1)
    if spec.balance_mode == "full":
        keep = np.linalg.norm(sums, axis=1) < spec.n * BALANCE_SUM_TOL
    else:
        keep = np.abs(sums[:, 2]) < spec.n * BALANCE_SUM_TOL
    axes, nets = inverse_toggle_axes(tuples[keep], spec.beta)
    return _sequence_stack(f"{spec.axis_set.name}-{spec.m}-", spec.beta,
                           axes[_target_mask(spec, nets)], spec.m)


def nonequatorial_search(spec: SearchSpec) -> SequenceStack:
    """Axis-cycling searches over sets reaching off the equator."""
    if spec.target != "axis_cycling":
        raise ValueError("nonequatorial_search expects the axis_cycling target")
    return enumerate_balanced(spec)


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------

def _octahedral_rotations() -> list[np.ndarray]:
    """The 24 rotation matrices permuting the signed coordinate axes."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = signs[row]
            if np.linalg.det(m) > 0.5:
                mats.append(m)
    return mats


_OCTAHEDRAL = _octahedral_rotations()
# each rotation as a signed permutation: (v @ g.T)[..., i] == v[..., _PERMS[g, i]] * _SIGNS[g, i]
_PERMS = np.array([np.abs(g).argmax(axis=1) for g in _OCTAHEDRAL])
_SIGNS = np.array([g.sum(axis=1) for g in _OCTAHEDRAL])


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
    exactly, and rounding commutes with both.

    The smallest image of a list starts with the smallest image of its first
    axis.  The rotations giving that are a coset of the first axis's
    stabilizer, at most 4 of the 24, so the 24 images of the first axis are
    narrowed column by column and only the rotations left are applied to
    the whole list."""
    rounded = np.round(axes, 9)
    firsts = rounded[:, 0, _PERMS] * _SIGNS                       # (N, 24, 3)
    least = np.ones(firsts.shape[:2], dtype=bool)
    for c in range(3):
        column = np.where(least, firsts[..., c], np.inf)
        least &= column == column.min(axis=1, keepdims=True)
    width = int(least.sum(axis=1).max(initial=0))
    slots = np.argsort(~least, axis=1, kind="stable")[:, :width]  # the coset's rotations first
    best = np.full((len(axes), axes.shape[1] * 3), np.inf)
    for g in slots.T:
        image = np.take_along_axis(rounded, _PERMS[g][:, None, :], axis=2)
        image *= _SIGNS[g][:, None, :]
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


def _classes(axes: np.ndarray, symmetry: str) -> np.ndarray:
    """The row of each class's first member in a stack of axis lists (N, n, 3)."""
    return _unique_rows(_canonical_keys(axes, symmetry))[0]


def dedupe(results: SequenceStack | list[RotationSequence], symmetry: str = "global_z"
           ) -> SequenceStack | list[RotationSequence]:
    """One representative per equivalence class, the first in input order.

    symmetry 'global_z' identifies sequences differing by a rigid rotation
    of all axes about z (non-equatorial-only sets fall back to the axis-set
    rotation group); 'axis_set_rotations' uses the rotation group of the
    octahedron; 'none' deduplicates exact duplicates only.

    Each length is one stack of canonical keys (``_canonical_keys``: one
    z-turn per list for 'global_z', images over a stabilizer coset for the
    octahedral group) whose classes ``_unique_rows`` finds.  Only the
    partition into classes decides what is kept.  The kept rows come back
    in input order and in the input's kind: a ``SequenceStack`` gives a
    sub-stack on the same axes, so no sequence is built; a list (grouped by
    length) gives a list of the same objects.
    """
    if symmetry not in ("global_z", "axis_set_rotations", "none"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if isinstance(results, SequenceStack):
        return results[np.sort(_classes(results.axes, symmetry))]
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(results):
        by_length.setdefault(len(seq), []).append(i)
    keep = []
    for idx in by_length.values():
        first = _classes(np.array([results[i].axes for i in idx]), symmetry)
        keep.extend(np.asarray(idx)[first].tolist())
    return [results[i] for i in sorted(keep)]
