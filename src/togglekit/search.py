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
which an accepting end state is reachable.  Expanding the live
transitions in vertex order lists the candidate tuples in odometer order;
the float balance test, the reverse transform and the target test then
decide on the candidates alone, exactly as they would on every tuple.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from . import rotcore
from .rotcore import Rotation
from .seqmodel import PulseElement, RotationSequence
from .toggling import inverse_toggle_axes

STATE_GUARD = 1 << 20    # candidate rows (states x vertices, or tuples) one level may allocate
NET_MATCH_TOL = 1e-8
BALANCE_SUM_TOL = 1e-9
WALK_TOL = 1e-6          # loose acceptance of the walk, far above its rounding drift
_KEY_SCALE = 1e9         # states merge on their components rounded to 1e-9


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
    'axis_cycling' (net maps e_x -> e_y -> e_z -> e_x)."""

    axis_set: AxisSet
    n: int
    m: int
    target: Rotation | str
    balance_mode: str = "full"      # full | z_only

    def __post_init__(self):
        for name in ("n", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError("n and m must be positive")
            object.__setattr__(self, name, int(value))
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
    if isinstance(spec.target, Rotation):
        # residual angle of target^-1 U, from the quaternion scalar part
        resid = rotcore.quat_mul(rotcore.quat_conj(spec.target.q)[None, :], net_quats)
        angles = 2.0 * np.arctan2(np.linalg.norm(resid[:, 1:], axis=1), np.abs(resid[:, 0]))
        return angles < tol
    if spec.target == "equatorial_pi":
        # pi rotations have scalar part 0; equatorial axis means no z component
        return (np.abs(net_quats[:, 0]) < tol / 2.0) & (np.abs(net_quats[:, 3]) < tol / 2.0)
    # axis cycling, tested by action on the basis vectors (robust near 2pi/3)
    ex = rotcore.quat_apply(net_quats, rotcore.E_X)
    ey = rotcore.quat_apply(net_quats, rotcore.E_Y)
    ez = rotcore.quat_apply(net_quats, rotcore.E_Z)
    err = np.maximum(np.linalg.norm(ex - rotcore.E_Y, axis=1),
                     np.maximum(np.linalg.norm(ey - rotcore.E_Z, axis=1),
                                np.linalg.norm(ez - rotcore.E_X, axis=1)))
    return err < tol


def _check_level(level: int, rows: int) -> None:
    if rows > STATE_GUARD:
        raise ValueError(f"search level {level} needs {rows} candidate states, "
                         f"above the bound {STATE_GUARD}")


def _state_keys(quats: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Integer keys (N, 4 + d) of states: the quaternion with its sign fixed
    by the first nonzero rounded component, then the partial sum."""
    qk = np.rint(quats * _KEY_SCALE).astype(np.int64)
    lead = qk[np.arange(len(qk)), (qk != 0).argmax(axis=1)]
    qk[lead < 0] *= -1
    return np.concatenate([qk, np.rint(sums * _KEY_SCALE).astype(np.int64)], axis=1)


def _walk(spec: SearchSpec) -> np.ndarray:
    """Vertex-index tuples (C, n), in odometer order, whose vertex product
    and partial sum pass the target and balance tests within WALK_TOL: a
    superset of the tuples the float tests accept."""
    verts = spec.axis_set.vertices
    k, n = len(verts), spec.n
    steps = rotcore.quat_from_axis_angle(verts, np.full(k, spec.beta))
    part = verts if spec.balance_mode == "full" else verts[:, 2:]
    reach = float(np.linalg.norm(part, axis=1).max())
    quats, sums = rotcore.quat_identity((1,)), np.zeros((1, part.shape[1]))
    tables = []          # per level below n: (states, k) next state, len(next) if pruned
    for level in range(1, n + 1):
        rows = len(quats) * k
        _check_level(level, rows)
        q = rotcore.quat_mul(quats[:, None, :], steps[None, :, :]).reshape(rows, 4)
        s = (sums[:, None, :] + part[None, :, :]).reshape(rows, -1)
        dist = np.linalg.norm(s, axis=1)
        if level == n:
            accept = (dist < WALK_TOL) & _target_mask(spec, q, WALK_TOL)
            break
        keep = np.flatnonzero(dist <= (n - level) * reach + WALK_TOL)
        if keep.size == 0:
            return np.empty((0, n), dtype=np.intp)
        _, first, inverse = np.unique(_state_keys(q[keep], s[keep]), axis=0,
                                      return_index=True, return_inverse=True)
        table = np.full(rows, len(first))
        table[keep] = inverse.reshape(-1)
        tables.append(table.reshape(-1, k))
        quats, sums = q[keep[first]], s[keep[first]]
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


def enumerate_balanced(spec: SearchSpec) -> list[RotationSequence]:
    """All length-n tuples from the axis set whose balance holds in the
    toggled frame and whose reverse transform hits the target propagator.

    Results are raw (undeduplicated) sequences in odometer order.
    """
    tuples = spec.axis_set.vertices[_walk(spec)]          # (C, n, 3)
    sums = tuples.sum(axis=1)
    if spec.balance_mode == "full":
        keep = np.linalg.norm(sums, axis=1) < spec.n * BALANCE_SUM_TOL
    else:
        keep = np.abs(sums[:, 2]) < spec.n * BALANCE_SUM_TOL
    tuples = tuples[keep]
    if tuples.size == 0:
        return []
    axes, nets = inverse_toggle_axes(tuples, spec.beta)
    axes = axes[_target_mask(spec, nets)]
    prefix = f"{spec.axis_set.name}-{spec.m}-"
    beta = spec.beta
    return [RotationSequence(f"{prefix}{j}", tuple(PulseElement(beta, ax) for ax in row), spec.m)
            for j, row in enumerate(axes)]


def nonequatorial_search(spec: SearchSpec) -> list[RotationSequence]:
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
    best = np.full((len(axes), axes.shape[1] * 3), np.inf)
    for g in _OCTAHEDRAL:
        best = _lex_min(best, _rounded(axes @ g.T))
    return best


def _canonical_keys(axes: np.ndarray, symmetry: str) -> np.ndarray:
    """Canonical keys (N, 3n) of a stack of axis lists (N, n, 3): equal keys
    mark equivalent lists.

    'none' rounds the axes; 'axis_set_rotations' takes the lexicographically
    smallest rounded image under the octahedral group; 'global_z' the
    smallest over the z-rotations that zero the phase of some equatorial
    element, or the octahedral key for lists with no equatorial element.
    """
    axes = np.asarray(axes, dtype=float)
    if symmetry == "none":
        return _rounded(axes.copy())
    if symmetry == "axis_set_rotations":
        return _octahedral_keys(axes)
    equatorial = np.abs(axes[..., 2]) <= 1e-9                     # (N, n)
    keys = np.full((len(axes), axes.shape[1] * 3), np.inf)
    deltas = -np.arctan2(axes[..., 1], axes[..., 0])
    for j in range(axes.shape[1]):
        rows = np.flatnonzero(equatorial[:, j])
        if rows.size:
            turned = rotcore.rotate_about_z(axes[rows], deltas[rows, j, None])
            keys[rows] = _lex_min(keys[rows], _rounded(turned))
    rest = np.flatnonzero(~equatorial.any(axis=1))
    if rest.size:
        keys[rest] = _octahedral_keys(axes[rest])
    return keys


def dedupe(results: list[RotationSequence], symmetry: str = "global_z") -> list[RotationSequence]:
    """One representative per equivalence class, the first in input order.

    symmetry 'global_z' identifies sequences differing by a rigid rotation
    of all axes about z (non-equatorial-only sets fall back to the axis-set
    rotation group); 'axis_set_rotations' uses the rotation group of the
    octahedron; 'none' deduplicates exact duplicates only.
    """
    if symmetry not in ("global_z", "axis_set_rotations", "none"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(results):
        by_length.setdefault(len(seq), []).append(i)
    keep = []
    for idx in by_length.values():
        keys = _canonical_keys(np.array([results[i].axes for i in idx]), symmetry)
        first = np.unique(keys, axis=0, return_index=True)[1]
        keep.extend(np.asarray(idx)[first].tolist())
    return [results[i] for i in sorted(keep)]
