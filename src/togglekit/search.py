"""Exhaustive synthesis of balanced, compensated rotation sequences on
discrete (polyhedral) axis sets.

The enumeration runs over ordered tuples of candidate *toggled* axes: a
balanced tuple is reverse-transformed to a playable sequence whose net
propagator is then matched against the target.  This is the cheap-filter
-first direction; balance is a dot product while the reverse transform
costs a propagator chain.

Workers split the odometer index space into contiguous ranges; the merge
and the deduplication stay single-threaded so results are deterministic.
The worker count is capped by the TOGGLEKIT_THREADS environment variable.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rotcore
from .rotcore import Rotation
from .seqmodel import RotationSequence, sequence_from_axes
from .toggling import inverse_toggle_axes

COMBINATORIC_GUARD = 10 ** 9
NET_MATCH_TOL = 1e-8
BALANCE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AxisSet:
    name: str
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
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
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.balance_mode not in ("full", "z_only"):
            raise ValueError("balance_mode must be 'full' or 'z_only'")
        if isinstance(self.target, str) and self.target not in ("equatorial_pi", "axis_cycling"):
            raise ValueError(f"unknown target {self.target!r}")

    @property
    def beta(self) -> float:
        return 2.0 * np.pi / self.m


def _target_mask(spec: SearchSpec, net_quats: np.ndarray) -> np.ndarray:
    """Boolean mask of nets matching the target within NET_MATCH_TOL."""
    if isinstance(spec.target, Rotation):
        # residual angle of target^-1 U, from the quaternion scalar part
        resid = rotcore.quat_mul(rotcore.quat_conj(spec.target.q)[None, :], net_quats)
        angles = 2.0 * np.arctan2(np.linalg.norm(resid[:, 1:], axis=1), np.abs(resid[:, 0]))
        return angles < NET_MATCH_TOL
    if spec.target == "equatorial_pi":
        # pi rotations have scalar part 0; equatorial axis means no z component
        return (np.abs(net_quats[:, 0]) < NET_MATCH_TOL / 2.0) \
            & (np.abs(net_quats[:, 3]) < NET_MATCH_TOL / 2.0)
    # axis cycling, tested by action on the basis vectors (robust near 2pi/3)
    ex = rotcore.quat_apply(net_quats, rotcore.E_X)
    ey = rotcore.quat_apply(net_quats, rotcore.E_Y)
    ez = rotcore.quat_apply(net_quats, rotcore.E_Z)
    err = np.maximum(np.linalg.norm(ex - rotcore.E_Y, axis=1),
                     np.maximum(np.linalg.norm(ey - rotcore.E_Z, axis=1),
                                np.linalg.norm(ez - rotcore.E_X, axis=1)))
    return err < NET_MATCH_TOL


def _indices_to_axes(axis_set: AxisSet, start: int, stop: int, n: int) -> np.ndarray:
    """Decode odometer indices start..stop-1 into (B, n) vertex indices."""
    k = len(axis_set)
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((idx.size, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = idx % k
        idx //= k
    return digits


def _search_range(spec: SearchSpec, start: int, stop: int) -> list[np.ndarray]:
    """Process one contiguous odometer range; returns reconstructed axis arrays."""
    verts = spec.axis_set.vertices
    digits = _indices_to_axes(spec.axis_set, start, stop, spec.n)
    tuples = verts[digits]                       # (B, n, 3)
    sums = tuples.sum(axis=1)
    if spec.balance_mode == "full":
        keep = np.linalg.norm(sums, axis=1) < spec.n * BALANCE_SUM_TOL
    else:
        keep = np.abs(sums[:, 2]) < spec.n * BALANCE_SUM_TOL
    tuples = tuples[keep]
    if tuples.size == 0:
        return []
    axes, nets = inverse_toggle_axes(tuples, spec.beta)
    mask = _target_mask(spec, nets)
    return [axes[j] for j in np.flatnonzero(mask)]


def enumerate_balanced(spec: SearchSpec, chunk: int = 1 << 14) -> list[RotationSequence]:
    """All length-n tuples from the axis set whose balance holds in the
    toggled frame and whose reverse transform hits the target propagator.

    Results are raw (undeduplicated) sequences in odometer order.
    """
    total = len(spec.axis_set) ** spec.n
    if total > COMBINATORIC_GUARD:
        raise ValueError(f"search space {total} exceeds guard {COMBINATORIC_GUARD}")
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    max_workers = int(os.environ.get("TOGGLEKIT_THREADS", "0")) or min(4, os.cpu_count() or 1)
    if len(ranges) == 1 or max_workers == 1:
        parts = [_search_range(spec, lo, hi) for lo, hi in ranges]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(lambda r: _search_range(spec, *r), ranges))
    found = []
    count = 0
    for part in parts:
        for axes in part:
            found.append(sequence_from_axes(f"{spec.axis_set.name}-{spec.m}-{count}",
                                            spec.beta, axes))
            count += 1
    return found


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


def _set_rotations(axis_set: AxisSet) -> list[np.ndarray]:
    """Octahedral-subgroup rotations that map the vertex set onto itself."""
    keep = []
    v = axis_set.vertices
    for g in _OCTAHEDRAL:
        imgs = v @ g.T
        dots = imgs @ v.T
        if np.all(dots.max(axis=1) > 1.0 - 1e-9):
            keep.append(g)
    return keep


def _round_key(axes: np.ndarray) -> tuple:
    r = np.round(axes, 9) + 0.0   # normalize -0.0
    return tuple(map(tuple, r))


def _z_canonical(axes: np.ndarray) -> tuple:
    """Lexicographically smallest axis list over global z-rotations that
    zero the phase of some equatorial element; fully non-equatorial sets
    fall back to the octahedral canonical form."""
    equatorial = axes[np.abs(axes[:, 2]) <= 1e-9]
    if len(equatorial) == 0:
        return min(_round_key(axes @ g.T) for g in _OCTAHEDRAL)
    deltas = -np.arctan2(equatorial[:, 1], equatorial[:, 0])
    return min(map(_round_key, rotcore.rotate_about_z(axes, deltas[:, None])))


def dedupe(results: list[RotationSequence], symmetry: str = "global_z") -> list[RotationSequence]:
    """One representative per equivalence class.

    symmetry 'global_z' identifies sequences differing by a rigid rotation
    of all axes about z (non-equatorial-only sets fall back to the axis-set
    rotation group); 'axis_set_rotations' uses the rotation group of the
    octahedron; 'none' deduplicates exact duplicates only.
    """
    if symmetry not in ("global_z", "axis_set_rotations", "none"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    seen: dict[tuple, RotationSequence] = {}
    for seq in results:
        axes = seq.axes
        if symmetry == "none":
            key = _round_key(axes)
        elif symmetry == "global_z":
            key = _z_canonical(axes)
        else:
            key = min(_round_key(axes @ g.T) for g in _OCTAHEDRAL)
        if key not in seen:
            seen[key] = seq
    return list(seen.values())
