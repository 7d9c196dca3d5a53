"""Constructors for the named composite-pulse and decoupling sequences.

Every entry is built from its analytic phase expression at call time, so
there are no hand-typed decimals to transcribe wrong.  Entries double as
golden fixtures for the analysis modules; each carries a role tag used by
the balance audit (broadband entries balance their toggled axes, narrowband
entries their plain axes, universal and bandpass entries both).

Parameterized entries are addressed as ``name(arg, ...)`` with integer
arguments, e.g. ``nprime(5)``, ``nprime(7,2)``, ``nest_bn(3,3)``, ``udd(4)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rotcore, seqmodel
from .ddsim import DDSequence, udd
from .seqmodel import RotationSequence, sequence_from_axes, sequence_from_phases

MAX_ELEMENTS = 2 ** 20   # the longest entry built, and the CLI's largest loop or element count

PHI_QUARTER = math.acos(-0.25)   # arccos(-1/4), shared by F1, NB1, T1
PHI_EIGHTH = math.acos(-0.125)   # arccos(-1/8), PB1

_SQ3 = math.sqrt(3.0)
AXIS_111 = np.array([1.0, 1.0, 1.0]) / _SQ3


def f1() -> RotationSequence:
    """Broadband inversion pulse, a cyclic permutation of Wimperis BB1."""
    p = PHI_QUARTER
    return sequence_from_phases("f1", np.pi, [-3 * p, -p, 0.0, p, 3 * p])


def nb1_tpg() -> RotationSequence:
    """Tycko-Pines-Guckenheimer narrowband inversion pulse (net axis at 4*phi)."""
    p = PHI_QUARTER
    return sequence_from_phases("nb1_tpg", np.pi, [p, -p, 0.0, -p, p])


def t1() -> RotationSequence:
    p = PHI_QUARTER
    return sequence_from_phases("t1", np.pi, [0.0, p, p, -p, -p])


def pb1() -> RotationSequence:
    p = PHI_EIGHTH
    return sequence_from_phases("pb1", np.pi, [-p, -p, p, p, p, p, -p, -p, 0.0])


def _check_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"family is defined for odd n >= 3, got n={n}")


def nprime(n: int, k: int = 1) -> RotationSequence:
    """Antisymmetrized Vitanov narrowband pi-pulse, phases in steps of 2pi/n,
    optionally scaled by the integer k (refused where a phase overflows)."""
    _check_odd(n)
    i = np.arange(n)
    base = (-1.0) ** (i + 1) * np.floor((i + 1) / 2)
    offset = (-1.0) ** ((n - 1) // 2) * math.floor((n + 1) / 4)
    phases = seqmodel._phase_multiple("k", k, 2.0 * np.pi / n, base + offset)
    name = f"nprime({n})" if k == 1 else f"nprime({n},{k})"
    return sequence_from_phases(name, np.pi, phases)


def bprime(n: int, k: int = 1) -> RotationSequence:
    """Symmetrized Vitanov broadband pi-pulse, dual of nprime(n)."""
    _check_odd(n)
    i = np.arange(n)
    phases = seqmodel._phase_multiple("k", k, -2.0 * np.pi / n, 2.0 * i * (i + 1) - n * n + 1) / 4.0
    name = f"bprime({n})" if k == 1 else f"bprime({n},{k})"
    return sequence_from_phases(name, np.pi, phases)


def nest_bn(m: int, n: int, k: int = 1) -> RotationSequence:
    """Band-pass composition: broadband outer blocks around narrowband inner."""
    return seqmodel.nest(bprime(m, k), nprime(n, k))


def nest_nb(m: int, n: int, k: int = 1) -> RotationSequence:
    """Band-pass composition with the roles swapped (dual of nest_bn)."""
    return seqmodel.nest(nprime(m, k), bprime(n, k))


def i34() -> RotationSequence:
    """Compensated (pi)_0 from four 2pi/3 rotations about cube vertices."""
    axes = np.array([
        [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
    ]) / _SQ3
    return sequence_from_axes("i34", 2.0 * np.pi / 3.0, axes)


def p34() -> RotationSequence:
    """Compensated 2pi/3 axis-cycling rotation about (1,1,1), four pulses."""
    axes = np.array([
        [1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
    ]) / _SQ3
    return sequence_from_axes("p34", 2.0 * np.pi / 3.0, axes)


def derome() -> RotationSequence:
    """Derome's compensated (pi)_y from six pi/2 pulses on octahedral phases."""
    h = np.pi / 2.0
    return sequence_from_phases("derome", h, [0.0, h, np.pi, h, 0.0, h])


def p46() -> RotationSequence:
    """Compensated axis-cycling gate from six pi/2 pulses, axes off the equator."""
    axes = np.array([-rotcore.E_X, rotcore.E_Z, rotcore.E_X,
                     rotcore.E_Y, rotcore.E_Z, rotcore.E_Y])
    return sequence_from_axes("p46", np.pi / 2.0, axes)


def p46_prime() -> RotationSequence:
    axes = np.array([-rotcore.E_Z, rotcore.E_X, rotcore.E_Y,
                     rotcore.E_Z, rotcore.E_X, rotcore.E_X])
    return sequence_from_axes("p46_prime", np.pi / 2.0, axes)


def xy4() -> RotationSequence:
    return sequence_from_phases("xy4", np.pi, [0.0, np.pi / 2.0, 0.0, np.pi / 2.0])


def mlev4() -> RotationSequence:
    return sequence_from_phases("mlev4", np.pi, [0.0, np.pi / 2.0, np.pi / 2.0, 0.0])


def u5() -> RotationSequence:
    """Tycko-Pines-Guckenheimer U5 (Knill) composite pi pulse."""
    return sequence_from_phases("u5", np.pi, [np.pi / 6.0, 0.0, np.pi / 2.0, 0.0, np.pi / 6.0])


def kdd20() -> RotationSequence:
    """The 20-pulse KDD phase list: U5 blocks offset by the XY4 phases."""
    return seqmodel.nest(xy4(), u5()).with_name("kdd20")


def tycko() -> RotationSequence:
    """Tycko's amplitude-error-compensated inversion (pi)_0 (pi)_{2pi/3} (pi)_0."""
    return sequence_from_phases("tycko", np.pi, [0.0, 2.0 * np.pi / 3.0, 0.0])


def tycko_riffled() -> RotationSequence:
    """The same sequence split into six pi/2 elements."""
    return seqmodel.riffle(tycko()).with_name("tycko_riffled")


def levitt() -> RotationSequence:
    """Levitt's offset-error-compensated composite, five pi/2 elements."""
    h = np.pi / 2.0
    return sequence_from_phases("levitt", h, [0.0, h, h, h, 0.0])


def comp_90x180y90x() -> RotationSequence:
    """90x 180y 90x written as four pi/2 elements (octahedral phase steps)."""
    h = np.pi / 2.0
    return sequence_from_phases("90x180y90x", h, [0.0, h, h, 0.0])


# ---------------------------------------------------------------------------
# delay-interleaved entries
# ---------------------------------------------------------------------------

def _interleaved(pulses: RotationSequence, tau: float) -> DDSequence:
    """tau/2 bookends with tau between pulses, the usual decoupling spacing."""
    n = len(pulses)
    delays = np.full(n + 1, tau)
    delays[0] = delays[-1] = tau / 2.0
    return DDSequence(pulses, delays)


def dd_xy4(tau: float = 1.0) -> DDSequence:
    return _interleaved(xy4(), tau)


def dd_mlev4(tau: float = 1.0) -> DDSequence:
    return _interleaved(mlev4(), tau)


def dd_u5(tau: float = 1.0) -> DDSequence:
    return _interleaved(u5(), tau)


def dd_kdd20(tau: float = 1.0) -> DDSequence:
    return _interleaved(kdd20(), tau)


def whh4(tau: float = 1.0) -> DDSequence:
    """WHH-4 line-narrowing cycle: pulses at 0, tau, 3*tau, 4*tau of a 6*tau window."""
    h = np.pi / 2.0
    pulses = sequence_from_phases("whh4", h, [0.0, h, -h, np.pi])
    return DDSequence(pulses, np.array([0.0, tau, 2.0 * tau, tau, 2.0 * tau]))


def vmas(tau: float = 1.0) -> DDSequence:
    """Virtual magic-angle spinning: three equal delays, each closed by a
    2pi/3 rotation about the (1,1,1) body diagonal."""
    pulses = sequence_from_axes("vmas", 2.0 * np.pi / 3.0, np.array([AXIS_111] * 3))
    return DDSequence(pulses, np.array([tau, tau, tau, 0.0]))


def dd_udd(n: int, tau: float = 1.0) -> DDSequence:
    dd = udd(n)
    return DDSequence(dd.pulses, dd.delays * tau)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable
    role: str              # broadband | narrowband | universal | bandpass | other
    summary: str
    params: str = ""       # e.g. "n[,k]" for parameterized families
    net_phase: float | None = None  # nominal net-rotation axis phase, if off x


ENTRIES: dict[str, CatalogEntry] = {e.name: e for e in [
    CatalogEntry("f1", f1, "broadband", "broadband inversion, permuted BB1"),
    CatalogEntry("nb1_tpg", nb1_tpg, "narrowband", "narrowband inversion (TPG)",
                 net_phase=4.0 * PHI_QUARTER),
    CatalogEntry("t1", t1, "universal", "universal inversion, half-band"),
    CatalogEntry("pb1", pb1, "universal", "universal inversion, half-band"),
    CatalogEntry("nprime", nprime, "narrowband", "antisymmetrized Vitanov narrowband", "n[,k]"),
    CatalogEntry("bprime", bprime, "broadband", "symmetrized Vitanov broadband", "n[,k]"),
    CatalogEntry("nest_bn", nest_bn, "bandpass", "band-pass bprime(m) of nprime(n)", "m,n[,k]"),
    CatalogEntry("nest_nb", nest_nb, "bandpass", "band-pass nprime(m) of bprime(n)", "m,n[,k]"),
    CatalogEntry("i34", i34, "broadband", "compensated (pi)_0, cube-vertex axes, beta=2pi/3"),
    CatalogEntry("p34", p34, "broadband", "compensated (1,1,1) axis-cycling, beta=2pi/3"),
    CatalogEntry("derome", derome, "broadband", "compensated (pi)_y, six pi/2 pulses"),
    CatalogEntry("p46", p46, "broadband", "compensated axis-cycling, octahedral axes"),
    CatalogEntry("p46_prime", p46_prime, "broadband", "compensated axis-cycling, variant"),
    CatalogEntry("xy4", xy4, "broadband", "XY4 phase cycle"),
    CatalogEntry("mlev4", mlev4, "other", "MLEV-4 phase cycle"),
    CatalogEntry("u5", u5, "broadband", "U5 (Knill) composite pi pulse"),
    CatalogEntry("kdd20", kdd20, "broadband", "KDD supercycle, xy4 of u5"),
    CatalogEntry("tycko", tycko, "broadband", "Tycko amplitude-compensated inversion"),
    CatalogEntry("tycko_riffled", tycko_riffled, "other", "Tycko inversion split to pi/2 steps"),
    CatalogEntry("levitt", levitt, "other", "Levitt offset-compensated composite"),
    CatalogEntry("90x180y90x", comp_90x180y90x, "other", "90x 180y 90x in pi/2 steps"),
]}

DD_ENTRIES: dict[str, CatalogEntry] = {e.name: e for e in [
    CatalogEntry("xy4", dd_xy4, "dd", "XY4 with tau/2 bookends"),
    CatalogEntry("mlev4", dd_mlev4, "dd", "MLEV-4 with tau/2 bookends"),
    CatalogEntry("u5", dd_u5, "dd", "KDD element (U5 with delays)"),
    CatalogEntry("kdd20", dd_kdd20, "dd", "KDD-20 with tau/2 bookends"),
    CatalogEntry("whh4", whh4, "dd", "WHH-4 cycle, delay pattern tau..2tau"),
    CatalogEntry("vmas", vmas, "dd", "virtual magic-angle spinning cycle"),
    CatalogEntry("udd", dd_udd, "dd", "Uhrig decoupling, Chebyshev kick times", "n"),
]}

_NAME_RE = re.compile(r"^\s*([A-Za-z0-9_]+)\s*(?:\(\s*([-0-9,\s]*)\s*\))?\s*$")


def _parse(spec: str) -> tuple[str, tuple[int, ...]]:
    m = _NAME_RE.match(spec)
    if not m:
        raise KeyError(f"cannot parse sequence name {spec!r}")
    name = m.group(1).lower()
    args = ()
    if m.group(2):
        args = tuple(int(tok) for tok in m.group(2).split(",") if tok.strip())
    return name, args


def _build(entry: CatalogEntry, args: tuple[int, ...], **kwargs):
    """Build an entry, refusing one longer than MAX_ELEMENTS before anything is
    allocated: its length is the product of the parameters before the optional ones."""
    sizes = entry.params.split("[")[0].split(",") if entry.params else []
    length = math.prod(max(a, 0) for a in args[:len(sizes)])
    if length > MAX_ELEMENTS:
        raise ValueError(f"{entry.name}({','.join(map(str, args))}) has {length} elements, "
                         f"more than 2**20 = {MAX_ELEMENTS}")
    try:
        return entry.build(*args, **kwargs)
    except TypeError:
        raise ValueError(f"{entry.name} takes parameters ({entry.params}), got {args}") from None


def named(spec: str) -> RotationSequence:
    """Build a catalog sequence from a name like ``f1`` or ``nprime(5,2)``."""
    name, args = _parse(spec)
    if name not in ENTRIES:
        raise KeyError(f"unknown sequence {name!r}; see list_names()")
    return _build(ENTRIES[name], args)


def named_dd(spec: str, tau: float = 1.0) -> DDSequence:
    """Build a delay-interleaved catalog entry, e.g. ``xy4`` or ``udd(5)``."""
    name, args = _parse(spec)
    if name not in DD_ENTRIES:
        raise KeyError(f"unknown DD sequence {name!r}; see list_names(dd=True)")
    return _build(DD_ENTRIES[name], args, tau=tau)


def list_names(dd: bool = False) -> list[str]:
    table = DD_ENTRIES if dd else ENTRIES
    out = []
    for e in table.values():
        out.append(f"{e.name}({e.params})" if e.params else e.name)
    return out


def entry_info(spec: str) -> CatalogEntry:
    name, _ = _parse(spec)
    if name in ENTRIES:
        return ENTRIES[name]
    raise KeyError(f"unknown sequence {name!r}")
