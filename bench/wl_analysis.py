"""analysis workload: library calls on seeded random sequences and on
catalog entries, 101 per round.

Bands on 2 CPUs (share of the round):
  0-65 %    0.3-5 ms    toggling map, cyclicity order, closed form, inverse
                        map, average_orders, on random sequences
  65-81 %   6-13 ms     q_profile and glide reflection of random dual pairs,
                        the shorter kappa sweeps
  81-94 %   15-60 ms    numeric_error_expansion, the longer kappa sweeps,
                        ddsim.centroid_map
  94-100 %  0.1-1.2 s   convert_m2_to_m4 on bprime(3, 7, 11, 15), tycko, u5
The median sits in the first band and the 90th percentile in the third.

Sizes are fixed; the seed draws only the axes, phases, flip angles, sweep
grids and field amplitudes, so every seed does the same amount of work.
The tycko and u5 conversions fail today ("no xz-symmetrizing z-rotation
found") and are counted as failed operations; any other failure makes the
run incorrect.  Should they succeed, their outputs are checked like the
bprime conversions.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from common import Op, array_digest, close, need
from togglekit import averaging, catalog, ddsim, profiles, seqmodel, toggling, virtualmas

# (n, m) of the uniform 2pi/m sequences, and (n, iterations) of the mixed-angle ones
UNIFORM = [(3, 2), (4, 3), (5, 4), (6, 5), (7, 3), (8, 4), (10, 6), (12, 3), (16, 4), (6, 2)]
MIXED = [(4, 2), (6, 3), (8, 5), (10, 2), (12, 3)]
VECTOR_SETS = [4, 8, 12, 16, 24]
DUAL_PAIRS = [3, 5, 7, 9, 11, 13]
EXPANSIONS = [3, 4, 5, 6, 7, 8, 9, 10]
MAS_SWEEPS = [(False, 21), (True, 21), (False, 11), (True, 11)]
MAPS = ["xy4", "kdd20", "udd(6)", "whh4", "mlev4"]
CONVERSIONS = ["bprime(3)", "bprime(7)", "bprime(11)", "bprime(15)", "tycko", "u5"]
KNOWN_FAILURES = {"tycko", "u5"}   # nets off +/-x, which convert_m2_to_m4 cannot symmetrize

EZ = np.array([0.0, 0.0, 1.0])


def _unit_rows(rng, n):
    a = rng.normal(size=(n, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _seq_digest(s):
    return array_digest(s.axes, s.betas)


def _orders_digest(o):
    return array_digest(o.order1, o.order2, o.order3)


def _q(axes, betas, scale, probe=EZ):
    return float(probe @ oracle.net(axes, scale * betas) @ probe)


def _uniform_ops(rng) -> list[Op]:
    ops = []
    for n, m in UNIFORM:
        axes = _unit_rows(rng, n)
        beta = 2.0 * math.pi / m
        betas = np.full(n, beta)
        s = seqmodel.sequence_from_axes(f"r{n}m{m}", beta, axes)
        k = int(rng.integers(1, m + 1))
        toggled = oracle.toggled_axes(axes, betas)
        tag = f"n={n} m={m}"

        def check_map(out, toggled=toggled, tag=tag):
            close(out.axes, toggled, 1e-12, f"toggled axes {tag}")

        def check_order(out, axes=axes, betas=betas, m=m):
            close(oracle.toggled_axes_iter(axes, betas, m), axes, 1e-9, "M^m s = s")
            want = oracle.cycle_order(axes, betas, 8)
            need(out == want, f"order {out}, oracle {want}")

        def check_closed(out, axes=axes, betas=betas, k=k):
            close(out.axes, oracle.toggled_axes_iter(axes, betas, k), 1e-10, "closed form")

        def check_inverse(out, axes=axes, betas=betas):
            close(oracle.toggled_axes(out.axes, betas), axes, 1e-10, "M(M^-1 s)")

        def check_orders(out, toggled=toggled):
            close(out.order1, oracle.order1(toggled), 1e-12, "order1")
            close(out.order2, oracle.order2(toggled), 1e-12, "order2")

        ops += [
            Op(f"toggling_map {tag}", lambda s=s: toggling.toggling_map(s), check_map,
               _seq_digest),
            Op(f"cyclicity_order {tag}", lambda s=s: toggling.cyclicity_order(s, 8),
               check_order, lambda out: out),
            Op(f"closed_form_toggling {tag} k={k}",
               lambda s=s, k=k: toggling.closed_form_toggling(s, k), check_closed, _seq_digest),
            Op(f"inverse_toggling_map {tag}", lambda s=s: toggling.inverse_toggling_map(s),
               check_inverse, _seq_digest),
            Op(f"average_orders {tag}", lambda t=toggled: averaging.average_orders(t),
               check_orders, _orders_digest),
        ]
    for n, k in MIXED:
        axes = _unit_rows(rng, n)
        betas = rng.uniform(0.3, 2.0 * math.pi, size=n)
        s = seqmodel.RotationSequence(
            f"mix{n}", tuple(seqmodel.PulseElement(b, a) for b, a in zip(betas, axes)))
        want = oracle.toggled_axes_iter(axes, betas, k)

        def check_mixed(out, want=want):
            close(out.axes, want, 1e-9, "closed form = iteration")

        ops += [
            Op(f"closed_form_toggling mixed n={n} k={k}",
               lambda s=s, k=k: toggling.closed_form_toggling(s, k), check_mixed, _seq_digest),
            Op(f"toggling_map_iter mixed n={n} k={k}",
               lambda s=s, k=k: toggling.toggling_map_iter(s, k), check_mixed, _seq_digest),
        ]
    for n in VECTOR_SETS:
        v = _unit_rows(rng, n)

        def check_vec(out, v=v):
            close(out.order1, oracle.order1(v), 1e-12, "order1")
            close(out.order2, oracle.order2(v), 1e-11, "order2")

        ops.append(Op(f"average_orders vectors n={n}",
                      lambda v=v: averaging.average_orders(v), check_vec, _orders_digest))
    return ops


def _profile_ops(rng) -> list[Op]:
    ops = []
    grid_check = np.arange(0, 721, 30)
    pairs = [(catalog.f1(), None)]
    for n in DUAL_PAIRS:
        s = seqmodel.sequence_from_phases(f"pi{n}", math.pi, rng.uniform(0.0, 2 * math.pi, n))
        dual = seqmodel.sequence_from_axes(f"pi{n}^(1)", math.pi,
                                           oracle.toggled_axes(s.axes, s.betas))
        pairs.append((s, dual))
    for s, dual in pairs:
        axes, betas = s.axes, s.betas

        def check_profile(out, axes=axes, betas=betas):
            need(len(out) == 721, "profile length")
            need(abs(out[0].q - 1.0) < 1e-12, "q(0) != 1")
            for i in grid_check:
                p = out[i]
                need(abs(p.q - _q(axes, betas, p.beta_prime / math.pi)) < 1e-10,
                     f"q({p.beta_prime:.3f}) differs from the oracle")

        ops.append(Op(f"q_profile {s.name}", lambda s=s: profiles.q_profile(s, EZ),
                      check_profile, lambda out: array_digest([p.q for p in out])))
        if dual is None:
            continue

        def check_glide(out, a=(axes, betas), b=(dual.axes, dual.betas)):
            need(out < 1e-9, f"glide deviation {out:.2e}")
            bps = np.linspace(0.0, 2.0 * math.pi, 13)
            worst = min(max(abs(_q(*b, bp / math.pi) + _q(*a, (math.pi + sign * bp) / math.pi))
                            for bp in bps) for sign in (1.0, -1.0))
            need(worst < 1e-9, f"oracle glide deviation {worst:.2e}")

        ops.append(Op(f"glide_reflection_check {s.name}",
                      lambda s=s, d=dual: profiles.glide_reflection_check(s, d),
                      check_glide, lambda out: out))
    return ops


def dressed_cell(delays, axes, betas, omega, amp, scale):
    """One centroid-map cell by the oracle: pulse j turned about z by
    (amp/omega) sin(omega t_j), then |centroid| of the toggled axes at the
    flip-angle scale."""
    t = np.cumsum(delays[:-1])
    theta = (amp / omega) * np.sin(omega * t)
    dressed = np.array([oracle.rodrigues(EZ, th) @ e for th, e in zip(theta, axes)])
    return float(np.linalg.norm(oracle.toggled_axes(dressed, scale * betas).mean(axis=0)))


def _heavy_ops(rng) -> list[Op]:
    ops = []
    for n in EXPANSIONS:
        axes = _unit_rows(rng, n)
        beta = float(rng.uniform(0.5, math.pi))
        s = seqmodel.sequence_from_axes(f"e{n}", beta, axes)
        toggled = oracle.toggled_axes(axes, np.full(n, beta))

        def check_expansion(out, toggled=toggled):
            for got, want, what in ((out.order1, oracle.order1(toggled), "order1"),
                                    (out.order2, oracle.order2(toggled), "order2"),
                                    (out.order3, averaging.average_orders(toggled).order3,
                                     "order3 vs average_orders")):
                close(got, want, 1e-6 * max(1.0, float(np.max(np.abs(want)))), what)

        ops.append(Op(f"numeric_error_expansion n={n}",
                      lambda s=s: averaging.numeric_error_expansion(s),
                      check_expansion, _orders_digest))
    for compensated, points in MAS_SWEEPS:
        grid = np.sort(np.append(rng.uniform(0.8, 1.2, points - 1), 1.0))

        def check_sweep(out, grid=grid, compensated=compensated):
            need(len(out) == grid.size, "sweep length")
            for row in out:
                need(np.max(np.abs(row.kappa_row)) <= 1.0 + 1e-12, "|kappa| > 1")
                if row.beta_scale == 1.0:
                    need(row.max_abs < 1e-10, f"kappa row {row.max_abs:.2e} at nominal")
            if not compensated:
                need(out[0].max_abs > 1e-3, "uncompensated cycle shows no error off nominal")

        ops.append(Op(f"mas_kappa_sweep compensated={compensated} points={points}",
                      lambda c=compensated, g=grid: virtualmas.mas_kappa_sweep(c, g),
                      check_sweep,
                      lambda out: array_digest(*[r.kappa_row.view(float) for r in out])))
    for name in MAPS:
        dd = catalog.named_dd(name)
        amp = float(rng.uniform(0.5, 2.0)) / dd.total_time
        cells = [(int(rng.integers(25)), int(rng.integers(21))) for _ in range(3)]

        def check_map(out, dd=dd, amp=amp, cells=cells):
            need(out.values.shape == (25, 21), "map shape")
            need(np.all(out.values >= 0.0) and np.all(out.values <= 1.0 + 1e-12),
                 "map cell outside [0, 1]")
            for i, j in cells:
                want = dressed_cell(dd.delays, dd.pulses.axes, dd.pulses.betas,
                                    out.omegas[i], amp, out.beta_scales[j])
                need(abs(out.values[i, j] - want) < 1e-10, f"cell ({i}, {j}) differs")

        ops.append(Op(f"centroid_map {name}", lambda dd=dd, a=amp: ddsim.centroid_map(dd, amp=a),
                      check_map, lambda out: array_digest(out.values)))
    for name in CONVERSIONS:
        s = catalog.named(name)
        ops.append(Op(f"convert_m2_to_m4 {name}",
                      lambda s=s: profiles.convert_m2_to_m4(s),
                      lambda out, n=len(s): check_conversion(out.axes, out.betas, n),
                      _seq_digest, may_fail=name in KNOWN_FAILURES))
    return ops


def check_conversion(axes, betas, n: int) -> None:
    """The documented output of convert_m2_to_m4: 2n pi/2 elements, net
    (pi)_x, balanced toggled axes, antisymmetric under order reversal."""
    need(len(axes) == 2 * n, f"{len(axes)} elements, want {2 * n}")
    close(betas, np.full(2 * n, math.pi / 2.0), 1e-12, "flip angles")
    dev = oracle.residual_angle(oracle.rodrigues([1.0, 0.0, 0.0], math.pi),
                                oracle.net(axes, betas))
    need(dev < 1e-8, f"net is {dev:.2e} rad from (pi)_x")
    c1 = float(np.linalg.norm(oracle.toggled_axes(axes, betas).mean(axis=0)))
    need(c1 < 1e-9, f"toggled centroid {c1:.2e}")
    need(oracle.symmetry_class(axes, 1e-8) == "antisymmetric", "not antisymmetric")


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = _uniform_ops(rng) + _profile_ops(rng) + _heavy_ops(rng)
    return [ops[i] for i in rng.permutation(len(ops))]


def warm() -> None:
    s = catalog.bprime(3)
    d = toggling.toggling_map(s)
    toggling.cyclicity_order(s, 2)
    toggling.closed_form_toggling(s, 2)
    toggling.inverse_toggling_map(d)
    toggling.toggling_map_iter(s, 2)
    averaging.average_orders(d.axes)
    averaging.numeric_error_expansion(s)
    profiles.q_profile(s, EZ)
    profiles.glide_reflection_check(s, d)
    virtualmas.mas_kappa_sweep(True, [1.0])
    ddsim.centroid_map(catalog.named_dd("xy4"))
    profiles.convert_m2_to_m4(s)
