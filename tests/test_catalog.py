"""Catalog sequences: exact phases, net rotations, roles, DD entries."""

import numpy as np
import pytest

from togglekit import averaging as av, catalog, ddsim, rotcore as rc, seqmodel as sm, toggling as tg

PHI = np.arccos(-0.25)


def wrap(x):
    return np.abs(np.angle(np.exp(1j * np.asarray(x))))


def test_f1_phases():
    f1 = catalog.f1()
    assert np.allclose(f1.phases, [-3 * PHI, -PHI, 0.0, PHI, 3 * PHI])
    assert abs(f1.phases[4] - 5.470429745810926) < 1e-12
    assert f1.cycle_order == 2


def test_nb1_phases_and_net_axis_metadata():
    nb1 = catalog.nb1_tpg()
    assert np.allclose(nb1.phases, [PHI, -PHI, 0.0, -PHI, PHI])
    info = catalog.entry_info("nb1_tpg")
    axis, angle = rc.to_axis_angle(sm.net_propagator(nb1))
    assert abs(angle - np.pi) < 1e-12
    assert wrap(np.arctan2(axis[1], axis[0]) - info.net_phase) < 1e-12


def test_t1_pb1_phases():
    assert np.allclose(catalog.t1().phases, [0.0, PHI, PHI, -PHI, -PHI])
    p = np.arccos(-0.125)
    assert np.allclose(catalog.pb1().phases, [-p, -p, p, p, p, p, -p, -p, 0.0])


def test_nprime5_phases():
    want = np.array([2, 4, 0, 6, -2]) * np.pi / 5
    assert np.allclose(catalog.nprime(5).phases, want, atol=1e-13)


def test_bprime5_phases_mod_2pi():
    want = np.array([2, 0, 6, 0, 2]) * np.pi / 5
    assert np.max(wrap(catalog.bprime(5).phases - want)) < 1e-13


def test_scaled_families():
    assert np.allclose(catalog.nprime(7, 3).phases, 3 * catalog.nprime(7).phases)
    assert np.allclose(catalog.bprime(9, 2).phases, 2 * catalog.bprime(9).phases)


def test_even_n_rejected():
    for bad in (4, 2, 1):
        with pytest.raises(ValueError):
            catalog.nprime(bad)
        with pytest.raises(ValueError):
            catalog.bprime(bad)


def test_vitanov_symmetry_classes():
    for n in (3, 5, 7, 9, 11):
        assert av.symmetry_class(catalog.nprime(n)) == "antisymmetric"
        assert av.symmetry_class(catalog.bprime(n)) == "symmetric"


def test_vitanov_nominal_pi_x():
    for n in (3, 5, 7):
        for s in (catalog.nprime(n), catalog.bprime(n)):
            dev = rc.rotation_angle_between(
                sm.net_propagator(s), rc.from_axis_angle(rc.E_X, np.pi))
            assert dev < 1e-10


def test_nested_families():
    bn = catalog.nest_bn(3, 5)
    assert len(bn) == 15
    want = catalog.bprime(3).phases[1] + catalog.nprime(5).phases[::-1]
    assert np.max(wrap(bn.phases[5:10] - want)) < 1e-13


def test_i34_is_compensated_pi0():
    s = catalog.i34()
    assert np.allclose(s.betas, 2 * np.pi / 3)
    dev = rc.rotation_angle_between(sm.net_propagator(s),
                                    rc.from_axis_angle(rc.E_X, np.pi))
    assert dev < 1e-12
    assert np.linalg.norm(av.centroid(tg.toggling_map(s).axes)) < 1e-12


def test_p34_axis_lists_are_a_consistent_toggling_pair():
    s = catalog.p34()
    sq3 = np.sqrt(3)
    assert np.allclose(s.axes * sq3,
                       [[1, 1, 1], [-1, 1, -1], [1, 1, 1], [1, -1, -1]], atol=1e-12)
    assert np.allclose(tg.toggling_map(s).axes * sq3,
                       [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], atol=1e-12)


def test_derome_phases_and_net():
    s = catalog.derome()
    h = np.pi / 2
    assert np.allclose(s.phases, [0, h, np.pi, h, 0, h])
    axis, angle = rc.to_axis_angle(sm.net_propagator(s))
    assert abs(angle - np.pi) < 1e-12
    assert abs(abs(axis[1]) - 1.0) < 1e-12   # a (pi)_y gate


def test_axis_cycling_gates():
    cyc = rc.from_axis_angle(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), 2 * np.pi / 3)
    for name in ("p34", "p46", "p46_prime"):
        s = catalog.named(name)
        assert rc.rotation_angle_between(sm.net_propagator(s), cyc) < 1e-12


def test_p46_axis_lists():
    assert np.allclose(catalog.p46().axes,
                       [[-1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]])
    assert np.allclose(catalog.p46_prime().axes,
                       [[0, 0, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [1, 0, 0]])


def test_kdd20_equals_nest():
    assert sm.sequences_equal(catalog.kdd20(),
                              sm.nest(catalog.xy4(), catalog.u5()))


def test_tycko_and_riffled_form():
    t = catalog.tycko()
    assert np.allclose(t.phases, [0.0, 2 * np.pi / 3, 0.0])
    r = catalog.tycko_riffled()
    assert len(r) == 6 and np.allclose(r.betas, np.pi / 2)
    assert rc.rotation_angle_between(sm.net_propagator(t), sm.net_propagator(r)) < 1e-12


def test_levitt_and_90x180y90x():
    h = np.pi / 2
    assert np.allclose(catalog.levitt().phases, [0, h, h, h, 0])
    s = catalog.comp_90x180y90x()
    assert np.allclose(s.phases, [0, h, h, 0])
    dev = rc.rotation_angle_between(sm.net_propagator(s),
                                    rc.from_axis_angle(rc.E_Y, np.pi))
    assert dev < 1e-12


def test_roles_cover_balance_claims():
    # broadband entries balance the toggled axes, narrowband the plain axes
    for spec in ("f1", "bprime(7)", "xy4", "u5", "kdd20", "tycko", "derome"):
        s = catalog.named(spec)
        assert catalog.entry_info(spec).role in ("broadband", "universal")
        assert np.linalg.norm(av.centroid(tg.toggling_map(s).axes)) < 1e-12
    for spec in ("nb1_tpg", "nprime(9)"):
        assert catalog.entry_info(spec).role == "narrowband"
        assert np.linalg.norm(av.centroid(catalog.named(spec).axes)) < 1e-12


def test_named_parsing():
    assert sm.sequences_equal(catalog.named("NPRIME(5, 2)"), catalog.nprime(5, 2))
    with pytest.raises(KeyError):
        catalog.named("does_not_exist")
    with pytest.raises(KeyError):
        catalog.named("f1[3]")
    with pytest.raises(ValueError):
        catalog.named("nprime")        # missing required n
    with pytest.raises(ValueError):
        catalog.named_dd("udd")


def test_list_names():
    names = catalog.list_names()
    assert "f1" in names and "nprime(n[,k])" in names
    assert "udd(n)" in catalog.list_names(dd=True)


FAMILY_SPECS = ["nprime(3)", "nprime(5)", "nprime(7)", "nprime(5,2)", "bprime(3)", "bprime(5)",
                "bprime(7)", "bprime(5,2)", "nest_bn(3,3)", "nest_nb(3,3)", "nest_bn(3,5)",
                "nest_nb(5,3)"]


@pytest.mark.parametrize("spec", [n for n in catalog.list_names() if "(" not in n] + FAMILY_SPECS)
def test_json_phases_lie_in_zero_to_two_pi(spec):
    s = catalog.named(spec)
    for seq in (s, tg.toggling_map(s)):
        phases = [e["phase"] for e in sm.to_json_dict(seq)["elements"] if "phase" in e]
        assert all(0.0 <= p < 2.0 * np.pi for p in phases), phases


def test_dd_xy4_structure():
    dd = catalog.named_dd("xy4", tau=2.0)
    assert np.allclose(dd.delays, [1.0, 2.0, 2.0, 2.0, 1.0])
    assert len(dd.pulses) == 4


def test_dd_whh4_delay_pattern():
    dd = catalog.whh4(1.5)
    assert np.allclose(dd.delays, [0.0, 1.5, 3.0, 1.5, 3.0])
    assert np.allclose(dd.pulses.betas, np.pi / 2)


def test_dd_vmas_structure():
    dd = catalog.vmas(2.0)
    assert np.allclose(dd.delays, [2.0, 2.0, 2.0, 0.0])
    assert np.allclose(dd.pulses.axes, np.full((3, 3), 1 / np.sqrt(3)))
    # cycle closes at the nominal angle
    assert rc.rotation_angle_between(
        rc.IDENTITY, sm.net_propagator(dd.pulses)) < 1e-12


def test_dd_udd_parameterized():
    dd = catalog.named_dd("udd(2)", tau=3.0)
    assert np.allclose(ddsim.kick_times(dd), [1.5, 4.5])
