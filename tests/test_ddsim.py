"""Dynamical decoupling: timing, field dressing, centroid maps, anti-DD."""

import re

import numpy as np
import pytest

from togglekit import catalog, ddsim, rotcore as rc, seqmodel as sm, toggling as tg


def test_delay_count_enforced():
    pulses = catalog.xy4()
    with pytest.raises(ValueError):
        ddsim.DDSequence(pulses, np.ones(4))
    with pytest.raises(ValueError):
        ddsim.DDSequence(pulses, -np.ones(5))


def test_kick_times_uniform_delays():
    s = sm.sequence_from_phases("xx", np.pi, [0.0, 0.0])
    dd = ddsim.DDSequence(s, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(ddsim.kick_times(dd), [1.0, 2.0])


def test_kick_times_leading_zero_delay():
    s = sm.sequence_from_phases("x", np.pi, [0.0])
    dd = ddsim.DDSequence(s, np.array([0.0, 1.0]))
    assert np.allclose(ddsim.kick_times(dd), [0.0])


def test_udd_chebyshev_nodes():
    for n in (1, 2, 5):
        dd = ddsim.udd(n)
        j = np.arange(1, n + 1)
        want = n * np.sin(np.pi * j / (2 * n + 2)) ** 2
        assert np.allclose(ddsim.kick_times(dd), want, atol=1e-14)
        assert abs(dd.total_time - n) < 1e-12
        assert np.allclose(dd.pulses.axes[:, 0], 1.0)
    assert np.allclose(ddsim.kick_times(ddsim.udd(2)), [0.5, 1.5])


def test_osc_field_zero_amp_is_identity():
    dd = catalog.named_dd("xy4")
    dressed = ddsim.osc_field_dressed(dd, 2.0, 0.0)
    assert np.allclose(dressed.pulses.axes, dd.pulses.axes)


def test_osc_field_fast_limit_vanishes():
    dd = catalog.named_dd("xy4")
    dressed = ddsim.osc_field_dressed(dd, 1e9, 1.0)
    assert np.max(np.abs(dressed.pulses.axes - dd.pulses.axes)) < 1e-8


def test_osc_field_single_pulse_phase():
    s = sm.sequence_from_phases("x", np.pi, [0.0])
    t0 = np.pi / 2   # omega * t0 = pi/2 with omega = 1
    dd = ddsim.DDSequence(s, np.array([t0, 1.0]))
    a = 0.3
    dressed = ddsim.osc_field_dressed(dd, 1.0, a)
    got = np.arctan2(dressed.pulses.axes[0, 1], dressed.pulses.axes[0, 0])
    assert abs(got - a) < 1e-14   # theta = (a/w) sin(w t0) = a


def test_static_field_is_dc_limit():
    dd = catalog.named_dd("kdd20")
    a = 0.2
    lo = ddsim.osc_field_dressed(dd, 1e-7, a)
    dc = ddsim.static_field_dressed(dd, a)
    assert np.max(np.abs(lo.pulses.axes - dc.pulses.axes)) < 1e-7


def test_omega_zero_rejected():
    with pytest.raises(ValueError):
        ddsim.osc_field_dressed(catalog.named_dd("xy4"), 0.0, 1.0)


def test_centroid_map_amp_zero_matches_pure_pulse_error():
    dd = catalog.named_dd("kdd20")
    scales = np.array([0.6, 1.0, 1.4])
    cm = ddsim.centroid_map(dd, omega_grid=[1.0], beta_scale_grid=scales, amp=0.0)
    want = [np.linalg.norm(tg.toggle_axes(dd.pulses.axes, k * dd.pulses.betas).mean(axis=0))
            for k in scales]
    assert np.allclose(cm.values[0], want, atol=1e-14)


def test_centroid_map_balanced_rows_vanish_at_fast_field():
    for name in ("xy4", "kdd20", "u5"):
        dd = catalog.named_dd(name)
        cm = ddsim.centroid_map(dd, omega_grid=[1e12 / dd.total_time],
                                beta_scale_grid=[1.0])
        assert cm.cell(0, 0) < 1e-9


def test_centroid_map_scaling_invariance():
    # rescaling delays with omega rescaled inversely leaves cells unchanged
    dd = catalog.named_dd("xy4")
    big = ddsim.DDSequence(dd.pulses, dd.delays * 10.0)
    scales = np.array([0.8, 1.2])
    a = 1.0 / dd.total_time
    cm1 = ddsim.centroid_map(dd, omega_grid=[2.0], beta_scale_grid=scales, amp=a)
    cm2 = ddsim.centroid_map(big, omega_grid=[0.2], beta_scale_grid=scales, amp=a / 10.0)
    assert np.allclose(cm1.values, cm2.values, atol=1e-12)


def test_centroid_map_default_grids():
    dd = catalog.named_dd("xy4")
    cm = ddsim.centroid_map(dd)
    assert cm.values.shape == (25, 21)
    assert np.all(cm.values <= 1.0 + 1e-12)
    assert abs(cm.amp * dd.total_time - 1.0) < 1e-12


def test_anti_dd_matches_nest_of_dual():
    anti = ddsim.anti_dd(catalog.named_dd("xy4"), catalog.u5())
    direct = sm.nest(catalog.xy4(), tg.toggling_map(catalog.u5()))
    assert sm.sequences_equal(anti.pulses, direct)
    assert len(anti.delays) == 21


def test_anti_dd_keeps_outer_delay_structure():
    outer = catalog.named_dd("xy4", tau=2.0)
    anti = ddsim.anti_dd(outer, catalog.u5())
    assert anti.total_time == outer.total_time
    assert np.allclose(anti.delays[0::5][:4], outer.delays[:4])
    assert anti.delays[-1] == outer.delays[-1]


def test_anti_dd_of_self_dual_inner_is_plain_nest():
    # pb1 maps onto itself element-wise, so the dual nesting is the nesting
    anti = ddsim.anti_dd(catalog.named_dd("xy4"), catalog.pb1())
    plain = sm.nest(catalog.xy4(), catalog.pb1())
    assert sm.sequences_equal(anti.pulses, plain)


def test_anti_dd_requires_equatorial_pi_inner():
    with pytest.raises(ValueError):
        ddsim.anti_dd(catalog.named_dd("xy4"), catalog.derome())


def test_map_csv_format():
    dd = catalog.named_dd("xy4")
    cm = ddsim.centroid_map(dd, omega_grid=[1.0, 2.0], beta_scale_grid=[0.5, 1.0])
    lines = ddsim.map_to_csv(cm).strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("omega\\beta_scale,")
    assert len(lines[1].split(",")) == 3


def test_dd_json_round_trip():
    dd = catalog.whh4(1.25)
    back = ddsim.dd_from_json_dict(ddsim.dd_to_json_dict(dd))
    assert np.allclose(back.delays, dd.delays)
    assert sm.sequences_equal(back.pulses, dd.pulses)


@pytest.mark.parametrize("delays, says", [
    ([0.5, "0.5", 0.5], "delay must be a JSON number, got '0.5'"),
    ([0.5, True, 0.5], "delay must be a JSON number, got True"),
    ([0.5, None, 0.5], "delay must be a JSON number, got None"),
    ([0.5, [0.5], 0.5], "delay must be a JSON number, got [0.5]"),
    ({"0": 0.5}, "malformed DD sequence: delays must be a list, got {'0': 0.5}"),
    (0.5, "malformed DD sequence: delays must be a list, got 0.5"),
], ids=["string", "bool", "null", "nested-list", "object", "number"])
def test_dd_from_json_dict_reads_delays_as_json_numbers(delays, says):
    pulses = sm.to_json_dict(sm.sequence_from_phases("xx", np.pi, [0.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape(says)):
        ddsim.dd_from_json_dict({"pulses": pulses, "delays": delays})


def _centroid_map_reference(dd, omegas, scales, amp):
    """centroid_map as a loop over omega: dress the pulses for one field
    frequency, then toggle their axes at every flip-angle scale."""
    t = ddsim.kick_times(dd)
    values = np.empty((len(omegas), len(scales)))
    for i, w in enumerate(omegas):
        thetas = amp * t if w == 0.0 else (amp / w) * np.sin(w * t)
        pulses = dd.pulses.with_axes(rc.rotate_about_z(dd.pulses.axes, thetas))
        axes = np.broadcast_to(pulses.axes, (len(scales),) + pulses.axes.shape)
        toggled = tg.toggle_axes(axes, scales[:, None] * pulses.betas[None, :])
        values[i] = np.linalg.norm(toggled.mean(axis=1), axis=-1)
    return values


@pytest.mark.parametrize("name", ["xy4", "kdd20", "udd(7)", "u5"])
def test_centroid_map_matches_omega_loop_bit_for_bit(name):
    rng = np.random.default_rng(len(name))
    dd = catalog.named_dd(name)
    omegas = np.concatenate([[0.0], np.sort(rng.uniform(-5.0, 50.0, 6)), [1e-7]])
    scales = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0, 5)])
    for amp in (float(rng.uniform(0.05, 3.0)), None):
        cm = ddsim.centroid_map(dd, omega_grid=omegas, beta_scale_grid=scales, amp=amp)
        want = _centroid_map_reference(dd, omegas, scales, cm.amp)
        assert cm.values.tobytes() == want.tobytes()
    assert ddsim.static_field_dressed(dd, 0.3).pulses.axes.tobytes() == \
        rc.unit_vectors(rc.rotate_about_z(dd.pulses.axes, 0.3 * ddsim.kick_times(dd))).tobytes()


@pytest.mark.parametrize("kwargs, says", [
    pytest.param({"amp": np.inf}, "amp must be finite", id="amp-inf"),
    pytest.param({"amp": np.nan}, "amp must be finite", id="amp-nan"),
    pytest.param({"beta_scale_grid": [1.0, np.inf]}, "beta-scale grid must be finite",
                 id="scale-inf"),
    pytest.param({"omega_grid": [np.nan]}, "omega grid must be finite", id="omega-nan"),
    pytest.param({"omega_grid": []}, "omega grid must be nonempty", id="omega-empty"),
    pytest.param({"omega_grid": [1.0], "beta_scale_grid": [1e308, 1.0]},
                 "scaled flip angles must be finite, got inf", id="scale-overflowing-angles"),
])
def test_centroid_map_rejects_non_finite_inputs_with_one_line(kwargs, says):
    with pytest.raises(ValueError, match=says) as info:
        ddsim.centroid_map(catalog.named_dd("xy4"), **kwargs)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("delays", [[0.0, 0.0], [1e308, 1e308]], ids=["zero", "overflowing"])
def test_centroid_map_needs_a_total_only_for_its_defaults(delays):
    dd = ddsim.DDSequence(sm.sequence_from_phases("pix", np.pi, [0.0]), np.array(delays))
    for kwargs in ({}, {"omega_grid": [1.0]}, {"amp": 1.0}):
        with pytest.raises(ValueError, match="default omega grid and amp"):
            ddsim.centroid_map(dd, **kwargs)
    cm = ddsim.centroid_map(dd, omega_grid=[0.0, 1.0], beta_scale_grid=[1.0], amp=0.0)
    assert np.isfinite(cm.values).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    ddsim.kick_times,
    lambda dd: ddsim.centroid_map(dd, omega_grid=[1.0], amp=1.0),
    lambda dd: ddsim.static_field_dressed(dd, 1.0),
    lambda dd: ddsim.osc_field_dressed(dd, 1.0, 1.0),
], ids=["kick_times", "centroid_map", "static_field_dressed", "osc_field_dressed"])
def test_overflowing_kick_times_end_in_one_line(call):
    dd = ddsim.DDSequence(sm.sequence_from_phases("pix2", np.pi, [0.0, 0.0]),
                          np.array([1e308, 1e308, 0.0]))
    with pytest.raises(ValueError, match="must sum to a finite time, got inf") as info:
        call(dd)
    assert "\n" not in str(info.value)
    # kick times just below the float range still go through
    call(ddsim.DDSequence(dd.pulses, np.array([1e308, 7e307, 0.0])))


def test_map_csv_bytes_equal_per_value_formatting():
    """One %-format call per row writes what f"{x:.17g}" per value wrote,
    signed zeros and non-finite cells included."""
    cm = ddsim.CentroidMap(np.array([-0.0, 1e-300, 2.5]), np.array([0.0, 1.0 / 3.0, 1e17]),
                           np.array([[np.nan, -np.inf, np.inf], [-0.0, 0.1, 1e-17],
                                     [1.0, 2.0 / 3.0, 123456789.0]]), 1.0)
    lines = ["omega\\beta_scale," + ",".join(f"{s:.17g}" for s in cm.beta_scales)]
    for w, row in zip(cm.omegas, cm.values):
        lines.append(f"{w:.17g}," + ",".join(f"{v:.17g}" for v in row))
    assert ddsim.map_to_csv(cm) == "\n".join(lines) + "\n"
    assert "\n-0,nan,-inf,inf\n1e-300,-0," in ddsim.map_to_csv(cm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, got", [
    (lambda dd: ddsim.centroid_map(dd, amp=1e308), "inf"),
    (lambda dd: ddsim.centroid_map(dd, omega_grid=[0.0], amp=1e308), "inf"),
    (lambda dd: ddsim.static_field_dressed(dd, 1e308), "inf"),
    (lambda dd: ddsim.osc_field_dressed(dd, 1e-310, 1.0), "inf"),
    (lambda dd: ddsim.osc_field_dressed(dd, 1e308, 1e300), "nan"),
], ids=["centroid_map", "centroid_map-static", "static_field_dressed",
        "osc_field_dressed-amp-over-omega", "osc_field_dressed-omega-t"])
def test_overflowing_field_phases_end_in_one_line(call, got):
    with pytest.raises(ValueError, match=f"^field phases must be finite, got {got} at amp ") \
            as info:
        call(catalog.named_dd("xy4"))
    assert "\n" not in str(info.value)
