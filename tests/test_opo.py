"""Squeezer cavity: pump-dependent loss, gain, threshold and spectra."""

import math

import numpy as np
import pytest

from cvteleport.epr import SqueezingParams
from cvteleport.opo import BliiraTable, DetectionChain, OpoParams, \
    back_propagate_to_epr, double_pump_debit, escape_efficiency, \
    parametric_gain, squeezing_vs_pump, threshold, total_loss
from cvteleport.units import invert_loss_channel, loss_channel

FLAT = OpoParams(t_coupler=0.10, e_nl=0.021, l_passive=0.003,
                 bliira=BliiraTable.flat(0.017))


def test_bliira_table():
    table = BliiraTable.default()
    assert table(0.0) == 0.0
    assert table(0.155) == pytest.approx(0.017, rel=1e-12)
    assert 0.0 < table(0.08) < 0.017
    assert table(1.0) == pytest.approx(0.017, rel=1e-12)  # clamped

    assert BliiraTable.flat(0.01)(0.5) == 0.01
    with pytest.raises(ValueError):
        BliiraTable(pump_w=(0.1, 0.0), loss=(0.0, 0.01))
    with pytest.raises(ValueError):
        BliiraTable(pump_w=(0.0, 0.1), loss=(0.01, 0.0))


@pytest.mark.parametrize("table", [
    BliiraTable.default(),
    BliiraTable((0.0, 0.05, 0.155), (0.0, 0.004, 0.017)),
    BliiraTable.flat(0.01),
])
def test_bliira_table_matches_np_interp(table):
    # random pumps across and beyond the table, every table point, and
    # the floats next to both ends
    rng = np.random.default_rng(11)
    pumps = rng.uniform(-0.05, 0.25, size=2000).tolist() + list(table.pump_w) + [
        0.0, 1.0, math.nextafter(table.pump_w[0], -1.0),
        math.nextafter(table.pump_w[0], 1.0),
        math.nextafter(table.pump_w[-1], -1.0),
        math.nextafter(table.pump_w[-1], 1.0)]
    for pump in pumps:
        value = table(pump)
        assert type(value) is float
        assert value == float(np.interp(pump, table.pump_w, table.loss)), pump


def test_opo_params_validation():
    with pytest.raises(ValueError):
        OpoParams(t_coupler=0.0)
    with pytest.raises(ValueError):
        OpoParams(e_nl=-1.0)


def test_detection_chain():
    chain = DetectionChain.from_intensity_loss(0.057, 0.990, 0.988)
    assert chain.propagation == pytest.approx(math.sqrt(1.0 - 0.057), rel=1e-14)
    assert chain.amplitude == pytest.approx(0.95558541659027, rel=1e-12)
    assert chain.efficiency == pytest.approx(chain.amplitude ** 2, rel=1e-14)
    assert DetectionChain().amplitude == 1.0
    with pytest.raises(ValueError):
        DetectionChain(visibility=1.2)


def test_threshold_and_gain():
    p_t = threshold(FLAT, 0.0)
    assert p_t * 1e3 == pytest.approx(171.42857142857144, rel=1e-12)
    assert parametric_gain(FLAT, p_t / 4.0) == 4.0
    assert parametric_gain(FLAT, 0.0) == 1.0
    assert parametric_gain(FLAT, 0.9 * p_t) == pytest.approx(
        379.73665961010227, rel=1e-9)

    # divergence approaching threshold, then a domain error at and above it
    assert parametric_gain(FLAT, (1.0 - 1e-12) * p_t) > 1e10
    with pytest.raises(ValueError):
        parametric_gain(FLAT, p_t)

    pumps = np.linspace(0.0, 0.95 * p_t, 40)
    gains = [parametric_gain(FLAT, float(p)) for p in pumps]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_threshold_tracks_pump_dependent_loss():
    opo = OpoParams(t_coupler=0.10, e_nl=0.021, l_passive=0.003)
    assert threshold(opo, 0.0) == pytest.approx(0.103 ** 2 / (4.0 * 0.021),
                                                rel=1e-12)
    # extra absorption at high pump raises the threshold
    assert threshold(opo, 0.155) > threshold(opo, 0.0)
    assert total_loss(opo, 0.155) == pytest.approx(0.02, rel=1e-12)


def test_escape_efficiency():
    assert escape_efficiency(FLAT, 0.05) == pytest.approx(0.8333333333333333,
                                                          rel=1e-12)


def test_squeezing_vs_pump_reference_points():
    opo = OpoParams(t_coupler=0.10, e_nl=0.019, l_passive=0.003)
    chain = DetectionChain.from_intensity_loss(0.057, 0.990, 0.988)
    at42 = squeezing_vs_pump(opo, chain, 0.042)
    assert at42.minus_db == pytest.approx(-5.891681705084473, rel=1e-12)
    assert at42.plus_db == pytest.approx(8.411561154351194, rel=1e-12)
    at107 = squeezing_vs_pump(opo, chain, 0.107)
    assert at107.minus_db == pytest.approx(-6.317277985161006, rel=1e-12)
    assert at107.plus_db == pytest.approx(13.380087066657394, rel=1e-12)

    assert squeezing_vs_pump(opo, chain, 0.0) == SqueezingParams()
    with pytest.raises(ValueError):
        squeezing_vs_pump(opo, chain, 0.2)  # past the high-pump threshold
    with pytest.raises(ValueError, match="pump must be >= 0"):
        squeezing_vs_pump(opo, chain, -0.01)  # refused by the loss lookup

    # the detected state stays physical across the band
    for pump in np.linspace(0.0, 0.135, 28):
        sq = squeezing_vs_pump(opo, chain, float(pump))
        assert sq.sigma_minus * sq.sigma_plus >= 1.0 - 1e-12


def test_double_pump_debit():
    sq = SqueezingParams.from_db(-3.73, 6.9)
    derated = double_pump_debit(sq, 0.3)
    assert derated.minus_db == pytest.approx(-3.43, abs=1e-12)
    assert derated.plus_db == pytest.approx(6.9, abs=1e-12)
    # never derates past the vacuum level
    shallow = double_pump_debit(SqueezingParams.from_db(-0.2, 6.9), 0.3)
    assert shallow.sigma_minus == 1.0
    with pytest.raises(ValueError):
        double_pump_debit(sq, -0.1)


def test_back_propagation_identity_and_anchor():
    sq = SqueezingParams.from_db(-3.73, 6.9)
    same = back_propagate_to_epr(sq, DetectionChain(), 1.0)
    assert same.minus_db == pytest.approx(sq.minus_db, abs=1e-12)
    assert same.plus_db == pytest.approx(sq.plus_db, abs=1e-12)

    chain = DetectionChain(1.0, 0.972, 0.988)
    at_epr = back_propagate_to_epr(sq, chain, 0.985)
    assert at_epr.minus_db == pytest.approx(-3.9692698223379446, rel=1e-12)
    assert at_epr.plus_db == pytest.approx(7.034086308453796, rel=1e-12)

    # undoing the entangling-path share and re-applying the full chain
    # reproduces the detected variances
    recovered = loss_channel(invert_loss_channel(at_epr.sigma_minus, 0.985),
                             chain.amplitude)
    assert recovered == pytest.approx(sq.sigma_minus, rel=1e-12)
