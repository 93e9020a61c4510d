"""Small-angle phase jitter of the chain's four lock points."""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, _jitter_weight, victor_lo_scan, \
    victor_variance_jitter
from cvteleport.network import lock_curvatures, transfer_matrix
from cvteleport.scenarios import OracleGridParams, grid_configs
from cvteleport.teleporter import EfficiencyBudget, GainSettings
from cvteleport.units import to_db

SQ = SqueezingParams.from_db(-3.0, 7.0)


def exact_variances(theta_e, theta_ax, theta_ap, theta_b, quad):
    """Output variance at each set of fixed lock angles, ideal chain at unit
    gain: the squared norm of the x_out or p_out row of the transfer matrix."""
    row = 2 if quad == "x" else 3
    thetas = tuple(np.broadcast_arrays(theta_e, theta_ax, theta_ap, theta_b))
    t = transfer_matrix(SQ, EfficiencyBudget.ideal(), GainSettings(), thetas)
    return (t[:, row, :] * t[:, row, :]).sum(axis=-1)


def test_jitter_validation_and_degrees():
    with pytest.raises(ValueError):
        PhaseJitter(theta_e_rms=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta_ap_rms must be finite"):
            PhaseJitter(theta_ap_rms=value)
    jit = PhaseJitter.from_degrees(theta_e=6.0, theta_b=3.0)
    assert jit.theta_e_rms == pytest.approx(math.radians(6.0), rel=1e-14)
    assert jit.theta_b_rms == pytest.approx(math.radians(3.0), rel=1e-14)
    wide = PhaseJitter(theta_ax_rms=0.5)  # a valid jitter for the Monte Carlo
    with pytest.raises(ValueError, match="small-angle"):
        victor_variance_jitter(SQ, wide)  # but beyond the quadratic law


def test_zero_jitter_matches_static_chain():
    base, base_p = victor_variance_jitter(SQ, PhaseJitter())
    assert base == pytest.approx(1.0 + 2.0 * SQ.sigma_minus, rel=1e-14)
    assert base_p == pytest.approx(base, rel=1e-14)


def test_jitter_weights_by_lock_point():
    h = 1e-3
    base = victor_variance_jitter(SQ, PhaseJitter())[0]
    spread = SQ.sigma_plus - SQ.sigma_minus

    # a sender-arm wobble moves half its mean square angle of weight
    d_ax = victor_variance_jitter(SQ, PhaseJitter(theta_ax_rms=h))[0] - base
    assert d_ax == pytest.approx(0.5 * h * h * spread, rel=1e-9)

    # the EPR lock leaves the conjugate quadrature untouched
    base_p = victor_variance_jitter(SQ, PhaseJitter())[1]
    assert victor_variance_jitter(SQ, PhaseJitter(theta_e_rms=h))[1] == \
        pytest.approx(base_p, rel=1e-14)
    # sender arms act on their own quadrature only
    assert victor_variance_jitter(SQ, PhaseJitter(theta_ax_rms=h))[1] == \
        pytest.approx(base_p, rel=1e-14)
    assert victor_variance_jitter(SQ, PhaseJitter(theta_ap_rms=h))[1] > base_p


def test_epr_lock_weighs_four_times_the_receiver_lock():
    # the angles enter only through w (sigma_plus - sigma_minus) on top of
    # the static chain, so at h = 1e-3 the ratio of the two small
    # differences is 4 to their rounding
    h = 1e-3
    base = victor_variance_jitter(SQ, PhaseJitter())[0]
    d_e = victor_variance_jitter(SQ, PhaseJitter(theta_e_rms=h))[0] - base
    d_b = victor_variance_jitter(SQ, PhaseJitter(theta_b_rms=h))[0] - base
    assert d_e / d_b == pytest.approx(4.0, abs=3e-10)


@settings(max_examples=100, deadline=None)
@given(r_minus=st.floats(min_value=0.05, max_value=1.5),
       excess=st.floats(min_value=0.0, max_value=1.0))
def test_the_laws_weights_are_the_networks_curvatures(r_minus, excess):
    # the law's hand-written weights, derived from the network: on the ideal
    # chain at unit gain, the curvature of each output variance along each
    # lock angle is that angle's weight times sigma_plus - sigma_minus
    sq = SqueezingParams(r_minus, r_minus + excess)
    spread = sq.sigma_plus - sq.sigma_minus
    curvature = lock_curvatures(sq, EfficiencyBudget.ideal(), GainSettings())
    for k, lock in enumerate(fields(PhaseJitter)):
        unit = PhaseJitter(**{lock.name: 1.0})
        for row, weight in zip((2, 3), _jitter_weight(unit)):
            assert abs(curvature[k, row] - weight * spread) <= 1e-12 * spread, \
                (lock.name, row)


def _three_node_rule(sigma):
    """Nodes (0, a, -a) and weights of the symmetric rule that matches
    E[cos theta] = exp(-sigma^2/2) and E[cos 2 theta] = exp(-2 sigma^2) for
    theta ~ N(0, sigma^2), and so averages any polynomial of degree 2 in
    (cos theta, sin theta) exactly."""
    one_minus_c1 = -math.expm1(-0.5 * sigma * sigma)
    one_minus_c2 = -math.expm1(-2.0 * sigma * sigma)
    cos_a = one_minus_c2 / (2.0 * one_minus_c1) - 1.0
    w = one_minus_c1 / (2.0 * (1.0 - cos_a))
    a = math.acos(cos_a)
    return (0.0, a, -a), (1.0 - 2.0 * w, w, w)


def _product_rule(jitter):
    """Lock angles and weights of the product of three-node rules over the
    live angles (a dead angle is the single node 0): at most 81 nodes, and
    exact for any product of two entries of T."""
    rules = []
    for lock in fields(PhaseJitter):
        sigma = getattr(jitter, lock.name)
        nodes, weights = ((0.0,), (1.0,)) if sigma == 0.0 else _three_node_rule(sigma)
        rules.append(list(zip(nodes, weights)))
    grid = list(itertools.product(*rules))
    angles = tuple(np.array([point[k][0] for point in grid]) for k in range(4))
    weights = np.array([math.prod(w for _, w in point) for point in grid])
    return angles, weights


def test_jitter_averaged_cross_term_vanishes():
    # victor_lo_scan interpolates between the x and p variances by
    # cos^2/sin^2, exact only if E[x_out p_out] = 0. Each angle enters T
    # through one rotation, so the product of two entries has degree 2 in
    # each angle's (cos, sin), and the product of three-node rules over the
    # live angles averages it exactly
    configs = [config for _, config in grid_configs(OracleGridParams(), seed=0)
               if config.jitter is not None]
    assert len(configs) == 5
    for config in configs:
        for lock in fields(PhaseJitter):
            sigma = getattr(config.jitter, lock.name)
            if sigma == 0.0:
                continue
            nodes, weights = _three_node_rule(sigma)
            assert sum(w * math.cos(n) for n, w in zip(nodes, weights)) == \
                pytest.approx(math.exp(-0.5 * sigma * sigma), abs=1e-15)
            assert sum(w * math.cos(2.0 * n) for n, w in zip(nodes, weights)) == \
                pytest.approx(math.exp(-2.0 * sigma * sigma), abs=1e-15)
        angles, weights = _product_rule(config.jitter)
        assert len(weights) <= 81
        t = transfer_matrix(config.squeezing, config.budget, config.gains, angles)
        cross = weights @ (t[:, 2, :] * t[:, 3, :]).sum(axis=-1)
        assert abs(cross) < 1e-15, config.jitter


def test_lo_scan_endpoints_and_modulation():
    jit = PhaseJitter.from_degrees(theta_e=6.0)
    sigma_x, sigma_p = victor_variance_jitter(SQ, jit)
    at_x, at_p = victor_lo_scan(SQ, jit, [0.0, math.pi / 2.0])
    assert at_x == pytest.approx(sigma_x, rel=1e-14)
    assert at_p == pytest.approx(sigma_p, rel=1e-14)
    assert sigma_x == pytest.approx(2.101304861790095, rel=1e-12)
    assert sigma_p == pytest.approx(2.0023744672545445, rel=1e-12)
    assert to_db(sigma_x) - to_db(sigma_p) == pytest.approx(
        0.20943766501702443, rel=1e-9)

    angles = np.linspace(0.0, 2.0 * math.pi, 361)
    scan = victor_lo_scan(SQ, jit, angles)
    assert len(scan) == len(angles)
    assert min(scan) >= min(sigma_x, sigma_p) - 1e-12
    assert max(scan) <= max(sigma_x, sigma_p) + 1e-12


@pytest.mark.parametrize("container", [list, tuple, lambda a: (t for t in a)],
                         ids=["list", "tuple", "generator"])
def test_lo_scan_returns_a_list_of_floats(container):
    jit = PhaseJitter.from_degrees(theta_e=6.0)
    angles = [0.0, 0.5, math.pi]
    scan = victor_lo_scan(SQ, jit, container(angles))
    assert type(scan) is list
    assert [type(v) for v in scan] == [float] * len(angles)
    assert scan == victor_lo_scan(SQ, jit, angles)
    assert victor_lo_scan(SQ, jit, container([])) == []


def test_static_coefficients_match_chain():
    locked = transfer_matrix(SQ, EfficiencyBudget.ideal(), GainSettings())
    assert (locked[2] * locked[2]).sum() == pytest.approx(
        1.0 + 2.0 * SQ.sigma_minus, rel=1e-12)
    # the x variance grows with the EPR-phase angle
    thetas = np.array([0.0, 0.02, 0.05])
    values = exact_variances(thetas, 0.0, 0.0, 0.0, "x")
    assert values.shape == thetas.shape
    assert np.all(np.diff(values) > 0.0)


def test_quadratic_law_matches_gaussian_angle_average():
    # the exact average of each output variance over Gaussian lock angles,
    # by the three-node product rule at 81 nodes; the law's quartic error at
    # these angles is 7.4e-5 relative in x and 7.7e-6 in p
    jit = PhaseJitter.from_degrees(3.0, 2.0, 2.0, 3.0)
    angles, weights = _product_rule(jit)
    assert len(weights) == 81
    t = transfer_matrix(SQ, EfficiencyBudget.ideal(), GainSettings(), angles)
    for row, law in zip((2, 3), victor_variance_jitter(SQ, jit)):
        exact = float(weights @ (t[:, row, :] * t[:, row, :]).sum(axis=-1))
        assert law == pytest.approx(exact, rel=2e-4)
