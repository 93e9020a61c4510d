"""Small-angle phase jitter of the chain's four lock points."""

import math

import numpy as np
import pytest

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, variance_at_angles, victor_lo_scan, \
    victor_variance_jitter
from cvteleport.units import to_db

SQ = SqueezingParams.from_db(-3.0, 7.0)


def test_jitter_validation_and_degrees():
    with pytest.raises(ValueError):
        PhaseJitter(theta_e_rms=-0.1)
    jit = PhaseJitter.from_degrees(theta_e=6.0, theta_b=3.0)
    assert jit.theta_e_rms == pytest.approx(math.radians(6.0), rel=1e-14)
    assert jit.theta_b_rms == pytest.approx(math.radians(3.0), rel=1e-14)
    wide = PhaseJitter(theta_ax_rms=0.5)  # a valid jitter for the Monte Carlo
    with pytest.raises(ValueError, match="small-angle"):
        victor_variance_jitter(SQ, wide, "p")  # but beyond the quadratic law


def test_zero_jitter_matches_static_chain():
    base = victor_variance_jitter(SQ, PhaseJitter(), "x")
    assert base == pytest.approx(1.0 + 2.0 * SQ.sigma_minus, rel=1e-14)
    assert victor_variance_jitter(SQ, PhaseJitter(), "p") == pytest.approx(
        base, rel=1e-14)


def test_jitter_weights_by_lock_point():
    h = 1e-3
    base = victor_variance_jitter(SQ, PhaseJitter(), "x")
    spread = SQ.sigma_plus - SQ.sigma_minus

    # a sender-arm wobble moves half its mean square angle of weight
    d_ax = victor_variance_jitter(SQ, PhaseJitter(theta_ax_rms=h), "x") - base
    assert d_ax == pytest.approx(0.5 * h * h * spread, rel=1e-9)

    # the EPR lock enters with exactly four times the receiver lock's weight
    d_e = victor_variance_jitter(SQ, PhaseJitter(theta_e_rms=h), "x") - base
    d_b = victor_variance_jitter(SQ, PhaseJitter(theta_b_rms=h), "x") - base
    assert d_e / d_b == pytest.approx(4.0, abs=1e-9)

    # the EPR lock leaves the conjugate quadrature untouched
    base_p = victor_variance_jitter(SQ, PhaseJitter(), "p")
    assert victor_variance_jitter(SQ, PhaseJitter(theta_e_rms=h), "p") == \
        pytest.approx(base_p, rel=1e-14)
    # sender arms act on their own quadrature only
    assert victor_variance_jitter(SQ, PhaseJitter(theta_ax_rms=h), "p") == \
        pytest.approx(base_p, rel=1e-14)
    assert victor_variance_jitter(SQ, PhaseJitter(theta_ap_rms=h), "p") > base_p


def test_lo_scan_endpoints_and_modulation():
    jit = PhaseJitter.from_degrees(theta_e=6.0)
    sigma_x = victor_variance_jitter(SQ, jit, "x")
    sigma_p = victor_variance_jitter(SQ, jit, "p")
    assert victor_lo_scan(SQ, jit, 0.0) == pytest.approx(sigma_x, rel=1e-14)
    assert victor_lo_scan(SQ, jit, math.pi / 2.0) == pytest.approx(sigma_p,
                                                                   rel=1e-14)
    assert sigma_x == pytest.approx(2.101304861790095, rel=1e-12)
    assert sigma_p == pytest.approx(2.0023744672545445, rel=1e-12)
    assert to_db(sigma_x) - to_db(sigma_p) == pytest.approx(
        0.20943766501702443, rel=1e-9)

    angles = np.linspace(0.0, 2.0 * math.pi, 361)
    scan = victor_lo_scan(SQ, jit, angles)
    assert scan.shape == angles.shape
    assert scan.min() >= min(sigma_x, sigma_p) - 1e-12
    assert scan.max() <= max(sigma_x, sigma_p) + 1e-12


def test_static_coefficients_match_chain():
    assert variance_at_angles(SQ) == pytest.approx(1.0 + 2.0 * SQ.sigma_minus,
                                                   rel=1e-12)
    # broadcasting over an array of EPR-phase angles
    thetas = np.array([0.0, 0.02, 0.05])
    values = variance_at_angles(SQ, theta_e=thetas)
    assert values.shape == thetas.shape
    assert np.all(np.diff(values) > 0.0)


def test_quadratic_law_matches_gaussian_angle_average():
    # draw the four lock angles from their Gaussian distributions and
    # average the exact variance; the quadratic law must agree closely
    rms = dict(theta_e=3.0, theta_ax=2.0, theta_ap=2.0, theta_b=3.0)
    jit = PhaseJitter.from_degrees(**rms)
    rng = np.random.default_rng(7)
    n = 400_000
    draws = {key: rng.normal(0.0, math.radians(val), size=n)
             for key, val in rms.items()}
    for quad in ("x", "p"):
        sampled = float(np.mean(variance_at_angles(
            SQ, draws["theta_e"], draws["theta_ax"], draws["theta_ap"],
            draws["theta_b"], quad=quad)))
        predicted = victor_variance_jitter(SQ, jit, quad)
        assert sampled == pytest.approx(predicted, rel=5e-3)
