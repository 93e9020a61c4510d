"""Phase-space Monte Carlo against the closed-form station variances."""

import math

import pytest

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, victor_variance_jitter
from cvteleport.oracle import ChainConfig, closed_form_reference, simulate_chain
from cvteleport.teleporter import CoherentAmplitude, EfficiencyBudget, \
    GainSettings, alice_variance, victor_variance

AS_BUILT = EfficiencyBudget(xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988,
                            xi5=0.985, alpha_ax=0.988, alpha_ap=0.988,
                            alpha_v=0.988, r_b=math.sqrt(0.99), t_b=0.1)


def test_classical_anchor():
    config = ChainConfig(samples=400_000, seed=3)
    est = simulate_chain(config)
    assert abs(est.sigma_v_x.value - 3.0) < 4.0 * est.sigma_v_x.stderr
    assert abs(est.sigma_v_p.value - 3.0) < 4.0 * est.sigma_v_p.stderr
    assert abs(est.sigma_a_x.value - 1.0) < 4.0 * est.sigma_a_x.stderr
    assert est.samples == 400_000


def test_as_built_classical_point():
    config = ChainConfig(budget=AS_BUILT, samples=300_000, seed=11)
    est = simulate_chain(config)
    predicted = victor_variance(SqueezingParams.vacuum(), AS_BUILT,
                                GainSettings(), "x")
    assert abs(est.sigma_v_x.value - predicted) < 4.0 * est.sigma_v_x.stderr


def test_squeezed_chain_both_stations():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    config = ChainConfig(squeezing=sq, budget=AS_BUILT, samples=300_000, seed=5)
    est = simulate_chain(config)
    for key, predicted in (
        ("sigma_v_x", victor_variance(sq, AS_BUILT, GainSettings(), "x")),
        ("sigma_v_p", victor_variance(sq, AS_BUILT, GainSettings(), "p")),
        ("sigma_a_x", alice_variance(sq, AS_BUILT, "x")),
        ("sigma_a_p", alice_variance(sq, AS_BUILT, "p")),
    ):
        estimate = getattr(est, key)
        assert abs(estimate.value - predicted) < 4.0 * estimate.stderr, key


def test_unit_gain_teleports_the_mean():
    beta = CoherentAmplitude.from_means(3.0, -2.0)
    config = ChainConfig(input=beta, samples=200_000, seed=9)
    est = simulate_chain(config)
    assert abs(est.mean_v_x.value - 3.0) < 4.0 * est.mean_v_x.stderr
    assert abs(est.mean_v_p.value + 2.0) < 4.0 * est.mean_v_p.stderr
    assert est.beta_v_power == pytest.approx(
        est.mean_v_x.value ** 2 + est.mean_v_p.value ** 2, rel=1e-12)


def test_deterministic_under_fixed_seed():
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0),
                         budget=AS_BUILT, samples=50_000, seed=21)
    first = simulate_chain(config)
    second = simulate_chain(config)
    assert first == second
    shifted = simulate_chain(ChainConfig(
        squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=AS_BUILT,
        samples=50_000, seed=22))
    assert shifted.sigma_v_x.value != first.sigma_v_x.value


def test_stderr_scales_with_samples():
    small = simulate_chain(ChainConfig(samples=10_000, seed=2))
    large = simulate_chain(ChainConfig(samples=1_000_000, seed=2))
    ratio = small.sigma_v_x.stderr / large.sigma_v_x.stderr
    assert 8.0 < ratio < 12.5


def test_jitter_chain_matches_quadratic_law():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    jit = PhaseJitter.from_degrees(theta_e=6.0)
    config = ChainConfig(squeezing=sq, jitter=jit, samples=300_000, seed=13)
    est = simulate_chain(config)
    predicted = victor_variance_jitter(sq, jit, "x")
    assert abs(est.sigma_v_x.value - predicted) < 3.5 * est.sigma_v_x.stderr


def test_closed_form_reference_selection():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    plain = ChainConfig(squeezing=sq, budget=AS_BUILT)
    ref = closed_form_reference(plain)
    assert ref["sigma_v_x"] == pytest.approx(
        victor_variance(sq, AS_BUILT, GainSettings(), "x"), rel=1e-14)
    assert ref["sigma_a_p"] == pytest.approx(alice_variance(sq, AS_BUILT, "p"),
                                             rel=1e-14)

    jit = PhaseJitter.from_degrees(theta_e=4.0)
    jittered = ChainConfig(squeezing=sq, jitter=jit)
    ref = closed_form_reference(jittered)
    assert ref["sigma_v_x"] == pytest.approx(victor_variance_jitter(sq, jit, "x"),
                                             rel=1e-14)
    assert ref["sigma_a_x"] is None

    # no closed form once jitter rides on a lossy chain
    both = ChainConfig(squeezing=sq, budget=AS_BUILT, jitter=jit)
    assert closed_form_reference(both)["sigma_v_x"] is None


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(samples=0)
