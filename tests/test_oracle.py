"""Phase-space Monte Carlo against the closed-form station variances."""

import math

import numpy as np
import pytest

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, victor_variance_jitter
from cvteleport.network import PORTS, live_ports, transfer_matrix
from cvteleport.oracle import _CHUNK, ChainConfig, _wishart_factor, \
    closed_form_reference, simulate_chain
from cvteleport.scenarios import OracleGridParams, grid_configs
from cvteleport.teleporter import EfficiencyBudget, GainSettings, \
    alice_variance, victor_variance

AS_BUILT = EfficiencyBudget(xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988,
                            xi5=0.985, alpha_ax=0.988, alpha_ap=0.988,
                            alpha_v=0.988, r_b=math.sqrt(0.99))


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


def _drawn_angle_average(config):
    # replay the one chunk's draws: the live ports, then the four angle rows
    assert config.samples <= _CHUNK
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    n_live = len(live_ports(config.budget))
    rows = np.random.default_rng(config.seed).standard_normal(
        (n_live + 4, config.samples))[n_live:]
    angles = tuple(r * row for r, row in zip(rms, rows))
    t = transfer_matrix(config.squeezing, config.budget, config.gains, angles)
    return (t * t).sum(axis=-1).mean(axis=0)


@pytest.mark.parametrize("budget", [
    AS_BUILT,
    # lossy overlap, sender x arm and verifier, the rest lossless: ports 9-13
    # are skipped, and each live loss port carries several SE of variance
    EfficiencyBudget(xi1=0.8, alpha_ax=0.7, alpha_v=0.8),
])
def test_lossy_jitter_chain_matches_its_drawn_angles(budget):
    # the grid's jitter cells all sit on the ideal chain; given its angles, a
    # jittered run's variance estimate has mean diag(T T^T) averaged over them
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=budget,
                         gains=GainSettings(0.9, 1.1),
                         jitter=PhaseJitter.from_degrees(theta_e=4.0),
                         samples=20_000, seed=17)
    est = simulate_chain(config)
    expected = _drawn_angle_average(config)
    for k, key in enumerate(("sigma_a_x", "sigma_a_p", "sigma_v_x", "sigma_v_p")):
        estimate = getattr(est, key)
        assert abs(estimate.value - expected[k]) < 4.0 * estimate.stderr, key


def test_gaussian_cells_are_calibrated():
    # z-scores of 100 seeds of the 27 jitter-free grid configs at N = 1e6:
    # a wrong standard error or degree of freedom moves their rms, which the
    # 95%-within-3-SE gate cannot see
    z = []
    for run in range(100):
        for _, config in grid_configs(OracleGridParams(), seed=1000 * run):
            if config.jitter is not None:
                continue
            est = simulate_chain(config)
            for key, reference in closed_form_reference(config).items():
                estimate = getattr(est, key)
                z.append((estimate.value - reference) / estimate.stderr)
    z = np.array(z)
    assert z.size == 100 * 27 * 4
    assert 0.95 <= math.sqrt(np.mean(z * z)) <= 1.05
    assert np.mean(np.abs(z) > 3.0) < 0.01
    assert abs(np.mean(z)) < 0.05


@pytest.mark.parametrize("samples", [5, 1000])
def test_wishart_factor_moments(samples):
    dof = samples - 1
    rng = np.random.default_rng(samples)
    draws = 4000
    w = np.empty((draws, PORTS, PORTS))
    for k in range(draws):
        a = _wishart_factor(rng, dof)
        w[k] = a @ a.T
    # Wishart(dof, I): mean dof I, variance 2 dof on the diagonal, dof off it
    expected_var = dof * (1.0 + np.eye(PORTS))
    assert np.all(np.abs(w.mean(axis=0) - dof * np.eye(PORTS))
                  < 5.0 * np.sqrt(expected_var / draws))
    np.testing.assert_allclose(w.var(axis=0, ddof=1), expected_var, rtol=0.2)


@pytest.mark.parametrize("samples", [2, 5, 16, 17, 18])
def test_wishart_factor_rank(samples):
    a = _wishart_factor(np.random.default_rng(samples), samples - 1)
    assert a.shape == (PORTS, min(PORTS, samples - 1))
    assert np.linalg.matrix_rank(a @ a.T) == min(PORTS, samples - 1)


@pytest.mark.parametrize("budget", [EfficiencyBudget.ideal(), AS_BUILT])
def test_two_samples_give_finite_positive_estimates(budget):
    est = simulate_chain(ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0),
                                     budget=budget, samples=2, seed=4))
    for key in ("sigma_v_x", "sigma_v_p", "sigma_a_x", "sigma_a_p"):
        estimate = getattr(est, key)
        assert math.isfinite(estimate.value) and estimate.value > 0.0, key
        assert math.isfinite(estimate.stderr) and estimate.stderr > 0.0, key


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
    with pytest.raises(ValueError, match="samples"):
        ChainConfig(samples=1)  # a sample variance needs two shots
