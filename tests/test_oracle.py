"""Phase-space Monte Carlo against the closed-form station variances."""

import functools
import math
import sys
import threading

import numpy as np
import pytest

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, victor_variance_jitter
from cvteleport import oracle
from cvteleport.network import PORTS, live_ports, push, transfer_matrix
from cvteleport.oracle import _CHUNK, ChainConfig, _merge_moments, \
    _wishart_factor, closed_form_reference, simulate_chain
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


def _replayed_chunks(config):
    """Every chunk's (ports, angles) of a jittered run, rebuilt from the
    documented streams: chunk k draws from child k of SeedSequence(seed),
    the live ports first, then the rows of the angles with nonzero rms."""
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    live = live_ports(config.budget)
    live_angles = [k for k, r in enumerate(rms) if r > 0.0]
    n_chunks = -(-config.samples // _CHUNK)
    streams = np.random.SeedSequence(config.seed).spawn(n_chunks)
    for k, stream in enumerate(streams):
        n = min(_CHUNK, config.samples - k * _CHUNK)
        draws = np.random.default_rng(stream).standard_normal(
            (len(live) + len(live_angles), n))
        z = [0.0] * PORTS
        for port, row in zip(live, draws):
            z[port] = row
        angles = [0.0] * 4
        for a, row in zip(live_angles, draws[len(live):]):
            angles[a] = rms[a] * row
        yield z, tuple(angles)


def _drawn_angle_average(config):
    # diag(T T^T) averaged over the run's own replayed angles
    sums = 0.0
    for _, angles in _replayed_chunks(config):
        t = transfer_matrix(config.squeezing, config.budget, config.gains, angles)
        sums = sums + (t * t).sum(axis=-1).sum(axis=0)
    return sums / config.samples


def test_jitter_estimates_replay_from_the_chunk_streams():
    # three chunks, the last one short, on a lossy chain whose theta_e and
    # theta_b are live and whose sender angles are dead
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0),
                         budget=EfficiencyBudget(xi1=0.8, alpha_ax=0.7, alpha_v=0.8),
                         gains=GainSettings(0.9, 1.1),
                         jitter=PhaseJitter.from_degrees(theta_e=4.0, theta_b=3.0),
                         samples=2 * _CHUNK + 7, seed=29)
    outputs = np.concatenate(
        [np.array(push(z, config.squeezing, config.budget, config.gains, angles))
         for z, angles in _replayed_chunks(config)], axis=1)
    assert outputs.shape == (4, config.samples)
    expected = outputs.var(axis=1, ddof=1)
    est = simulate_chain(config)
    for k, key in enumerate(("sigma_a_x", "sigma_a_p", "sigma_v_x", "sigma_v_p")):
        assert getattr(est, key).value == pytest.approx(expected[k], rel=1e-12), key


@pytest.mark.parametrize("workers", [1, 4])
def test_jitter_estimates_do_not_depend_on_the_worker_count(monkeypatch, workers):
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=AS_BUILT,
                         jitter=PhaseJitter.from_degrees(4.0, 2.0, 3.0, 5.0),
                         samples=3 * _CHUNK + 11, seed=31)
    default = simulate_chain(config)
    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    # switch threads as often as the interpreter allows, so a chunk that
    # read another's state would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert simulate_chain(config) == default
    finally:
        sys.setswitchinterval(interval)


def test_jitter_estimates_do_not_depend_on_the_push_block(monkeypatch):
    # a block that divides neither the chunk nor the short last chunk
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=AS_BUILT,
                         jitter=PhaseJitter.from_degrees(4.0, 0.0, 3.0, 5.0),
                         samples=2 * _CHUNK + 1001, seed=37)
    default = simulate_chain(config)
    monkeypatch.setattr(oracle, "_BLOCK", 999)
    assert simulate_chain(config) == default


def test_a_failing_chunk_raises_instead_of_stalling_the_pool(monkeypatch):
    def broken_push(*args):
        raise RuntimeError("push failed")

    monkeypatch.setattr(oracle, "push", broken_push)
    monkeypatch.setattr(oracle, "_workers", lambda: 2)
    config = ChainConfig(jitter=PhaseJitter.from_degrees(theta_e=2.0),
                         samples=4 * _CHUNK, seed=3)
    raised = []

    def run():
        try:
            simulate_chain(config)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "the pool stalled"
    assert raised


def test_merge_moments_matches_two_pass_variance():
    # uneven chunks of data far from zero, where s2 - s1**2/n loses every
    # digit. Each chunk mean is itself rounded to within half an ulp of 1e8
    # (7.5e-9), which enters the merged M2 at first order: about 1e-10
    # relative here, so that is the floor of any merge of float64 means
    sizes = (5, 3, 1000, 2 ** 15 + 1)
    x = 1e8 + np.random.default_rng(41).standard_normal(sum(sizes))
    chunks = []
    for part in np.split(x, np.cumsum(sizes)[:-1]):
        mean = part.mean()
        chunks.append((part.size, mean, ((part - mean) ** 2).sum()))
    n, mean, m2 = functools.reduce(_merge_moments, chunks)
    assert n == x.size
    assert mean == pytest.approx(x.mean(), rel=1e-15)
    assert m2 / (n - 1) == pytest.approx(x.var(ddof=1), rel=1e-9)


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
