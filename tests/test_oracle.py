"""Phase-space Monte Carlo against the closed-form station variances."""

import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, victor_variance_jitter
from cvteleport import oracle
from cvteleport.cli import main
from cvteleport.network import PORTS, live_ports, push, transfer_matrix
from cvteleport.oracle import _CHUNK, ChainConfig, _merge_moments, \
    _wishart_factor, simulate_chain
from cvteleport.scenarios import OracleGridParams, closed_form_reference, \
    grid_configs
from cvteleport.teleporter import EfficiencyBudget, GainSettings, \
    alice_variance, victor_variance

AS_BUILT = EfficiencyBudget(xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988,
                            xi5=0.985, alpha_ax=0.988, alpha_ap=0.988,
                            alpha_v=0.988, r_b=math.sqrt(0.99))
# the unit roundoff of float32, in which the jitter chunks run
U32 = 2.0**-24


def test_classical_anchor():
    config = ChainConfig(samples=400_000, seed=3)
    est = simulate_chain(config)
    (v_x, v_p), (a_x, _) = est.victor, est.alice
    assert abs(v_x.value - 3.0) < 4.0 * v_x.stderr
    assert abs(v_p.value - 3.0) < 4.0 * v_p.stderr
    assert abs(a_x.value - 1.0) < 4.0 * a_x.stderr


def test_as_built_classical_point():
    config = ChainConfig(budget=AS_BUILT, samples=300_000, seed=11)
    est = simulate_chain(config)
    predicted = victor_variance(SqueezingParams(), AS_BUILT,
                                GainSettings())[0]
    assert abs(est.victor[0].value - predicted) < 4.0 * est.victor[0].stderr


def test_squeezed_chain_both_stations():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    config = ChainConfig(squeezing=sq, budget=AS_BUILT, samples=300_000, seed=5)
    est = simulate_chain(config)
    predictions = victor_variance(sq, AS_BUILT, GainSettings()) + alice_variance(sq, AS_BUILT)
    for k, (estimate, predicted) in enumerate(zip(est.victor + est.alice, predictions)):
        assert abs(estimate.value - predicted) < 4.0 * estimate.stderr, k


def test_deterministic_under_fixed_seed():
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0),
                         budget=AS_BUILT, samples=50_000, seed=21)
    first = simulate_chain(config)
    second = simulate_chain(config)
    assert first == second
    shifted = simulate_chain(ChainConfig(
        squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=AS_BUILT,
        samples=50_000, seed=22))
    assert shifted.victor[0].value != first.victor[0].value


def test_stderr_scales_with_samples():
    small = simulate_chain(ChainConfig(samples=10_000, seed=2))
    large = simulate_chain(ChainConfig(samples=1_000_000, seed=2))
    ratio = small.victor[0].stderr / large.victor[0].stderr
    assert 8.0 < ratio < 12.5


def test_jitter_chain_matches_quadratic_law():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    jit = PhaseJitter.from_degrees(theta_e=6.0)
    config = ChainConfig(squeezing=sq, jitter=jit, samples=300_000, seed=13)
    est = simulate_chain(config)
    predicted = victor_variance_jitter(sq, jit)[0]
    assert abs(est.victor[0].value - predicted) < 3.5 * est.victor[0].stderr


def _replayed_chunks(config):
    """Every chunk's (ports, angles) of a jittered run, rebuilt from the
    documented streams: chunk k draws float32 uniforms u of shape (2, R, n)
    from an SFC64 generator seeded with child k of SeedSequence(seed), R =
    ceil(rows / 2); the normals r cos(2 pi u[1]) over r sin(2 pi u[1]), with
    r = sqrt(-2 log(1 - u[0])), give the live ports first, then the rows of
    the angles with nonzero rms, and an odd last row is dropped. The replay
    takes the run's own uniforms and computes the rest in float64."""
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    live = live_ports(config.budget)
    live_angles = [k for k, r in enumerate(rms) if r > 0.0]
    rows = len(live) + len(live_angles)
    pairs = -(-rows // 2)
    n_chunks = -(-config.samples // _CHUNK)
    streams = np.random.SeedSequence(config.seed).spawn(n_chunks)
    for k, stream in enumerate(streams):
        n = min(_CHUNK, config.samples - k * _CHUNK)
        u = np.random.Generator(np.random.SFC64(stream)) \
            .random((2, pairs, n), dtype=np.float32).astype(np.float64)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0]))
        phi = 2.0 * np.pi * u[1]
        draws = np.concatenate([r * np.cos(phi), r * np.sin(phi)])[:rows]
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
    outputs = np.empty((4, config.samples))
    start = 0
    for z, angles in _replayed_chunks(config):
        stop = start + z[0].size
        push(z, config.squeezing, config.budget, config.gains, angles,
             outputs[:, start:stop])
        start = stop
    assert start == config.samples
    expected = outputs.var(axis=1, ddof=1)
    est = simulate_chain(config)
    # the run transforms, pushes and sums each chunk in float32, whose unit
    # roundoff is U32 = 2**-24, and the replay does all but the draw in
    # float64. Each rounding moves a shot by about U32 relative at most (the
    # transform by 16 U32 per unit radius, see the Box-Muller test), and the
    # variance sums the squares of 65543 shots, over which unbiased
    # roundings average out: the run agrees with the replay to within 2 U32
    # on every dispatch target tried. 16 U32 = 9.5e-7 leaves 8x room, while
    # a replay of any other draw misses by the estimate's own scatter,
    # sqrt(2 / N) = 5.5e-3 here
    for k, estimate in enumerate(est.alice + est.victor):
        assert estimate.value == pytest.approx(expected[k], rel=16 * U32), k


@pytest.mark.parametrize("seed", [0, 29, 2**40 + 3])
def test_chunk_streams_are_the_children_of_spawn(seed):
    # chunk k seeds its generator with SeedSequence(seed, spawn_key=(k,)),
    # built when the chunk runs; spawn() builds every child up front
    children = np.random.SeedSequence(seed).spawn(1025)
    for k in (0, 1, 2, 31, 1024):
        own = np.random.SeedSequence(seed, spawn_key=(k,))
        assert np.array_equal(own.generate_state(8), children[k].generate_state(8)), k


# Generator.random draws the multiples of 2**-b in [0, 1): b = 53 in float64
# and 24 in float32. A case is a 53-bit integer k, which lands on the b-bit
# lattice as its top b bits, so the nodes are 0, 1/4, 1/2, 3/4 and 1 - 2**-b
# at either width
BITS = {np.float64: 53, np.float32: 24}
LATTICE = st.integers(0, 2**53 - 1)
NODES = (0, 2**51, 2**52, 3 * 2**51, 2**53 - 1)
NODE_PAIRS = [(k0, k1) for k0 in NODES for k1 in NODES]
# the transform's error per unit radius. float64: within 1e-15, so
# 1e-15 r on the normals: the largest r is 8.57, where one ulp is 1.8e-15.
# float32, in U32: phi = 2 pi u rounds twice (2 pi to 0.47 U32, the product
# to 1 U32), which moves the angle, and so the normal per unit radius, by
# at most 2 pi * 1.47 = 9.3 U32; numpy's float32 cos and sin are within
# 2 U32 of their value, r's log, doubling and root within 3 U32 relative,
# and the product r cos within 1 U32, 15.3 U32 in all. Measured at most
# 7.1 U32 under AVX-512, AVX2 and baseline dispatch
TRANSFORM_TOLERANCE = {np.float64: 1e-15, np.float32: 16 * U32}


def _on_lattice(cases, dtype):
    bits = BITS[dtype]
    k = np.array(cases, dtype=np.uint64) >> np.uint64(53 - bits)
    return (k.astype(np.float64) * 2.0**-bits).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(deadline=None)
@given(st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=60),
       st.integers(1, 3), st.integers(1, 40))
@example(NODE_PAIRS, 1, 25)
@example(NODE_PAIRS, 5, 2)
def test_box_muller_gives_the_radius_times_the_cos_and_sin(dtype, cases, pairs, width):
    # the cases fill (2, pairs, n) cyclically, and a scratch of pairs * width
    # elements splits the transform into segments of width columns; the
    # expected normals are computed in float64 from the same uniforms
    n = -(-len(cases) // pairs)
    u = np.resize(_on_lattice(cases, dtype), (pairs * n, 2)).T.reshape(2, pairs, n).copy()
    exact = u.astype(np.float64)
    r = np.sqrt(-2.0 * np.log(1.0 - exact[0]))
    expected = r * np.cos(2.0 * np.pi * exact[1]), r * np.sin(2.0 * np.pi * exact[1])
    oracle._box_muller(u, np.empty(pairs * width, dtype))
    assert u.dtype == dtype
    tolerance = TRANSFORM_TOLERANCE[dtype] * np.maximum(r, 1.0)
    for got, want in zip(u, expected):
        assert np.all(np.abs(got - want) <= tolerance)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_box_muller_largest_radius_is_finite(dtype):
    # 1 - u is at least 2**-b, so r is at most sqrt(2 b log 2): 8.57 in
    # float64 and 5.77 in float32. In float32 the log is within 2 U32 of its
    # value and the root adds 1 U32
    bits = BITS[dtype]
    u = np.array([1.0 - 2.0**-bits, 0.0], dtype).reshape(2, 1, 1)
    oracle._box_muller(u, np.empty(1, dtype))
    rel = 1e-15 if dtype is np.float64 else 2 * U32
    assert u[0, 0, 0] == pytest.approx(math.sqrt(2 * bits * math.log(2.0)), rel=rel)
    assert u[1, 0, 0] == 0.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_box_muller_normals_are_standard(dtype):
    # 2**20 normals from one chunk stream's generator: mean, variance and
    # excess kurtosis within 4 standard errors, and the Kolmogorov-Smirnov
    # distance below its 0.1% critical value sqrt(log(2 / 0.001) / 2) / sqrt(N)
    u = np.random.Generator(np.random.SFC64(np.random.SeedSequence(7, spawn_key=(3,)))) \
        .random((2, 4, 2**17), dtype=dtype)
    oracle._box_muller(u, np.empty(4 * _CHUNK, dtype))
    x = np.sort(u.ravel()).astype(np.float64)
    n = x.size
    mean = x.mean()
    var = x.var()
    excess = ((x - mean) ** 4).mean() / var**2 - 3.0
    assert abs(mean) < 4.0 / math.sqrt(n)
    assert abs(var - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(excess) < 4.0 * math.sqrt(24.0 / n)
    cdf = np.frompyfunc(math.erf, 1, 1)(x / math.sqrt(2.0)).astype(float) * 0.5 + 0.5
    ranks = np.arange(1, n + 1) / n
    distance = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / n)).max())
    assert distance < math.sqrt(math.log(2.0 / 0.001) / 2.0) / math.sqrt(n)


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
    # jittered run's variance estimate has mean diag(T T^T) averaged over them.
    # The second jitter turns all four rotations in the chunk path
    for degrees in ((4.0, 0.0, 0.0, 0.0), (4.0, 2.0, 3.0, 5.0)):
        config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=budget,
                             gains=GainSettings(0.9, 1.1),
                             jitter=PhaseJitter.from_degrees(*degrees),
                             samples=20_000, seed=17)
        est = simulate_chain(config)
        expected = _drawn_angle_average(config)
        for k, estimate in enumerate(est.alice + est.victor):
            assert abs(estimate.value - expected[k]) < 4.0 * estimate.stderr, (degrees, k)


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
            ref_alice, ref_victor = closed_form_reference(config)
            for estimate, reference in zip(est.alice + est.victor, ref_alice + ref_victor):
                z.append((estimate.value - reference) / estimate.stderr)
    z = np.array(z)
    assert z.size == 100 * 27 * 4
    assert 0.95 <= math.sqrt(np.mean(z * z)) <= 1.05
    assert np.mean(np.abs(z) > 3.0) < 0.01
    assert abs(np.mean(z)) < 0.05


def test_jitter_cells_are_calibrated():
    # z-scores against the quadratic law of 40 seeds of the 5 grid jitter
    # configs at N = 2**15, one chunk a cell: the law is within 0.07 SE of
    # the exact average there, so z is near standard normal, and 400 of them
    # put the rms within 0.035 and the mean within 0.05 of it per standard
    # deviation. A biased draw, transform or moment moves them
    z = []
    for run in range(40):
        for _, config in grid_configs(OracleGridParams(samples=_CHUNK), seed=1000 * run):
            if config.jitter is None:
                continue
            est = simulate_chain(config)
            ref_alice, ref_victor = closed_form_reference(config)
            for estimate, reference in zip(est.alice + est.victor, ref_alice + ref_victor):
                if reference is not None:
                    z.append((estimate.value - reference) / estimate.stderr)
    z = np.array(z)
    assert z.size == 40 * 5 * 2
    assert 0.85 <= math.sqrt(np.mean(z * z)) <= 1.15
    assert abs(np.mean(z)) < 0.2


LOSSY = EfficiencyBudget(xi1=0.8, xi4=0.9, alpha_ax=0.7, alpha_v=0.8, r_b=0.95)


@pytest.mark.parametrize("samples", [2, 17, 100_000])
def test_gaussian_estimates_replay_from_the_bartlett_factor(samples):
    # default_rng(seed) draws the Bartlett factor A, and the estimate is
    # diag(T A A^T T^T)/(N-1) with T pushed afresh at the cell's squeezing
    config = ChainConfig(squeezing=SqueezingParams.from_db(-3.0, 7.0), budget=LOSSY,
                         gains=GainSettings(1.1, 0.9), samples=samples, seed=41)
    t = transfer_matrix(config.squeezing, config.budget, config.gains)
    a = _wishart_factor(np.random.default_rng(config.seed), samples - 1)
    expected = np.diag(t @ a @ a.T @ t.T) / (samples - 1)
    est = simulate_chain(config)
    for k, estimate in enumerate(est.alice + est.victor):
        assert estimate.value == pytest.approx(expected[k], rel=1e-12), k


def test_fig2_oracle_pushes_the_network_once(monkeypatch, capsys):
    calls = {"transfer_matrix": 0, "push": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    oracle._unsqueezed_transfer.cache_clear()
    assert main(["run", "fig2", "--oracle", "--samples", "1000", "--seed", "3"]) == 0
    capsys.readouterr()
    # 41 cells on one budget and one set of gains
    assert calls == {"transfer_matrix": 1, "push": 0}


def test_cached_transfer_matrix_is_read_only():
    t = oracle._unsqueezed_transfer(LOSSY, GainSettings(1.1, 0.9))
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    assert oracle._unsqueezed_transfer.cache_info().maxsize is not None


def test_cached_transfer_matrix_is_keyed_on_every_field():
    gains = GainSettings(1.1, 0.9)
    base = oracle._unsqueezed_transfer(LOSSY, gains)
    assert oracle._unsqueezed_transfer(EfficiencyBudget(**vars(LOSSY)),
                                       GainSettings(1.1, 0.9)) is base
    assert not np.array_equal(oracle._unsqueezed_transfer(LOSSY, GainSettings(0.9, 1.1)),
                              base)
    for name, value in vars(LOSSY).items():
        changed = EfficiencyBudget(**{**vars(LOSSY), name: 0.9 * value})
        other = oracle._unsqueezed_transfer(changed, gains)
        assert not np.array_equal(other, base), name
        np.testing.assert_array_equal(
            other, transfer_matrix(SqueezingParams(), changed, gains))


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
    for k, estimate in enumerate(est.victor + est.alice):
        assert math.isfinite(estimate.value) and estimate.value > 0.0, k
        assert math.isfinite(estimate.stderr) and estimate.stderr > 0.0, k


def test_closed_form_reference_selection():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    plain = ChainConfig(squeezing=sq, budget=AS_BUILT)
    alice, victor = closed_form_reference(plain)
    assert victor[0] == pytest.approx(
        victor_variance(sq, AS_BUILT, GainSettings())[0], rel=1e-14)
    assert alice[1] == pytest.approx(alice_variance(sq, AS_BUILT)[1],
                                     rel=1e-14)

    jit = PhaseJitter.from_degrees(theta_e=4.0)
    jittered = ChainConfig(squeezing=sq, jitter=jit)
    alice, victor = closed_form_reference(jittered)
    assert victor[0] == pytest.approx(victor_variance_jitter(sq, jit)[0],
                                      rel=1e-14)
    assert alice[0] is None

    # no closed form once jitter rides on a lossy chain
    both = ChainConfig(squeezing=sq, budget=AS_BUILT, jitter=jit)
    assert closed_form_reference(both)[1][0] is None


def test_a_still_lock_is_no_lock():
    # a jitter whose every rms is 0 is the locked chain: it takes the
    # Gaussian path, with its estimates and all four exact references
    sq = SqueezingParams.from_db(-3.0, 7.0)
    for budget in (EfficiencyBudget.ideal(), AS_BUILT):
        for seed in (3, 11):
            still = ChainConfig(squeezing=sq, budget=budget, jitter=PhaseJitter(),
                                seed=seed)
            locked = ChainConfig(squeezing=sq, budget=budget, seed=seed)
            assert still.jitter is None and still == locked
            assert simulate_chain(still) == simulate_chain(locked)
            alice, victor = closed_form_reference(still)
            assert (alice, victor) == closed_form_reference(locked)
            assert None not in alice + victor
    # any positive rms is a jitter
    tiny = PhaseJitter(theta_b_rms=5e-324)
    assert ChainConfig(jitter=tiny).jitter is tiny


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(samples=0)
    with pytest.raises(ValueError, match="samples"):
        ChainConfig(samples=1)  # a sample variance needs two shots
