"""EPR source: two squeezed seeds interfered on a balanced beamsplitter."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvteleport import epr
from cvteleport.epr import SqueezingParams, correlation_product, \
    single_beam_variance, sum_difference_variances
from cvteleport.network import epr_stage, seed_gains


def _epr_matrix(seeds):
    # the network's EPR stage on the squeezed seed rows: rows (x1, p1, x2,
    # p2) over the columns of seeds
    seeds = np.array(seeds, dtype=float)
    beam_1 = np.empty((2,) + seeds.shape[1:])
    epr_stage(seeds, 0.0, beam_1)
    return np.concatenate([beam_1, seeds[2:]])


def test_squeezing_validation():
    with pytest.raises(ValueError):
        SqueezingParams(r_minus=-0.1)
    with pytest.raises(ValueError):
        SqueezingParams(r_minus=0.5, r_plus=0.4)
    with pytest.raises(ValueError):
        SqueezingParams.from_variances(1.2, 2.0)
    with pytest.raises(ValueError):
        SqueezingParams.from_variances(0.8, 0.9)  # product under the bound
    with pytest.raises(ValueError, match="float range"):
        SqueezingParams(400.0, 400.0)  # sigma_plus = exp(800) overflows
    for r_minus, r_plus in ((math.nan, math.nan), (0.0, math.nan), (0.0, math.inf),
                            (math.inf, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            SqueezingParams(r_minus, r_plus)


def test_squeezing_constructors():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    assert sq.sigma_minus == pytest.approx(10.0 ** -0.3, rel=1e-14)
    assert sq.sigma_plus == pytest.approx(10.0 ** 0.7, rel=1e-14)
    assert sq.minus_db == pytest.approx(-3.0, abs=1e-12)
    assert sq.plus_db == pytest.approx(7.0, abs=1e-12)

    pure = SqueezingParams(0.5, 0.5)
    assert pure.sigma_minus * pure.sigma_plus == pytest.approx(1.0, rel=1e-14)

    vac = SqueezingParams()
    assert vac.sigma_minus == vac.sigma_plus == 1.0


def test_from_db_rejects_wrong_signs():
    for minus_db in (1.0, math.nan):
        with pytest.raises(ValueError, match=f"squeezed level .* got {minus_db}"):
            SqueezingParams.from_db(minus_db, 3.0)
    for plus_db in (-1.0, math.nan):
        with pytest.raises(ValueError, match=f"anti-squeezed level .* got {plus_db}"):
            SqueezingParams.from_db(-3.0, plus_db)
    for minus_db, plus_db in ((-math.inf, math.inf), (-3.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            SqueezingParams.from_db(minus_db, plus_db)


def test_from_db_takes_every_pure_squeezing_level():
    # (-d, +d) dB is minimum-uncertainty squeezing at r = d ln10/20 in both
    # quadratures, bit for bit: two logarithms of 10**(d/10) would round one
    # ulp apart, and r_plus < r_minus is refused
    for hundredths in range(1, 2000):
        d = hundredths / 100.0
        r = d * math.log(10.0) / 20.0
        assert SqueezingParams.from_db(-d, d) == SqueezingParams(r, r), d


def test_vacuum_seeds_mix_orthogonally():
    mat = _epr_matrix(np.eye(4))
    assert mat.shape == (4, 4)
    assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-14)


def test_two_mode_variances_at_reference_squeezing():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    (x_minus, p_plus), (x_plus, p_minus) = sum_difference_variances(sq)
    sm = sq.sigma_minus
    sp = sq.sigma_plus
    assert x_minus == pytest.approx(2.0 * sm, rel=1e-12)
    assert p_plus == pytest.approx(2.0 * sm, rel=1e-12)
    assert x_plus == pytest.approx(2.0 * sp, rel=1e-12)
    assert p_minus == pytest.approx(2.0 * sp, rel=1e-12)
    # each beam alone looks thermal at the average of the seed variances
    assert single_beam_variance(sq) == pytest.approx((sm + sp) / 2.0, rel=1e-12)
    assert single_beam_variance(sq) == pytest.approx(2.756529784949997, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_variances_equal_the_network_coefficient_sums(r, excess):
    # the scalar sums reproduce the network's EPR stage on np.eye(4), its
    # columns scaled by the squeezers' gains, exactly
    sq = SqueezingParams(r_minus=r, r_plus=r + excess)
    x1, p1, x2, p2 = _epr_matrix(np.eye(4)) * seed_gains(sq)
    assert sum_difference_variances(sq) == (
        (float(np.sum((x1 - x2) ** 2)), float(np.sum((p1 + p2) ** 2))),
        (float(np.sum((x1 + x2) ** 2)), float(np.sum((p1 - p2) ** 2))),
    )
    assert single_beam_variance(sq) == float(np.sum(x1 ** 2))


@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_seed_columns_are_the_network_epr_stage(r, excess):
    # one unit seed at a time, squeezed and pushed through the EPR stage;
    # the columns scale the locked vacuum ones, so they differ from it by
    # the rounding of that product
    sq = SqueezingParams(r_minus=r, r_plus=r + excess)
    columns = epr._seed_columns(sq)
    assert len(columns) == 4
    for k, column in enumerate(columns):
        seed = np.zeros((4, 1))
        seed[k] = seed_gains(sq)[k]
        pushed = _epr_matrix(seed)[:, 0]
        assert column == pytest.approx(pushed.tolist(), rel=5e-16, abs=0.0)
        assert all(type(c) is float for c in column)


def test_witness_at_vacuum_boundary():
    assert correlation_product(SqueezingParams()) == \
        pytest.approx(4.0, abs=1e-12)


@given(st.floats(min_value=1e-4, max_value=2.0))
def test_witness_below_separable_bound_once_squeezed(r):
    # var(x1-x2) * var(p1+p2) = 4 exp(-4r) < 4 for any r > 0
    product = correlation_product(SqueezingParams(r, r))
    assert product < 4.0
    assert product == pytest.approx(4.0 * math.exp(-4.0 * r), rel=1e-9)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_single_beam_never_sub_vacuum(r, excess):
    sq = SqueezingParams(r_minus=r, r_plus=r + excess)
    assert single_beam_variance(sq) >= 1.0 - 1e-12


def test_epr_source_matches_sampled_statistics():
    mat = _epr_matrix(np.diag(seed_gains(SqueezingParams.from_db(-3.0, 7.0))))
    rng = np.random.default_rng(42)
    seeds = rng.standard_normal((4, 200_000))
    sample = np.var(mat @ seeds, axis=1, ddof=1)
    predicted = (mat ** 2).sum(axis=1)
    stderr = predicted * math.sqrt(2.0 / (200_000 - 1))
    assert np.all(np.abs(sample - predicted) < 4.0 * stderr)
