"""EPR source: two squeezed seeds interfered on a balanced beamsplitter."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvteleport.epr import SqueezingParams, correlation_product, output_matrix, \
    single_beam_variance, sum_difference_variances


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
        SqueezingParams.pure(400.0)  # sigma_plus = exp(800) overflows


def test_squeezing_constructors():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    assert sq.sigma_minus == pytest.approx(10.0 ** -0.3, rel=1e-14)
    assert sq.sigma_plus == pytest.approx(10.0 ** 0.7, rel=1e-14)
    assert sq.minus_db == pytest.approx(-3.0, abs=1e-12)
    assert sq.plus_db == pytest.approx(7.0, abs=1e-12)

    pure = SqueezingParams.pure(0.5)
    assert pure.sigma_minus * pure.sigma_plus == pytest.approx(1.0, rel=1e-14)

    vac = SqueezingParams.vacuum()
    assert vac.sigma_minus == vac.sigma_plus == 1.0


def test_from_db_rejects_wrong_signs():
    with pytest.raises(ValueError):
        SqueezingParams.from_db(1.0, 3.0)
    with pytest.raises(ValueError):
        SqueezingParams.from_db(-3.0, -1.0)


def test_vacuum_seeds_mix_orthogonally():
    mat = output_matrix(SqueezingParams.vacuum())
    assert mat.shape == (4, 4)
    assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-14)


def test_two_mode_variances_at_reference_squeezing():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    v = sum_difference_variances(sq)
    sm = sq.sigma_minus
    sp = sq.sigma_plus
    assert v["x_minus"] == pytest.approx(2.0 * sm, rel=1e-12)
    assert v["p_plus"] == pytest.approx(2.0 * sm, rel=1e-12)
    assert v["x_plus"] == pytest.approx(2.0 * sp, rel=1e-12)
    assert v["p_minus"] == pytest.approx(2.0 * sp, rel=1e-12)
    # each beam alone looks thermal at the average of the seed variances
    assert single_beam_variance(sq) == pytest.approx((sm + sp) / 2.0, rel=1e-12)
    assert single_beam_variance(sq) == pytest.approx(2.756529784949997, rel=1e-12)


def test_witness_at_vacuum_boundary():
    assert correlation_product(SqueezingParams.vacuum()) == \
        pytest.approx(4.0, abs=1e-12)


@given(st.floats(min_value=1e-4, max_value=2.0))
def test_witness_below_separable_bound_once_squeezed(r):
    # var(x1-x2) * var(p1+p2) = 4 exp(-4r) < 4 for any r > 0
    product = correlation_product(SqueezingParams.pure(r))
    assert product < 4.0
    assert product == pytest.approx(4.0 * math.exp(-4.0 * r), rel=1e-9)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_single_beam_never_sub_vacuum(r, excess):
    sq = SqueezingParams(r_minus=r, r_plus=r + excess)
    assert single_beam_variance(sq) >= 1.0 - 1e-12


def test_output_matrix_matches_sampled_statistics():
    mat = output_matrix(SqueezingParams.from_db(-3.0, 7.0))
    rng = np.random.default_rng(42)
    seeds = rng.standard_normal((4, 200_000))
    sample = np.var(mat @ seeds, axis=1, ddof=1)
    predicted = (mat ** 2).sum(axis=1)
    stderr = predicted * math.sqrt(2.0 / (200_000 - 1))
    assert np.all(np.abs(sample - predicted) < 4.0 * stderr)
