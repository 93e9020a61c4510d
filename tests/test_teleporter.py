"""Station variances, gain conventions and fidelity across the chain."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvteleport.epr import SqueezingParams
from cvteleport.network import transfer_matrix
from cvteleport.scenarios import BUDGET_BEST
from cvteleport.teleporter import CoherentAmplitude, EfficiencyBudget, \
    GainSettings, alice_variance, bob_field_variance, channel_cancellation_db, \
    fidelity, fit_channel_cancellation, spectral_densities, \
    squeezing_from_victor_variance, victor_variance
from cvteleport.units import from_db, to_db

IDEAL = EfficiencyBudget.ideal()
UNIT = GainSettings()
VAC = SqueezingParams()

AS_BUILT = EfficiencyBudget(xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988,
                            xi5=0.985, alpha_ax=0.988, alpha_ap=0.988,
                            alpha_v=0.988, r_b=math.sqrt(0.99))


def test_classical_bound_is_exactly_three():
    assert victor_variance(VAC, IDEAL, UNIT, "x") == 3.0
    assert victor_variance(VAC, IDEAL, UNIT, "p") == 3.0


def test_victor_variance_with_squeezing():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    # ideal unit-gain chain: 1 + 2 sigma_minus in both quadratures
    expected = 1.0 + 2.0 * sq.sigma_minus
    assert victor_variance(sq, IDEAL, UNIT, "x") == pytest.approx(expected,
                                                                  rel=1e-14)
    assert victor_variance(sq, IDEAL, UNIT, "p") == pytest.approx(expected,
                                                                  rel=1e-14)


def test_as_built_classical_point():
    sigma = victor_variance(VAC, AS_BUILT, UNIT, "x")
    assert sigma == pytest.approx(3.0446872533276514, rel=1e-12)
    assert to_db(sigma) == pytest.approx(4.835426890445448, rel=1e-12)
    assert fidelity(sigma, victor_variance(VAC, AS_BUILT, UNIT, "p")) == \
        pytest.approx(0.4944758085695147, rel=1e-12)


def test_classical_point_insensitive_to_receiver_splitter():
    # with vacuum EPR beams the receiver tap ratio drops out entirely
    alt = replace(AS_BUILT, r_b=1.0)
    assert victor_variance(VAC, alt, UNIT, "x") == pytest.approx(
        victor_variance(VAC, AS_BUILT, UNIT, "x"), rel=1e-14)


def test_budget_validation():
    with pytest.raises(ValueError):
        EfficiencyBudget(xi1=1.2)
    with pytest.raises(ValueError):
        EfficiencyBudget(alpha_v=-0.1)
    with pytest.raises(ValueError):
        EfficiencyBudget(r_b=1.01)


def test_every_budget_field_moves_a_station_variance():
    # a budget entry that no variance reads is a knob that does nothing
    sq = SqueezingParams.from_db(-3.0, 7.0)

    def stations(budget):
        return (alice_variance(sq, budget, "x"), alice_variance(sq, budget, "p"),
                victor_variance(sq, budget, UNIT, "x"),
                victor_variance(sq, budget, UNIT, "p"))

    base = stations(BUDGET_BEST)
    for f in fields(EfficiencyBudget):
        scaled = replace(BUDGET_BEST, **{f.name: 0.9 * getattr(BUDGET_BEST, f.name)})
        assert stations(scaled) != base, f.name


def test_zero_sender_arm_rejected():
    dead = replace(AS_BUILT, xi2=0.0)
    with pytest.raises(ValueError):
        victor_variance(VAC, dead, UNIT, "x")


def test_alice_variance():
    assert alice_variance(VAC, IDEAL, "x") == 1.0
    sq = SqueezingParams.from_db(-3.0, 7.0)
    expected = 1.0 + 0.25 * (sq.sigma_minus + sq.sigma_plus - 2.0)
    assert alice_variance(sq, IDEAL, "x") == pytest.approx(expected, rel=1e-14)
    # losses pull the excess back toward the vacuum level
    assert alice_variance(sq, AS_BUILT, "x") < expected
    assert alice_variance(sq, AS_BUILT, "x") > 1.0


def test_coherent_amplitude():
    beta = CoherentAmplitude(power=4.0, phase=2.0 * math.pi + 0.3)
    assert beta.phase == pytest.approx(0.3, abs=1e-12)
    assert beta.mean_x == pytest.approx(2.0 * math.cos(0.3), rel=1e-14)
    assert beta.mean_p == pytest.approx(2.0 * math.sin(0.3), rel=1e-14)

    probe = CoherentAmplitude.from_total_db(24.9)
    assert probe.power == pytest.approx(from_db(24.9) - 1.0, rel=1e-14)
    assert CoherentAmplitude().power == 0.0
    with pytest.raises(ValueError):
        CoherentAmplitude.from_total_db(-0.1)  # below the vacuum floor
    with pytest.raises(ValueError):
        CoherentAmplitude(power=-1.0)


def test_fidelity_anchors():
    assert fidelity(3.0, 3.0) == 0.5
    measured = from_db(3.54)
    assert fidelity(measured, measured) == pytest.approx(0.6136031328711863,
                                                         rel=1e-12)


def test_fidelity_mismatch_penalty():
    matched = fidelity(2.0, 2.2, CoherentAmplitude(9.0), CoherentAmplitude(9.0))
    shifted = fidelity(2.0, 2.2, CoherentAmplitude(9.0),
                       CoherentAmplitude(9.5))
    assert shifted < matched
    assert matched == fidelity(2.0, 2.2)


@settings(max_examples=300)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_fidelity_bounds_for_physical_outputs(balance, excess, p_in, p_out):
    sigma_x = math.exp(balance)
    sigma_p = math.exp(-balance + excess)
    value = fidelity(sigma_x, sigma_p, CoherentAmplitude(p_in),
                     CoherentAmplitude(p_out, 0.7))
    assert 0.0 < value <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_victor_variance_never_sub_vacuum(r, excess, xi, alpha, tap, gain):
    # the output is a physical field: no gain or loss setting squeezes it
    # below the vacuum floor in a single quadrature
    sq = SqueezingParams(r_minus=r, r_plus=r + excess)
    budget = EfficiencyBudget(xi1=xi, xi2=xi, xi3=xi, xi4=xi, xi5=xi,
                              alpha_ax=alpha, alpha_ap=alpha, alpha_v=alpha,
                              r_b=tap)
    gains = GainSettings(g_x=gain, g_p=gain)
    assert victor_variance(sq, budget, gains, "x") >= 1.0 - 1e-9
    assert victor_variance(sq, budget, gains, "p") >= 1.0 - 1e-9


def test_bob_field_strips_verifier_chain():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    stripped = replace(AS_BUILT, xi5=1.0, alpha_v=1.0)
    assert bob_field_variance(sq, AS_BUILT, "x") == pytest.approx(
        victor_variance(sq, stripped, UNIT, "x"), rel=1e-14)


def test_squeezing_inference_roundtrip():
    sq = SqueezingParams.from_db(-3.5, 7.0)
    sigma = victor_variance(sq, AS_BUILT, UNIT, "x")
    inferred = squeezing_from_victor_variance(sigma, AS_BUILT, sq.sigma_plus)
    assert inferred.sigma_minus == pytest.approx(sq.sigma_minus, rel=1e-12)
    with pytest.raises(ValueError):
        squeezing_from_victor_variance(1.0, AS_BUILT, sq.sigma_plus)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=math.exp(6.0)))
def test_squeezing_inference_keeps_the_assumed_antisqueezing(sigma_plus):
    # the assumed anti-squeezed variance reaches r_plus by one log, bit for
    # bit; at 3 vacuum units the ideal chain infers sigma_minus = 1 exactly
    inferred = squeezing_from_victor_variance(3.0, IDEAL, sigma_plus)
    assert inferred.r_minus == 0.0
    assert inferred.r_plus == 0.5 * math.log(sigma_plus)


def test_receiver_corrected_anchor():
    measured = from_db(3.54)
    trace = replace(AS_BUILT, xi2=0.990, xi3=0.990, xi4=0.980, xi5=0.975)
    inferred = squeezing_from_victor_variance(measured, trace, from_db(7.0))
    assert inferred.sigma_minus == pytest.approx(0.5658933158122249, rel=1e-12)
    corrected = bob_field_variance(inferred, trace, "x")
    assert to_db(corrected) == pytest.approx(3.4847501170845954, rel=1e-12)
    assert fidelity(corrected, bob_field_variance(inferred, trace, "p")) == \
        pytest.approx(0.6190275746598977, rel=1e-12)


def test_spectral_density_ratios():
    quiet = spectral_densities(CoherentAmplitude(), VAC, IDEAL, UNIT)
    assert quiet.victor_x / quiet.alice_x == pytest.approx(3.0, rel=1e-14)
    assert quiet.alice_x == 1.0

    # verifier runs 3 dB above the sender once the signal dominates
    big = spectral_densities(CoherentAmplitude(1e6), VAC, IDEAL, UNIT)
    assert to_db(big.victor_x / big.alice_x) == pytest.approx(3.0103, abs=1e-3)

    probe = spectral_densities(CoherentAmplitude.from_total_db(24.9), VAC,
                               IDEAL, UNIT)
    assert to_db(probe.alice_x) == pytest.approx(
        to_db(0.5 * (from_db(24.9) - 1.0) + 1.0), rel=1e-14)
    assert to_db(probe.alice_x) == pytest.approx(21.9, abs=0.05)


@settings(max_examples=100, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=1.5),
       excess=st.floats(min_value=0.0, max_value=1.0),
       effs=st.lists(st.floats(min_value=0.8, max_value=1.0), min_size=9, max_size=9),
       g_x=st.floats(min_value=0.5, max_value=1.5),
       g_p=st.floats(min_value=0.5, max_value=1.5),
       power=st.floats(min_value=1e-2, max_value=1e6))
def test_spectral_density_signal_terms_are_the_networks(r, excess, effs, g_x, g_p,
                                                        power):
    # push is linear, so a coherent input's mean reaches i_x and x_out
    # through the x_in column of T: each station's signal term is that
    # entry squared times the power. On budgets whose sender arms differ,
    # a term that read the p arm for x would show
    budget = EfficiencyBudget(*effs)
    assume(budget.xi2 != budget.xi3 and budget.alpha_ax != budget.alpha_ap)
    sq = SqueezingParams(r, r + excess)
    gains = GainSettings(g_x, g_p)
    dens = spectral_densities(CoherentAmplitude(power), sq, budget, gains)
    t = transfer_matrix(sq, budget, gains)
    alice_signal = float(t[0, 4]) ** 2 * power
    victor_signal = float(t[2, 4]) ** 2 * power
    assert dens.alice_x - alice_variance(sq, budget, "x") == \
        pytest.approx(alice_signal, rel=1e-12)
    assert dens.victor_x - victor_variance(sq, budget, gains, "x") == \
        pytest.approx(victor_signal, rel=1e-12)


def test_spectral_density_squeezing_drop():
    signal = CoherentAmplitude(354.8 - 3.0)
    squeezed = SqueezingParams.from_variances(0.65, 1.6)
    on = spectral_densities(signal, squeezed, IDEAL, UNIT)
    off = spectral_densities(signal, VAC, IDEAL, UNIT)
    assert off.victor_x == pytest.approx(354.8, rel=1e-14)
    assert on.victor_x == pytest.approx(354.1, abs=1e-9)


def test_channel_cancellation_fit():
    epsilon, delay = fit_channel_cancellation(-25.0, -20.0, 5e3)
    assert epsilon == pytest.approx(0.05623413251903491, rel=1e-12)
    assert delay == pytest.approx(2.6321210475382682e-06, rel=1e-12)
    assert channel_cancellation_db(epsilon, delay, 0.0) == pytest.approx(
        -25.0, abs=1e-12)
    assert channel_cancellation_db(epsilon, delay, 5e3) == pytest.approx(
        -20.0, abs=1e-12)
    assert channel_cancellation_db(epsilon, delay, 20e3) == pytest.approx(
        -9.485934023807761, rel=1e-12)
    # residual grows monotonically with offset frequency
    grid = [channel_cancellation_db(epsilon, delay, f)
            for f in (0.0, 2e3, 8e3, 15e3, 25e3)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_channel_cancellation_fit_domain():
    with pytest.raises(ValueError):
        fit_channel_cancellation(-20.0, -25.0, 5e3)  # ref below the floor
