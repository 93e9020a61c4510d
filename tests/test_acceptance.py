"""Acceptance gate: nine pinned criteria, one visible verdict line each.

Each test evaluates its criterion at the stated tolerance, prints a PASS or
FAIL line straight to the terminal (bypassing capture so the verdicts are
visible in any pytest run), then asserts.
"""

import csv
import math
import time

from cvteleport.cli import main
from cvteleport.epr import SqueezingParams
from cvteleport.jitter import PhaseJitter, victor_lo_scan, victor_variance_jitter
from cvteleport.opo import BliiraTable, DetectionChain, OpoParams, \
    back_propagate_to_epr, escape_efficiency, parametric_gain, threshold
from cvteleport.oracle import ChainConfig, simulate_chain
from cvteleport.properties import run_all
from cvteleport.scenarios import BUDGET_PREDICTED, BUDGET_TRACE, RunOptions, \
    grid_configs, OracleGridParams, run_preset
from cvteleport.teleporter import EfficiencyBudget, GainSettings, \
    bob_field_variance, channel_cancellation_db, fidelity, \
    fit_channel_cancellation, squeezing_from_victor_variance, victor_variance
from cvteleport.units import from_db, to_db

IDEAL = EfficiencyBudget.ideal()
UNIT = GainSettings()
VAC = SqueezingParams()


def _report(capsys, num: int, label: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{label}] {verdict}"
    if detail:
        line += f": {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def test_criterion_1_classical_anchor(tmp_path, capsys):
    started = time.perf_counter()
    sigma = victor_variance(VAC, IDEAL, UNIT, "x")
    exact = sigma == 3.0

    out = tmp_path / "anchors.csv"
    code = main(["run", "fidelity-anchors", "--out", str(out)])
    with out.open() as stream:
        rows = {row["case"]: row for row in csv.DictReader(stream)}
    reported_db = float(rows["classical-ideal"]["sigma_db"])
    reported_f = float(rows["classical-ideal"]["fidelity"])
    db_ok = abs(reported_db - 4.77) <= 0.01
    f_ok = abs(reported_f - 0.500) <= 0.001
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 1, "classical anchor", exact and code == 0 and db_ok and f_ok
                 and elapsed < 1.0,
                 f"sigma={sigma!r}, {reported_db:.4f} dB, F={reported_f:.4f}, "
                 f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_nonideal_classical_point(capsys):
    started = time.perf_counter()
    budget = EfficiencyBudget(xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988,
                              xi5=0.985, alpha_ax=0.988, alpha_ap=0.988,
                              alpha_v=0.988)
    sigma_x = victor_variance(VAC, budget, UNIT, "x")
    sigma_p = victor_variance(VAC, budget, UNIT, "p")
    level = to_db(sigma_x)
    value = fidelity(sigma_x, sigma_p)
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 2, "as-built classical point",
                 abs(level - 4.84) <= 0.02 and abs(value - 0.494) <= 0.002
                 and elapsed < 1.0,
                 f"{level:.4f} dB, F={value:.4f}")
    assert ok


def test_criterion_3_fidelity_chain(capsys):
    started = time.perf_counter()
    measured = from_db(3.54)
    f_measured = fidelity(measured, measured)

    inferred = squeezing_from_victor_variance(measured, BUDGET_TRACE, from_db(7.0))
    sw_x = bob_field_variance(inferred, BUDGET_TRACE, "x")
    f_bob = fidelity(sw_x, bob_field_variance(inferred, BUDGET_TRACE, "p"))

    predicted = SqueezingParams.from_db(-3.97, 7.0)
    pw_x = bob_field_variance(predicted, BUDGET_PREDICTED, "x")
    f_pred = fidelity(pw_x, bob_field_variance(predicted, BUDGET_PREDICTED, "p"))
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 3, "fidelity chain",
                 abs(f_measured - 0.61) <= 0.005
                 and abs(to_db(sw_x) - 3.47) <= 0.03
                 and abs(f_bob - 0.62) <= 0.005
                 and abs(to_db(pw_x) - 2.82) <= 0.05
                 and abs(f_pred - 0.69) <= 0.005
                 and elapsed < 1.0,
                 f"F={f_measured:.4f}, corrected {to_db(sw_x):.4f} dB "
                 f"F_B={f_bob:.4f}, predicted {to_db(pw_x):.4f} dB "
                 f"F_P={f_pred:.4f}")
    assert ok


def test_criterion_4_back_propagation(capsys):
    started = time.perf_counter()
    detected = SqueezingParams.from_db(-3.73, 6.9)
    chain = DetectionChain(propagation=1.0, visibility=0.972,
                           quantum_efficiency=0.988)
    at_epr = back_propagate_to_epr(detected, chain, 0.985)
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 4, "back propagation",
                 abs(at_epr.minus_db + 3.97) <= 0.05
                 and abs(at_epr.plus_db - 7.0) <= 0.1
                 and elapsed < 1.0,
                 f"{at_epr.minus_db:.4f} dB / {at_epr.plus_db:+.4f} dB")
    assert ok


def test_criterion_5_phase_jitter_scan(capsys):
    started = time.perf_counter()
    sq = SqueezingParams.from_db(-3.0, 7.0)
    angles = [k * math.pi / 90.0 for k in range(181)]

    def ptp(theta_e_deg):
        jit = PhaseJitter.from_degrees(theta_e=theta_e_deg)
        levels = [to_db(v) for v in victor_lo_scan(sq, jit, angles)]
        return max(levels) - min(levels)

    flat = ptp(0.0)
    swing = ptp(6.0)
    h = 1e-3
    base = victor_variance_jitter(sq, PhaseJitter(), "x")
    ratio = (victor_variance_jitter(sq, PhaseJitter(theta_e_rms=h), "x") - base) \
        / (victor_variance_jitter(sq, PhaseJitter(theta_b_rms=h), "x") - base)
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 5, "phase jitter scan",
                 flat <= 1e-9 and abs(swing - 0.21) <= 0.03
                 and abs(ratio - 4.0) <= 1e-9 and elapsed < 1.0,
                 f"flat={flat:.2e} dB, swing={swing:.4f} dB, weight "
                 f"ratio={ratio:.12f}")
    assert ok


def test_criterion_6_oracle_equivalence(capsys):
    started = time.perf_counter()
    result = run_preset("oracle-grid", RunOptions(seed=2026))
    checks = {check.name: check for check in result.checks}
    within = checks["cells within 3 standard errors (count)"]
    compared = checks["compared cells"].value
    elapsed = time.perf_counter() - started

    # determinism spot check on two grid configs at reduced samples
    pair = grid_configs(OracleGridParams(samples=50_000), seed=2026)[:2]
    deterministic = all(simulate_chain(cfg) == simulate_chain(cfg)
                        for _, cfg in pair)

    ok = _report(capsys, 6, "oracle equivalence",
                 within.passed and compared == 118.0 and deterministic
                 and elapsed < 120.0,
                 f"{within.value / compared:.1%} of {compared:.0f} cells "
                 f"within 3 SE at N=1e6, {elapsed:.0f}s")
    assert ok


def test_criterion_7_opo_formulas(capsys):
    started = time.perf_counter()
    opo = OpoParams(t_coupler=0.10, e_nl=0.021, l_passive=0.003,
                    bliira=BliiraTable.flat(0.017))
    p_t = threshold(opo, 0.0)
    quarter = parametric_gain(opo, p_t / 4.0)
    near = parametric_gain(opo, (1.0 - 1e-12) * p_t)
    gains = [parametric_gain(opo, k * p_t / 40.0) for k in range(39)]
    monotone = all(b > a for a, b in zip(gains, gains[1:]))
    diverges = near > 1e10
    try:
        parametric_gain(opo, p_t)
        raises_at_threshold = False
    except ValueError:
        raises_at_threshold = True
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 7, "squeezer cavity formulas",
                 quarter == 4.0 and abs(p_t * 1e3 - 171.0) <= 1.0 and monotone
                 and diverges and raises_at_threshold and elapsed < 1.0,
                 f"threshold={p_t * 1e3:.2f} mW, G(P_t/4)={quarter!r}, "
                 f"escape={escape_efficiency(opo, 0.0):.4f}")
    assert ok


def test_criterion_8_channel_cancellation(capsys):
    started = time.perf_counter()
    epsilon, delay = fit_channel_cancellation(-25.0, -20.0, 5e3)
    at_20k = channel_cancellation_db(epsilon, delay, 20e3)
    elapsed = time.perf_counter() - started

    ok = _report(capsys, 8, "channel cancellation",
                 abs(at_20k + 9.0) <= 1.0 and elapsed < 1.0,
                 f"{at_20k:.2f} dB at 20 kHz")
    assert ok


def test_criterion_9_property_suite(capsys):
    started = time.perf_counter()
    results = run_all(seed=5, cases=1000)
    elapsed = time.perf_counter() - started
    names = {r.name for r in results}
    clean = all(r.failures == 0 and r.cases >= 1000 for r in results)

    ok = _report(capsys, 9, "property suite",
                 clean and elapsed < 30.0
                 and names == {"db_roundtrip", "loss_composition", "epr_witness",
                               "fidelity_bounds", "uncertainty_preserved"},
                 f"{len(results)} properties x 1000 cases, {elapsed:.1f}s")
    assert ok
