"""Preset catalog: registry, overrides and pinned checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvteleport.scenarios import MAX_GRID_POINTS, PRESETS, Fig2Params, \
    Fig3Params, Fig7Params, RunOptions, _linspace, _pump_grid_mw, _within_3se, \
    apply_overrides, get_preset, list_presets, run_preset

REQUIRED = {"fig2", "fig3", "fig4", "fig7", "opo-gain", "fidelity-anchors",
            "fig16-fidelity-vs-pump", "epr-backprop", "channel-cancellation",
            "oracle-grid", "properties"}

FAST = ["fig3", "fig4", "fig7", "opo-gain", "fig10-squeezing",
        "fig12-gain-sweep", "fidelity-anchors", "epr-backprop",
        "channel-cancellation", "spectral-ratios", "fig16-fidelity-vs-pump",
        "epr-correlations"]


def test_registry_contains_required_presets():
    names = set(PRESETS)
    assert REQUIRED <= names
    assert [p.name for p in list_presets()] == sorted(names)


def test_get_preset_unknown_lists_catalog():
    with pytest.raises(ValueError, match="fig7"):
        get_preset("nope")


@pytest.mark.parametrize("name", FAST)
def test_fast_presets_pass_their_checks(name):
    result = run_preset(name)
    assert result.rows
    assert len(result.columns) == len(result.rows[0])
    for check in result.checks:
        assert check.passed, f"{check.name}: {check.value} vs " \
                             f"{check.expected}±{check.tolerance}"


def test_fig2_oracle_columns():
    plain = run_preset("fig2", overrides={"samples": "2000"})
    assert "victor_mc_db" not in plain.columns
    sampled = run_preset("fig2", overrides={"oracle": "true", "samples": "2000"})
    assert "victor_mc_db" in sampled.columns
    assert "alice_mc_se" in sampled.columns
    assert len(sampled.rows[0]) == len(sampled.columns)


def test_run_preset_deterministic():
    options = RunOptions(seed=99)
    overrides = {"oracle": "true", "samples": "2000"}
    assert run_preset("fig2", options, overrides).rows == \
        run_preset("fig2", options, overrides).rows


def test_overrides_nested_and_coerced():
    params = Fig3Params()
    bumped = apply_overrides(params, {"points": "11", "budget.xi1": "0.9"})
    assert bumped.points == 11
    assert bumped.budget.xi1 == 0.9
    assert params.points == 41  # original untouched

    scanned = apply_overrides(Fig7Params(), {"theta_e_deg": "0,6"})
    assert scanned.theta_e_deg == (0.0, 6.0)


def test_override_errors_name_the_key():
    with pytest.raises(ValueError, match="available here"):
        apply_overrides(Fig3Params(), {"nosuch": "1"})
    with pytest.raises(ValueError, match="parameter group"):
        apply_overrides(Fig3Params(), {"budget": "1"})
    with pytest.raises(ValueError, match="points"):
        apply_overrides(Fig3Params(), {"points": "eleven"})
    with pytest.raises(ValueError, match="no nested fields"):
        apply_overrides(Fig3Params(), {"points.deep": "1"})


@pytest.mark.parametrize("key,raw", [
    ("points", "0"), ("points", "-3"), ("start_db", "nan"), ("stop_db", "inf"),
    ("budget.xi2", "-inf"),
])
def test_overrides_reject_empty_counts_and_non_finite_numbers(key, raw):
    with pytest.raises(ValueError, match=key):
        apply_overrides(Fig3Params(), {key: raw})


@pytest.mark.parametrize("raw", ["", ",", "1,nan", "inf"])
def test_tuple_overrides_need_finite_entries(raw):
    with pytest.raises(ValueError, match="theta_e_deg"):
        apply_overrides(Fig7Params(), {"theta_e_deg": raw})


def test_boolean_override_words():
    for raw, value in (("yes", True), ("On", True), ("0", False), ("off", False)):
        assert apply_overrides(Fig2Params(), {"oracle": raw}).oracle is value
    with pytest.raises(ValueError, match="oracle"):
        apply_overrides(Fig2Params(), {"oracle": "maybe"})


def test_run_preset_applies_overrides():
    result = run_preset("fig3", overrides={"points": "11"})
    assert len(result.rows) == 11


def test_fidelity_anchor_rows_all_pass():
    result = run_preset("fidelity-anchors")
    assert [row[0] for row in result.rows] == [
        "classical-ideal", "classical-as-built", "verifier-measured",
        "receiver-corrected", "predicted-entanglement"]
    assert all(row[-1] == "pass" for row in result.rows)


def test_oracle_grid_reduced_samples():
    result = run_preset("oracle-grid", overrides={"samples": "20000"})
    by_name = {check.name: check for check in result.checks}
    assert by_name["compared cells"].value == 118.0
    assert by_name["cells within 3 standard errors (count)"].passed
    assert len(result.rows) == 118


def test_within_3se_grades_the_count():
    # exactly 95% passes, one cell fewer fails, and nothing compared fails
    assert _within_3se("cells", 19, 20).passed
    assert not _within_3se("cells", 18, 20).passed
    assert _within_3se("cells", 113, 118).passed  # 0.95 * 118 = 112.1
    assert not _within_3se("cells", 112, 118).passed
    assert not _within_3se("cells", 0, 0).passed


def test_preset_dataclasses_are_frozen():
    for preset in list_presets():
        params = preset.params_type()
        assert dataclasses.is_dataclass(params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, dataclasses.fields(params)[0].name, 0)


BOUNDED = st.floats(-1e3, 1e3)
TINY = st.floats(-1e-320, 1e-320)  # spans whose step underflows to zero
SPANS = st.tuples(BOUNDED, BOUNDED) | BOUNDED.map(lambda a: (a, a)) \
    | st.tuples(TINY, TINY)


def _hex(values):
    return [float(v).hex() for v in values]


@given(span=SPANS, n=st.integers(1, 300))
@example(span=(0.0, 10.0), n=41)
@example(span=(-0.0, 1.0), n=1)
@example(span=(2.0, 2.0), n=7)
@example(span=(0.0, 5e-324), n=3)  # step == 0: numpy's k/div*delta branch
def test_linspace_matches_numpy_bit_for_bit(span, n):
    a, b = span
    assert _hex(_linspace(a, b, n)) == _hex(np.linspace(a, b, n).tolist())


@given(pump_max_mw=BOUNDED, step_mw=st.floats(0.5, 1e3))
@example(pump_max_mw=165.0, step_mw=5.0)
@example(pump_max_mw=0.0, step_mw=5.0)
@example(pump_max_mw=-1.0, step_mw=5.0)  # empty range
@example(pump_max_mw=165.0, step_mw=0.7)
@example(pump_max_mw=math.nextafter(-1e-9, 0.0), step_mw=1e300)  # count underflows
def test_opo_gain_grid_matches_numpy_arange(pump_max_mw, step_mw):
    ours = [k * 1e-3 for k in _pump_grid_mw(pump_max_mw, step_mw)]
    numpy_grid = np.arange(0.0, pump_max_mw + 1e-9, step_mw) * 1e-3
    assert _hex(ours) == _hex(numpy_grid.tolist())


@pytest.mark.parametrize("grid", [
    lambda: _linspace(0.0, 1.0, MAX_GRID_POINTS + 1),
    lambda: _pump_grid_mw(1e12, 5.0),
    lambda: _pump_grid_mw(165.0, 1e-300),
])
def test_grids_refuse_more_than_the_bound(grid):
    with pytest.raises(ValueError, match=f"{MAX_GRID_POINTS}") as info:
        grid()
    assert len(str(info.value)) < 80  # names the bound, not a 300-digit count
