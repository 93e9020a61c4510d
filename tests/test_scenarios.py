"""Preset catalog: registry, overrides and pinned checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvteleport.cli import main
from cvteleport.scenarios import MAX_GRID_POINTS, PRESETS, Fig2Params, \
    Fig3Params, Fig7Params, OracleGridParams, RunOptions, _linspace, \
    _pump_grid_mw, _within_3se, apply_overrides, get_preset, grid_configs, \
    list_presets, run_preset

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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_reports_a_check(name):
    # the grid's checks do not depend on its sample count
    overrides = {"samples": "2000"} if name == "oracle-grid" else None
    assert run_preset(name, overrides=overrides).checks


def _leaf_values(params, prefix=""):
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_values(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def _float_steps(value):
    return (0.03, -0.03) if value == 0.0 else (value * 1.03, value * 0.97)


def _steps(value):
    """Alternative override texts about 3% from value, one list for each
    part that must move an output: each element of a tuple in turn. Both
    directions are tried, so a unit-interval value at 1 steps down and a grid
    bound can drop a grid point."""
    if isinstance(value, bool):
        return [[str(not value)]]
    if isinstance(value, int):
        step = max(1, round(0.03 * value))
        return [[str(value + step), str(value - step)]]
    if isinstance(value, tuple):
        return [[",".join(repr(s if j == i else v) for j, v in enumerate(value))
                 for s in _float_steps(element)]
                for i, element in enumerate(value)]
    return [[repr(s) for s in _float_steps(value)]]


# where every key acts: fig2's samples only with its Monte Carlo columns on;
# the acceptance grid runs at a small sample count
CONTEXT = {"fig2": {"oracle": "true"}, "oracle-grid": {"samples": "2000"}}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_override_key_moves_an_output(name, capsys):
    context = CONTEXT.get(name, {})

    def run(overrides):
        argv = ["run", name]
        for key, raw in {**context, **overrides}.items():
            argv += ["--set", f"{key}={raw}"]
        code = main(argv)
        return code, capsys.readouterr()

    _, base = run({})
    dead = []
    params = apply_overrides(PRESETS[name].params_type(), context)
    for key, value in _leaf_values(params):
        for alternatives in _steps(value):
            moved = []
            for raw in alternatives:
                code, output = run({key: raw})
                if code != 2:  # a step out of the valid range moves nothing
                    moved.append(output != base)
            if not any(moved):
                dead.append(key)
    assert dead == []


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


@pytest.mark.parametrize("minus_db, plus_db", [("0", "0"), ("-3", "7"), ("-10", "12")])
def test_fig7_grades_the_laws_weights_at_any_squeezing(minus_db, plus_db):
    # at vacuum every curvature is 0 up to rounding, so the check has a floor
    # and divides by nothing: a RuntimeWarning would fail this test
    result = run_preset("fig7", overrides={"minus_db": minus_db, "plus_db": plus_db})
    formula = {check.name: check for check in result.checks
               if check.source == "formula"}
    assert "jitter law weights vs network curvatures (max deviation)" in formula
    for check in formula.values():
        assert check.passed, (check.name, check.value, check.tolerance)


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
    # four rows for each of the 27 Gaussian configs, then the verifier's two
    # for each of the 5 jitter configs, which have no sender reference
    labels = [label for label, _ in grid_configs(OracleGridParams(), seed=0)]
    gaussian, jittered = labels[:27], labels[27:]
    assert len(jittered) == 5
    assert all(label.startswith("jitter_") for label in jittered)
    assert not any(label.startswith("jitter_") for label in gaussian)
    observables = ("sigma_v_x", "sigma_v_p", "sigma_a_x", "sigma_a_p")
    expected = [(label, name) for label in gaussian for name in observables] \
        + [(label, name) for label in jittered for name in observables[:2]]
    assert [row[:2] for row in result.rows] == expected


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
