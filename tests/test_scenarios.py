"""Preset catalog: registry, overrides and pinned checks."""

import dataclasses

import pytest

from cvteleport.scenarios import Fig2Params, Fig3Params, Fig7Params, PRESETS, \
    RunOptions, _within_3se, apply_overrides, get_preset, list_presets, run_preset

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
