"""Command line behavior: CSV contract, config files, exit codes."""

import csv
import math
import subprocess
import sys

import pytest

from cvteleport.cli import build_parser, main
from cvteleport.scenarios import PRESETS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_every_preset(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    for name in PRESETS:
        assert name in out


def test_run_emits_csv_and_check_summary(capsys):
    code, out, err = run_cli(["run", "fidelity-anchors"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("case,sigma_db,sigma_ref_db,sigma_tol_db,"
                        "fidelity,fidelity_ref,fidelity_tol,status")
    assert len(lines) == 6
    assert "11/11 checks passed" in err
    # ten significant digits, '.' decimal separator
    first = lines[1].split(",")
    assert first[0] == "classical-ideal"
    assert first[1] == "4.771212547"


def test_out_file_uses_lf_endings(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run_cli(["run", "fig7", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""  # CSV went to the file, not stdout
    raw = target.read_bytes()
    assert b"\r" not in raw
    with target.open() as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "theta_v_deg"
    assert len(rows) == 182


def test_byte_identical_for_fixed_seed(tmp_path, capsys):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for path, seed in zip(paths, ("7", "7", "8")):
        code = main(["run", "fig2", "--oracle", "--samples", "2000",
                     "--seed", seed, "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_unknown_scenario_lists_presets(capsys):
    code, _, err = run_cli(["run", "nope"], capsys)
    assert code == 2
    assert "available presets" in err
    assert "fig7" in err


def test_check_failure_sets_exit_code(capsys):
    code, out, err = run_cli(["run", "epr-backprop", "--set",
                              "detected_minus_db=-2.0"], capsys)
    assert code == 1
    assert "FAIL" in err
    assert out.startswith("quantity,")  # table still emitted


def test_probe_check_fails_off_its_reference(capsys):
    # a fit reference 4 dB lower moves the 20 kHz residual out of its band
    code, out, err = run_cli(["run", "channel-cancellation", "--set",
                              "ref_db=-24"], capsys)
    assert code == 1
    assert "[FAIL] cancellation at 20 kHz (dB)" in err
    assert out.startswith("offset_khz,")


def test_single_sample_oracle_grid_fails(capsys):
    # a sample variance needs two shots, so one shot is bad input
    code, out, err = run_cli(["run", "oracle-grid", "--samples", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_single_sample_oracle_scan_names_samples(capsys):
    code, out, err = run_cli(["run", "fig2", "--oracle", "--samples", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_two_sample_oracle_scan_runs(capsys):
    # two shots are the smallest Monte Carlo: a rank-1 scatter per cell
    code, out, err = run_cli(["run", "fig2", "--oracle", "--samples", "2"], capsys)
    assert code in (0, 1)
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][-4:] == ["victor_mc_db", "victor_mc_se", "alice_mc_db",
                            "alice_mc_se"]
    assert len(rows) == 42
    assert all(math.isfinite(float(value)) for row in rows[1:] for value in row)


def test_oracle_scan_grades_its_monte_carlo_columns(capsys):
    code, _, err = run_cli(["run", "fig2", "--oracle"], capsys)
    assert code == 0
    assert "[ok] Monte Carlo cells within 3 standard errors" in err
    assert "3/3 checks passed" in err
    # the plain scan samples nothing and grades only the ideal-chain identities
    code, _, err = run_cli(["run", "fig2"], capsys)
    assert code == 0
    assert "Monte Carlo" not in err
    assert err.count("[ok] ideal") == 2 and err.endswith("2/2 checks passed\n")


def test_oracle_scan_below_the_grid_rule_fails(capsys):
    # at two shots a cell's estimate is chi-square(1)-shaped, and at this
    # seed only 74 of the 82 cells lie within 3 SE
    code, out, err = run_cli(["run", "fig2", "--oracle", "--samples", "2",
                              "--seed", "12345"], capsys)
    assert code == 1
    assert "[FAIL] Monte Carlo cells within 3 standard errors (count): " \
           "value=74 expected=82±4 (model)" in err
    assert len(out.splitlines()) == 42


def test_oracle_scan_passes_at_exactly_95_percent(capsys):
    # 19 of 20 cells within 3 SE is the grid rule's boundary and passes;
    # as a float fraction, 1 - 19/20 = 0.05000000000000004 failed it
    code, _, err = run_cli(["run", "fig2", "--oracle", "--samples", "3",
                            "--set", "points=10", "--seed", "0"], capsys)
    assert code == 0
    assert "[ok] Monte Carlo cells within 3 standard errors (count): " \
           "value=19 expected=20±1 (model)" in err
    # 18 of 20 is below it
    code, _, err = run_cli(["run", "fig2", "--oracle", "--samples", "3",
                            "--set", "points=10", "--seed", "18"], capsys)
    assert code == 1
    assert "[FAIL] Monte Carlo cells within 3 standard errors (count): " \
           "value=18 expected=20±1 (model)" in err


def test_epr_correlations_vacuum_check_off_zero_start(capsys):
    # the vacuum check is evaluated on the vacuum itself, not on row one
    code, _, err = run_cli(["run", "epr-correlations", "--set", "start_db=3"],
                           capsys)
    assert code == 0
    assert "2/2 checks passed" in err


# inputs that leave a check no point to grade, and the check each names
NOTHING_TO_GRADE = {
    ("fig12-gain-sweep", "--set", "points=1"):  # no second difference
    "verifier level convex in gain (input vacuum)",
    ("opo-gain", "--set", "pump_max_mw=0"):  # one pump point, no pair
    "gain monotone increasing with pump",
    ("fig10-squeezing", "--set", "points=1"):
    "anti-squeezing monotone increasing with pump",
    ("fig12-gain-sweep", "--set", "points=2"):
    "verifier level convex in gain (input vacuum)",
    ("fig16-fidelity-vs-pump", "--set", "pump_max_mw=5"):  # none past 10 mW
    "fidelity beats the classical bound beyond 10 mW pump",
    ("epr-correlations", "--set", "stop_db=0"):  # no squeezed point
    "witness below the separable bound once squeezed",
    # the point nearest 100 mW is the last, so it would grade itself
    ("fig10-squeezing", "--set", "pump_max_mw=50"):
    "squeezing saturates at high pump (dB change 100 mW to max)",
    ("fig10-squeezing", "--set", "pump_max_mw=60", "--set", "points=5"):
    "squeezing saturates at high pump (dB change 100 mW to max)",
    # a descending sweep ends on its lowest pump
    ("fig10-squeezing", "--set", "pump_min_mw=155", "--set", "pump_max_mw=2.5"):
    "squeezing saturates at high pump (dB change 100 mW to max)",
}

# two curves under one header; fig4's tag keeps 6 digits
REPEATED_COLUMN = {
    ("fig4", "--set", "squeezing_db=3,3.0000001"): "fidelity_3db",
    ("fig7", "--set", "theta_e_deg=2,2"): "noise_db_theta_e_2deg",
    ("fig12-gain-sweep", "--set", "input_total_db=7,7"): "victor_db_in7db",
}

# budgets with no feedforward path to the verifier, refused as they are built
DEAD_FEEDFORWARD = [
    ("fig2", "--set", "budget.alpha_v=0", "--set", "points=3"),
    ("fig2", "--set", "budget.alpha_v=0", "--set", "points=3", "--oracle",
     "--samples", "1000"),
    ("fig3", "--set", "budget.xi5=0", "--set", "points=3"),
    ("fidelity-anchors", "--set", "trace.alpha_v=0"),
]


@pytest.mark.parametrize("args", [
    ["fig2", "--oracle", "--samples", "0"],
    ["properties", "--samples", "0"],
    ["oracle-grid", "--samples", "0"],
    ["fig3", "--set", "points=0"],
    ["epr-correlations", "--set", "points=0"],
    ["fig16-fidelity-vs-pump", "--set", "points=0"],
    ["opo-gain", "--set", "step_mw=0"],
    ["fig3", "--set", "start_db=1e308"],
    ["fig3", "--set", "budget.xi2=1e-300"],
    ["fig3", "--set", "start_db=nan"],
    ["fig7", "--set", "theta_e_deg=nan"],
    ["channel-cancellation", "--set", "max_offset_hz=inf"],
    # the probe check's pass rule is not a parameter, so it cannot be widened
    ["channel-cancellation", "--set", "ref_db=-24", "--set", "probe_tol_db=100"],
    ["fig7", "--set", "theta_e_deg=0,243"],  # beyond the quadratic jitter law
    ["fig3", "--set", "budget.xi_epr=0.5"],
    ["fig4", "--set", "t_b=0.1"],
    ["epr-correlations", "--set", "start_db=6000"],  # variances overflow
    # sweeps are bounded before their grid is built
    ["opo-gain", "--set", "pump_max_mw=1e12"],
    ["opo-gain", "--set", "step_mw=1e-300"],
    ["fig3", "--set", "points=100000000"],
    # so is the properties case count, before its block is drawn
    ["properties", "--samples", "1000000000000"],
    ["properties", "--set", "samples=1000001"],
    # an LO scan of 3 points or fewer samples one quadrature only
    ["fig7", "--set", "points=3", "--set", "theta_e_deg=0"],
    ["fig7", "--set", "points=2"],
    ["fig7", "--set", "points=1"],
    # the gain_db column is 20 log10(g)
    ["fig12-gain-sweep", "--set", "gain_min=0"],
    ["fig12-gain-sweep", "--set", "gain_max=0"],
] + [list(args) for args in [*NOTHING_TO_GRADE, *REPEATED_COLUMN, *DEAD_FEEDFORWARD]])
def test_bad_input_returns_two(args, capsys):
    code, out, err = run_cli(["run"] + args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    check = NOTHING_TO_GRADE.get(tuple(args))
    column = REPEATED_COLUMN.get(tuple(args))
    if check is not None:
        assert f"check {check!r} has no points to grade" in err
    elif column is not None:
        assert f"two columns share the name {column!r}" in err
    elif tuple(args) in DEAD_FEEDFORWARD:
        assert "zero efficiency in the feedforward path" in err
    elif args[0] == "fig12-gain-sweep":
        assert args[-1].partition("=")[0] in err


def test_descending_fig10_sweep_names_the_condition(capsys):
    # the sweep spans the default pumps, so "widen the sweep" would mislead:
    # it is the last pump that lies below the point nearest 100 mW
    code, _, err = run_cli(["run", "fig10-squeezing", "--set", "pump_min_mw=155",
                            "--set", "pump_max_mw=2.5"], capsys)
    assert code == 2
    assert "the sweep must end above its point nearest 100 mW" in err
    assert "widen" not in err


@pytest.mark.parametrize("flag", [["--samples", "5"], ["--oracle"]])
def test_shorthand_flags_need_the_parameter(flag, capsys):
    # --samples and --oracle are overrides, so presets without them refuse
    code, _, err = run_cli(["run", "fig3"] + flag, capsys)
    assert code == 2
    assert flag[0].lstrip("-") in err
    assert "available here" in err


def test_samples_flag_matches_set_override(tmp_path, capsys):
    paths = [tmp_path / "flag.csv", tmp_path / "set.csv"]
    assert main(["run", "properties", "--samples", "50", "--out",
                 str(paths[0])]) == 0
    assert main(["run", "properties", "--set", "samples=50", "--out",
                 str(paths[1])]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert ",50,0,pass" in paths[0].read_text()


def test_config_file_runs_preset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference backprop point\n"
                   "preset=epr-backprop\n"
                   "xi_epr=0.985\n"
                   "detected_minus_db=-3.73\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0
    assert "2/2 checks passed" in err


def test_cli_flags_win_over_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=fig2\noracle=true\nsamples=2000\nseed=5\n")
    direct = tmp_path / "direct.csv"
    via_cfg = tmp_path / "via_cfg.csv"
    assert main(["run", "fig2", "--oracle", "--samples", "2000", "--seed",
                 "9", "--out", str(direct)]) == 0
    capsys.readouterr()
    assert main(["run", str(cfg), "--seed", "9", "--out", str(via_cfg)]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == via_cfg.read_bytes()


@pytest.mark.parametrize("args", [["fig2", "--oracle"]] + [[name] for name in PRESETS])
def test_negative_seed_returns_two(args, capsys):
    # numpy's generators take no negative seed; every preset refuses one
    # alike, whether it samples or not
    code, out, err = run_cli(["run"] + args + ["--seed", "-2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -2\n"


def test_a_file_named_like_a_preset_does_not_hide_it(tmp_path, monkeypatch,
                                                     capsys):
    # a catalog name runs its preset even beside a file of that name; a
    # config file named like a preset runs by path
    monkeypatch.chdir(tmp_path)
    assert main(["run", "fig3", "--out", "fig3"]) == 0
    assert main(["run", "fig3", "--out", "again.csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "fig3").read_bytes()

    (tmp_path / "fig3").write_text("preset=epr-backprop\n")
    code, out, err = run_cli(["run", "./fig3"], capsys)
    assert code == 0
    assert out.startswith("quantity,")
    assert "2/2 checks passed" in err


def test_config_negative_seed_returns_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=properties\nseed=-4\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -4\n"


def test_config_bad_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=fig2\noracle=maybe\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "oracle" in err


def test_config_missing_preset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points=5\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "preset" in err


def test_config_parse_error_names_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=fig3\nbogus line\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert ":2:" in err


def test_malformed_set_flag(capsys):
    code, _, err = run_cli(["run", "fig3", "--set", "oops"], capsys)
    assert code == 2
    assert "KEY=VALUE" in err


def test_unknown_override_key(capsys):
    code, _, err = run_cli(["run", "fig3", "--set", "nosuch=1"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_usage_error_returns_two(capsys):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["run"], capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cvteleport", "run", "fig3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("squeezing_db,")


SHARED_PARSER_CALLS = [
    ["run", "fig3", "--set", "points=3", "--seed", "5"],
    ["run", "fig3"],
    ["run", "fig2", "--oracle", "--samples", "64"],
    ["run", "fig2"],
    ["run"],  # usage error: no scenario
    ["run", "fig3"],
]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # one parser serves every call in a process, so no call may leave state
    # behind that a later call sees: each matches a fresh process
    assert build_parser() is build_parser()
    for argv in SHARED_PARSER_CALLS:
        code, out, err = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "cvteleport"] + argv,
                               capture_output=True, text=True, timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        if argv == ["run"]:
            assert code == 2 and "usage:" in err
        else:
            assert err == fresh.stderr, argv
