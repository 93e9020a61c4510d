"""Command line front end for the bundled scenarios.

`cvteleport list` prints the preset catalog; `cvteleport run <scenario>`
evaluates one preset (or a config file naming one) and writes its table as
CSV to stdout or --out. A catalog name always runs its preset; any other
scenario naming a file is a config file, so one named like a preset runs by
path (`./fig3`). Check results go to stderr so the CSV stream stays
clean. Exit status: 0 when every check passes, 1 on a check failure, 2 on
usage, config or parameter errors.

A config file holds key=value lines (see configfile). Its reserved keys are
`preset` and `seed`; every other line is a parameter override, exactly as
`--set KEY=VALUE`. `--samples N` and `--oracle` are shorthand for
`--set samples=N` and `--set oracle=true`, so only presets with those
parameters accept them. Overrides apply in the order config file, --set,
then the shorthand flags, so flags win.

Output is deterministic: the same scenario, seed and sample count produce
byte-identical CSV. Floats are written with '.' decimals at 10 significant
digits, fields are comma separated and rows end with a bare linefeed.
"""

from __future__ import annotations

import argparse
import functools
import numbers
import os
import sys

from .configfile import load_config
from .scenarios import PRESETS, RunOptions, ScenarioResult, format_float, \
    list_presets, run_preset


def _format_cell(value) -> str:
    if isinstance(value, float):  # nearly every cell; np.float64 included
        return format_float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format_float(value)


def _write_csv(result: ScenarioResult, stream) -> None:
    stream.write(",".join(result.columns) + "\n")
    for row in result.rows:
        stream.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _report(result: ScenarioResult, stream) -> None:
    for check in result.checks:
        mark = "ok" if check.passed else "FAIL"
        stream.write(
            f"[{mark}] {check.name}: value={check.value:.8g} "
            f"expected={check.expected:.8g}±{check.tolerance:.3g} "
            f"({check.source})\n"
        )
    for note in result.notes:
        stream.write(f"note: {note}\n")
    passed = sum(check.passed for check in result.checks)
    stream.write(f"{passed}/{len(result.checks)} checks passed\n")


# built once per process: it is most of a closed-form call's time, and
# parse_args never mutates it (append copies the --set default list)
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="teleportation chain scenarios with pinned reference checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a preset or a config file")
    run.add_argument("scenario",
                     help="preset name, or path to a key=value config file "
                          "containing preset=<name>")
    run.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed for sampled columns (default {RunOptions.seed})")
    run.add_argument("--samples", default=None, metavar="N",
                     help="shorthand for --set samples=N")
    run.add_argument("--oracle", action="store_true",
                     help="shorthand for --set oracle=true")
    run.add_argument("--out", default=None, help="write CSV here instead of stdout")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a preset parameter (repeatable), e.g. "
                          "budget.xi1=0.99")

    sub.add_parser("list", help="list available presets")
    return parser


def _cmd_list() -> int:
    presets = list_presets()
    width = max(len(p.name) for p in presets) + 2
    for preset in presets:
        sys.stdout.write(preset.name.ljust(width) + preset.description + "\n")
    return 0


def _cmd_run(args) -> int:
    overrides: dict = {}
    seed = RunOptions.seed

    if args.scenario not in PRESETS and os.path.isfile(args.scenario):
        overrides = load_config(args.scenario)
        name = overrides.pop("preset", None)
        if name is None:
            raise ValueError(f"{args.scenario}: config file must set preset=<name>")
        if "seed" in overrides:
            try:
                seed = int(overrides.pop("seed"))
            except ValueError:
                raise ValueError(f"{args.scenario}: seed must be an integer") from None
    else:
        name = args.scenario

    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.oracle:
        overrides["oracle"] = "true"
    if args.seed is not None:
        seed = args.seed

    result = run_preset(name, RunOptions(seed=seed), overrides)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            _write_csv(result, stream)
    else:
        _write_csv(result, sys.stdout)
    _report(result, sys.stderr)
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"error: parameters outside the model's numeric range "
                         f"({exc})\n")
        return 2


def main_entry() -> None:
    sys.exit(main())
