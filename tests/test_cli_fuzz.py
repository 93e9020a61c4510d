"""Hostile parameter overrides through `cli.main`: every preset, every leaf key.

Whatever the value, the run must end in exit 0 (every check passed), 1 (a
real check failed) or 2 (bad input), never in an exception, and a run that
exits 0 must write only finite numbers. Retired keys, deleted because no
computation read them, must exit 2 whatever the value, so an old config
line fails loudly instead of being ignored.
"""

import contextlib
import csv
import dataclasses
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport.cli import main
from cvteleport.scenarios import get_preset, list_presets
from cvteleport.teleporter import EfficiencyBudget

HOSTILE = ("0", "-1", "1", "2", "", " ", "nan", "-nan", "inf", "-inf", "1e308",
           "-1e308", "1e-300", "-1e-300", "abc", "1,nan", "1,,2", ",", "true",
           "2.5")
# bounded numbers: small ints for the counts, eighths in [-1000, 1000] for
# the rest, so no sweep grows beyond a few thousand points
NUMBERS = st.integers(-8, 300).map(str) \
    | st.integers(-8000, 8000).map(lambda k: format(k / 8, "g"))


def _leaf_keys(params, prefix=""):
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_keys(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


CASES = [(preset.name, key) for preset in list_presets()
         for key in _leaf_keys(preset.params_type())]
RETIRED = [(preset.name, f"{f.name}.{old}") for preset in list_presets()
           for f in dataclasses.fields(preset.params_type)
           if isinstance(f.default, EfficiencyBudget)
           for old in ("t_b", "xi_epr")] + [("fig4", "t_b")]


def _hostile_examples(test):
    for value in HOSTILE:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("preset,key", CASES + RETIRED)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(value=st.sampled_from(HOSTILE) | NUMBERS)
@_hostile_examples
def test_hostile_override(preset, key, value):
    argv = ["run", preset, "--set", f"{key}={value}"]
    if key != "samples" and hasattr(get_preset(preset).params_type(), "samples"):
        argv += ["--samples", "64"]  # keep Monte Carlo and property runs small
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if (preset, key) in RETIRED:
        assert code == 2 and "unknown parameter" in err.getvalue(), err.getvalue()
        return
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    if code != 0:
        return
    for row in csv.reader(io.StringIO(out.getvalue())):
        for cell in row:
            try:
                number = float(cell)
            except ValueError:
                continue
            assert math.isfinite(number), (argv, row)
