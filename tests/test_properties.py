"""Randomized identity checks bundled with the package."""

import collections
import tracemalloc
import types

import numpy as np
import pytest

from cvteleport import epr, opo, properties, teleporter, units
from cvteleport.cli import main
from cvteleport.properties import ALL_CHECKS, PropertyResult, run_all

EXPECTED_NAMES = {"db_roundtrip", "loss_composition", "epr_witness",
                  "fidelity_bounds", "uncertainty_preserved"}


def test_catalog_names():
    assert {check.__name__.removeprefix("check_") for check in ALL_CHECKS} == \
        EXPECTED_NAMES


def test_all_properties_hold():
    results = run_all(seed=0, cases=1000)
    assert {r.name for r in results} == EXPECTED_NAMES
    for result in results:
        assert result.cases == 1000
        assert result.failures == 0, f"{result.name}: {result.note}"
        assert result.passed


def test_case_count_is_bounded_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew cases beyond the bound")

    monkeypatch.setattr(properties.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="1000000"):
        run_all(seed=0, cases=properties.MAX_CASES + 1)


def test_run_all_deterministic():
    assert run_all(seed=4, cases=300) == run_all(seed=4, cases=300)


def test_result_semantics():
    assert PropertyResult("demo", 10, 0).passed
    assert not PropertyResult("demo", 10, 3, "first bad case").passed


def _excess_noise_loss(variance, transmission):
    # 1e-6 (1 - t) of added noise per element, which no product of
    # transmissions reproduces (a t in place of t^2 would still compose:
    # it is the right channel at transmission sqrt(t))
    return units.loss_channel(variance, transmission) + 1e-6 * (1.0 - transmission)


def _rising_fidelity(sigma_x, sigma_p, beta_in=None, beta_out=None):
    matched = teleporter.fidelity(sigma_x, sigma_p)
    return matched * matched / teleporter.fidelity(sigma_x, sigma_p, beta_in, beta_out)


def _sub_uncertainty_squeezing(opo_params, chain, pump):
    detected = opo.squeezing_vs_pump(opo_params, chain, pump)
    return types.SimpleNamespace(sigma_minus=detected.sigma_minus,
                                 sigma_plus=0.5 / detected.sigma_minus)


PLANTED_FAULTS = {
    "db_roundtrip": ("from_db", lambda level: units.from_db(level) * (1.0 + 1e-9)),
    "loss_composition": ("loss_channel", _excess_noise_loss),
    "epr_witness": ("correlation_product",
                    lambda sq: epr.correlation_product(sq) * (1.0 + 1e-6)),
    "fidelity_bounds": ("fidelity", _rising_fidelity),
    "uncertainty_preserved": ("squeezing_vs_pump", _sub_uncertainty_squeezing),
}


@pytest.mark.parametrize("target", sorted(PLANTED_FAULTS))
def test_each_property_catches_its_planted_fault(monkeypatch, target):
    # a fault in the function one check verifies fails that check, with a
    # counterexample, and no other
    name, fault = PLANTED_FAULTS[target]
    monkeypatch.setattr(properties, name, fault)
    for result in run_all(seed=0, cases=200):
        if result.name == target:
            assert result.failures > 0
            assert result.note.startswith("first counterexample: ")
        else:
            assert result.failures == 0, f"{result.name}: {result.note}"


@pytest.mark.parametrize("target", sorted(PLANTED_FAULTS))
def test_cli_prints_the_counterexample_of_a_failing_property(monkeypatch, capsys,
                                                             target):
    name, fault = PLANTED_FAULTS[target]
    monkeypatch.setattr(properties, name, fault)
    assert main(["run", "properties"]) == 1
    err = capsys.readouterr().err
    assert f"[FAIL] {target} failures" in err
    assert f"note: {target}: first counterexample: " in err
    # only the failing property has a note
    assert err.count("note: ") == 1


# the scalar function each check calls and how often it calls it per case
SCALAR_CALLS = {"to_db": 1, "loss_channel": 3, "correlation_product": 1,
                "fidelity": 2, "squeezing_vs_pump": 1}


def _recorded_arguments(monkeypatch, seed, cases):
    calls = {name: [] for name in SCALAR_CALLS}

    def recording(name, fn):
        def record(*args):
            calls[name].append(args)
            return fn(*args)
        return record

    for name in SCALAR_CALLS:
        monkeypatch.setattr(properties, name,
                            recording(name, getattr(properties, name)))
    run_all(seed=seed, cases=cases)
    monkeypatch.undo()
    return calls


def test_fewer_cases_are_a_prefix_of_more(monkeypatch):
    # a counterexample found at many cases reproduces at fewer
    short = _recorded_arguments(monkeypatch, seed=9, cases=50)
    long = _recorded_arguments(monkeypatch, seed=9, cases=200)
    for name, per_case in SCALAR_CALLS.items():
        prefix = 50 * per_case
        assert len(short[name]) >= prefix
        assert len(long[name]) >= 200 * per_case
        assert long[name][:prefix] == short[name][:prefix], name


@pytest.mark.parametrize("cases", [properties._SLICE - 1, properties._SLICE,
                                   properties._SLICE + 1])
def test_sliced_draws_are_the_one_shot_block(cases):
    ranges = ((-3.0, 3.0), (0.0, 1.0), (0.5, 1.0))
    low, high = zip(*ranges)
    block = np.random.default_rng(3).uniform(low, high, size=(cases, len(ranges)))
    assert list(properties._draw(np.random.default_rng(3), cases, ranges)) == \
        block.tolist()


def test_every_check_reads_the_same_cases_in_small_slices(monkeypatch):
    # 7-row slices split the 30 cases unevenly; each check must still see
    # the one-shot block's cases, in order
    whole = _recorded_arguments(monkeypatch, seed=2, cases=30)
    monkeypatch.setattr(properties, "_SLICE", 7)
    sliced = _recorded_arguments(monkeypatch, seed=2, cases=30)
    assert sliced == whole


def _draw_peak(draw, slices):
    # peak traced memory while drawing `slices` slices of one-input cases
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        collections.deque(draw(rng, slices * properties._SLICE, ((0.0, 1.0),)),
                          maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _one_block(rng, cases, ranges):
    low, high = zip(*ranges)
    yield from rng.uniform(low, high, size=(cases, len(ranges))).tolist()


def _kept_slices(rng, cases, ranges):
    low, high = zip(*ranges)
    kept = []
    for start in range(0, cases, properties._SLICE):
        rows = min(properties._SLICE, cases - start)
        kept.append(rng.uniform(low, high, size=(rows, len(ranges))).tolist())
        yield from kept[-1]


def _peak_is_flat(monkeypatch, draw):
    # a 2**10-row slice of one-input cases is about 100 kB of Python floats;
    # one block of 64 slices takes 16 times the memory of one of 4
    monkeypatch.setattr(properties, "_SLICE", 2**10)
    return _draw_peak(draw, 64) < 1.5 * _draw_peak(draw, 4)


def test_drawing_the_cases_holds_one_slice_at_a_time(monkeypatch):
    assert _peak_is_flat(monkeypatch, properties._draw)


@pytest.mark.parametrize("draw", [_one_block, _kept_slices])
def test_the_slice_bound_catches_a_block_or_kept_slices(monkeypatch, draw):
    assert not _peak_is_flat(monkeypatch, draw)
