"""Transfer matrix of the optical network against the closed forms.

diag(T T^T) is the exact, deterministic covariance of the chain at fixed
lock angles; it must reproduce the sender and verifier variances of
teleporter.py, which are derived independently.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport.network as network
from cvteleport.epr import SqueezingParams
from cvteleport.network import PORTS, transfer_matrix
from cvteleport.scenarios import OracleGridParams, grid_configs
from cvteleport.teleporter import EfficiencyBudget, GainSettings, alice_variance, \
    victor_variance

REL = 1e-12


def _assert_covariance_matches(squeezing, budget, gains):
    t = transfer_matrix(squeezing, budget, gains)
    assert t.shape == (4, PORTS)
    diag = (t * t).sum(axis=-1)
    expected = (alice_variance(squeezing, budget, "x"),
                alice_variance(squeezing, budget, "p"),
                victor_variance(squeezing, budget, gains, "x"),
                victor_variance(squeezing, budget, gains, "p"))
    for name, got, want in zip(("i_x", "i_p", "x_out", "p_out"), diag, expected):
        assert got == pytest.approx(want, rel=REL), name


def test_covariance_on_every_loss_grid_config():
    configs = [config for _, config in grid_configs(OracleGridParams(), seed=0)
               if config.jitter is None]
    assert len(configs) == 27
    for config in configs:
        _assert_covariance_matches(config.squeezing, config.budget, config.gains)


efficiency = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def budgets(draw):
    return EfficiencyBudget(
        xi1=draw(efficiency), xi2=draw(efficiency), xi3=draw(efficiency),
        xi4=draw(efficiency), xi5=draw(efficiency),
        alpha_ax=draw(efficiency), alpha_ap=draw(efficiency),
        alpha_v=draw(efficiency),
        r_b=draw(st.floats(min_value=0.0, max_value=1.0)))


@settings(max_examples=300, deadline=None)
@given(r_minus=st.floats(min_value=0.0, max_value=1.5),
       excess=st.floats(min_value=0.0, max_value=1.0),
       budget=budgets(),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0))
def test_covariance_on_random_chains(r_minus, excess, budget, g_x, g_p):
    squeezing = SqueezingParams(r_minus, r_minus + excess)
    _assert_covariance_matches(squeezing, budget, GainSettings(g_x, g_p))


@settings(max_examples=300, deadline=None)
@given(budget=budgets(),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0))
def test_gain_teleports_the_mean(budget, g_x, g_p):
    # an input mean enters like its fluctuations, through the input ports
    # (4, 5), so the verifier rows (2, 3) carry it scaled by the gain
    t = transfer_matrix(SqueezingParams.from_db(-3.0, 7.0), budget,
                        GainSettings(g_x, g_p))
    assert t[2, 4] == pytest.approx(g_x, rel=REL)
    assert t[3, 5] == pytest.approx(g_p, rel=REL)


def test_array_angles_broadcast():
    sq = SqueezingParams.from_db(-3.0, 7.0)
    budget = EfficiencyBudget(xi1=0.9, xi4=0.95, r_b=0.9)
    gains = GainSettings(0.9, 1.1)
    rng = np.random.default_rng(1)
    angles = tuple(0.1 * rng.standard_normal(5) for _ in range(4))
    stack = transfer_matrix(sq, budget, gains, angles)
    assert stack.shape == (5, 4, PORTS)
    for k in range(5):
        single = transfer_matrix(sq, budget, gains,
                                 tuple(float(theta[k]) for theta in angles))
        np.testing.assert_allclose(stack[k], single, rtol=1e-14, atol=1e-15)
    # one array angle among scalars broadcasts the same way
    mixed = transfer_matrix(sq, budget, gains, (angles[0], 0.0, 0.0, 0.0))
    assert mixed.shape == (5, 4, PORTS)


def test_dead_feedforward_path_rejected():
    # a zero transmission from a sender detector to the verifier leaves the
    # displacement no finite gain
    for dead in (EfficiencyBudget(alpha_v=0.0), EfficiencyBudget(xi3=0.0)):
        with pytest.raises(ValueError, match="feedforward"):
            transfer_matrix(SqueezingParams.vacuum(), dead, GainSettings())


def test_network_imports_no_closed_form():
    # the Monte Carlo built on network.py is the closed forms' independent
    # oracle, so it may take nothing from them beyond parameter types
    closed_form = {"teleporter", "jitter"}
    tree = ast.parse(Path(network.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module is None):
            modules = {alias.name.split(".")[-1] for alias in node.names}
            assert not modules & closed_form, modules
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".")[-1]
            if module not in closed_form:
                continue
            source = importlib.import_module(f"cvteleport.{module}")
            for alias in node.names:
                value = getattr(source, alias.name)
                assert isinstance(value, type) and dataclasses.is_dataclass(value), \
                    f"network imports {alias.name} from {module}"
