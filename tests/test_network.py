"""Transfer matrix of the optical network against the closed forms.

diag(T T^T) is the exact, deterministic covariance of the chain at fixed
lock angles; it must reproduce the sender and verifier variances of
teleporter.py, which are derived independently. On any draw z the per-shot
push and T agree, y = T z, which is what lets the oracle sample the scatter
of z in place of the shots.
"""

import ast
import dataclasses
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport.network as network
from cvteleport.epr import SqueezingParams
from cvteleport.network import LOCKED, PORTS, live_ports, lock_curvatures, push, \
    seed_gains, transfer_matrix
from cvteleport.scenarios import OracleGridParams, grid_configs
from cvteleport.teleporter import EfficiencyBudget, GainSettings, alice_variance, \
    victor_variance

REL = 1e-12


def _assert_covariance_matches(squeezing, budget, gains):
    t = transfer_matrix(squeezing, budget, gains)
    assert t.shape == (4, PORTS)
    diag = (t * t).sum(axis=-1)
    expected = alice_variance(squeezing, budget) + victor_variance(squeezing, budget, gains)
    for name, got, want in zip(("i_x", "i_p", "x_out", "p_out"), diag, expected):
        assert got == pytest.approx(want, rel=REL), name


def _assert_scatter_identity(squeezing, budget, gains):
    # on one shared draw the per-shot sum of y y^T is T (sum of z z^T) T^T
    z = np.random.default_rng(0).standard_normal((PORTS, 3000))
    per_shot = np.empty((4, z.shape[1]))
    push(z.copy(), squeezing, budget, gains, LOCKED, per_shot)
    per_shot = per_shot @ per_shot.T
    t = transfer_matrix(squeezing, budget, gains)
    via_scatter = t @ (z @ z.T) @ t.T
    diag = np.diag(per_shot)
    assert np.all(np.abs(per_shot - via_scatter) <= REL * np.sqrt(np.outer(diag, diag)))


def test_covariance_on_every_loss_grid_config():
    configs = [config for _, config in grid_configs(OracleGridParams(), seed=0)
               if config.jitter is None]
    assert len(configs) == 27
    for config in configs:
        _assert_covariance_matches(config.squeezing, config.budget, config.gains)
        _assert_scatter_identity(config.squeezing, config.budget, config.gains)


efficiency = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def budgets(draw, efficiency=efficiency):
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
    _assert_scatter_identity(squeezing, budget, GainSettings(g_x, g_p))


angle = st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=300, deadline=None)
@given(budget=budgets(st.one_of(st.just(1.0), efficiency)),
       angles=st.tuples(angle, angle, angle, angle),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0))
def test_ports_outside_the_live_set_never_reach_an_output(budget, angles, g_x, g_p):
    live = live_ports(budget)
    dead = [port for port in range(PORTS) if port not in live]
    t = transfer_matrix(SqueezingParams.from_db(-3.0, 7.0), budget,
                        GainSettings(g_x, g_p), angles)
    assert np.all(t[:, dead] == 0.0)


angle_arrays = st.lists(angle, min_size=3, max_size=3).map(np.array)


@settings(max_examples=300, deadline=None)
@given(r_minus=st.floats(min_value=0.0, max_value=1.5),
       excess=st.floats(min_value=0.0, max_value=1.0),
       budget=budgets(),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0),
       angles=st.one_of(st.tuples(angle, angle, angle, angle),
                        st.tuples(angle_arrays, angle, angle_arrays, angle_arrays)))
def test_squeezing_scales_only_the_seed_columns(r_minus, excess, budget, g_x, g_p,
                                                angles):
    # the squeezers come first and touch only the seeds, so at any angles
    # T(sq) = T(vacuum) diag(seed_gains(sq), 1, ..., 1): the identity the
    # oracle's cached vacuum T rests on
    squeezing = SqueezingParams(r_minus, r_minus + excess)
    gains = GainSettings(g_x, g_p)
    t = transfer_matrix(squeezing, budget, gains, angles)
    vacuum = transfer_matrix(SqueezingParams(), budget, gains, angles)
    scale = np.array([*seed_gains(squeezing)] + [1.0] * (PORTS - 4))
    assert np.all(np.abs(t - vacuum * scale) <= 1e-13 * np.abs(t).max())


def test_live_ports_of_ideal_and_lossy_chains():
    assert live_ports(EfficiencyBudget.ideal()) == tuple(range(6))
    lossy = EfficiencyBudget(xi1=0.99, xi2=0.99, xi3=0.99, xi4=0.99, xi5=0.99,
                             alpha_ax=0.99, alpha_ap=0.99, alpha_v=0.99, r_b=0.99)
    assert live_ports(lossy) == tuple(range(PORTS))
    # a lossy sender x arm opens its one port only
    assert live_ports(EfficiencyBudget(alpha_ax=0.9)) == tuple(range(6)) + (8,)


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


def test_zero_angle_rotation_is_exact():
    # the locked transfer matrix keeps its bits through the array branch
    s = np.zeros(3)
    c = np.empty(3)
    network._cos_sin(s, c)
    assert np.all(c == 1.0) and np.all(s == 0.0)
    # push takes the scalar 0.0 as the identity, and any other fixed angle
    # only as an array
    z = np.ones((PORTS, 3))
    with pytest.raises(ValueError, match="array or the scalar 0.0"):
        push(z, SqueezingParams(), EfficiencyBudget(), GainSettings(),
             (0.0, 0.3, 0.0, 0.0), np.empty((4, 3)))
    assert np.all(z == 1.0)


def _chunk(budget, rms, n, seed, dtype=np.float64):
    # one oracle chunk's rows: unit normals on the live ports, None on the
    # dead ones so that a read of one fails, and rms-scaled live angles
    rng = np.random.default_rng(seed)
    z = [None] * PORTS
    for port in live_ports(budget):
        z[port] = rng.standard_normal(n, dtype)
    angles = [r * rng.standard_normal(n, dtype) if r > 0.0 else 0.0 for r in rms]
    return z, angles


def _columns(rows, start, stop):
    return [row[start:stop] if isinstance(row, np.ndarray) else row for row in rows]


rms_angle = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5))


@settings(max_examples=200, deadline=None)
@given(budget=budgets(st.one_of(st.just(1.0), efficiency)),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0),
       rms=st.tuples(rms_angle, rms_angle, rms_angle, rms_angle),
       n=st.integers(1, 300), width=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_pushing_column_slices_gives_the_bits_of_the_whole_chunk(
        budget, g_x, g_p, rms, n, width, seed):
    # push is per shot, so how the oracle cuts a chunk into pushes cannot
    # change an estimate; compared bit for bit, signed zeros included
    sq = SqueezingParams.from_db(-3.0, 7.0)
    gains = GainSettings(g_x, g_p)
    z, angles = _chunk(budget, rms, n, seed)
    whole = np.empty((4, n))
    push(z, sq, budget, gains, angles, whole)
    z, angles = _chunk(budget, rms, n, seed)
    sliced = np.empty((4, n))
    for start in range(0, n, width):
        stop = start + width
        push(_columns(z, start, stop), sq, budget, gains,
             _columns(angles, start, stop), sliced[:, start:stop])
    assert np.array_equal(whole.view(np.int64), sliced.view(np.int64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_push_allocates_no_row(dtype):
    # every element runs in place over the caller's rows, in their dtype, so
    # a 2**15-shot push with every port and all four angles live holds no
    # row of its own: one row is 256 KiB in float64 and 128 KiB in float32.
    # A float64 scalar on float32 rows would compute in float64 through
    # cast buffers, which the bound catches too
    budget = EfficiencyBudget(xi1=0.9, xi4=0.95, xi5=0.9, alpha_ax=0.8,
                              alpha_ap=0.85, alpha_v=0.9, r_b=0.9)
    assert live_ports(budget) == tuple(range(PORTS))
    z, angles = _chunk(budget, (0.07, 0.03, 0.05, 0.09), 1 << 15, seed=3, dtype=dtype)
    out = np.empty((4, 1 << 15), dtype)
    sq = SqueezingParams.from_db(-3.0, 7.0)
    tracemalloc.start()
    try:
        push(z, sq, budget, GainSettings(0.9, 1.1), angles, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.all(np.isfinite(out))


def test_transfer_matrix_leaves_the_angles_unchanged():
    rng = np.random.default_rng(5)
    angles = (0.1 * rng.standard_normal(7), 0.05, 0.1 * rng.standard_normal((2, 7)),
              np.float64(0.02))
    kept = [np.array(theta, copy=True) for theta in angles]
    t = transfer_matrix(SqueezingParams.from_db(-3.0, 7.0),
                        EfficiencyBudget(xi1=0.9, r_b=0.9), GainSettings(), angles)
    assert t.shape == (2, 7, 4, PORTS)
    for theta, before in zip(angles, kept):
        assert np.array_equal(theta, before)


def _rotating_every_angle(squeezing, budget, gains, angles):
    # transfer_matrix with every angle copied out to a row, the scalar 0.0
    # too, so that push rotates by each of them
    stack = np.broadcast(*angles).shape
    shape = stack + (PORTS,)
    state = np.empty((PORTS,) + shape)
    state[...] = np.eye(PORTS).reshape((PORTS,) + (1,) * len(stack) + (PORTS,))
    rows = np.empty((len(angles),) + shape)
    for row, theta in zip(rows, angles):
        row[...] = np.asarray(theta)[..., None]
    out = np.empty((4,) + shape)
    push(state, squeezing, budget, gains, rows, out)
    return np.moveaxis(out, 0, -2)


mixed_angle = st.one_of(st.just(0.0), st.just(-0.0), angle, angle_arrays)


@settings(max_examples=200, deadline=None)
@given(budget=budgets(st.one_of(st.just(1.0), efficiency)),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0),
       angles=st.tuples(mixed_angle, mixed_angle, mixed_angle, mixed_angle))
def test_a_zero_angle_is_the_identity_rotation(budget, g_x, g_p, angles):
    # transfer_matrix hands a scalar zero angle to push as the identity; the
    # rotation by 0 it leaves out would give the same T
    sq = SqueezingParams.from_db(-3.0, 7.0)
    gains = GainSettings(g_x, g_p)
    assert np.array_equal(transfer_matrix(sq, budget, gains, angles),
                          _rotating_every_angle(sq, budget, gains, angles))


@settings(max_examples=100, deadline=None)
@given(budget=budgets(st.one_of(st.just(1.0), efficiency)),
       g_x=st.floats(min_value=0.0, max_value=2.0),
       g_p=st.floats(min_value=0.0, max_value=2.0),
       k=st.integers(0, 3), theta=angle,
       others=st.tuples(angle, angle, angle, angle))
def test_each_lock_angle_enters_through_one_rotation(budget, g_x, g_p, k, theta,
                                                     others):
    # along one angle, the others held anywhere, T = A + B cos + C sin, with
    # A, B and C read off T at 0, pi/2 and pi: what lock_curvatures rests on
    angles = list(others)
    angles[k] = np.array([0.0, math.pi / 2.0, math.pi, theta])
    t_0, t_half, t_pi, t = transfer_matrix(SqueezingParams.from_db(-3.0, 7.0),
                                           budget, GainSettings(g_x, g_p), angles)
    a = (t_0 + t_pi) / 2.0
    b = (t_0 - t_pi) / 2.0
    c = t_half - a
    fit = a + b * math.cos(theta) + c * math.sin(theta)
    assert np.all(np.abs(t - fit) <= 1e-14 * np.abs(t_0).max())


def test_lock_curvatures_match_a_second_difference():
    # half the second derivative of each output variance along each angle,
    # against a central difference of the variances at +-h
    sq = SqueezingParams.from_db(-3.0, 7.0)
    budget = EfficiencyBudget(xi1=0.9, xi4=0.95, alpha_ax=0.8, r_b=0.9)
    gains = GainSettings(0.9, 1.1)
    h = 1e-4
    steps = np.eye(4)[..., None] * (-h, 0.0, h)
    t = transfer_matrix(sq, budget, gains, tuple(steps))
    variance = (t * t).sum(axis=-1)
    second = (variance[:, 0] - 2.0 * variance[:, 1] + variance[:, 2]) / (2.0 * h * h)
    curvature = lock_curvatures(sq, budget, gains)
    assert curvature.shape == (4, 4)
    np.testing.assert_allclose(curvature, second, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", ["xi2", "xi3", "xi5", "alpha_ax", "alpha_ap", "alpha_v"])
def test_dead_feedforward_path_rejected(name):
    # a zero transmission from a sender detector to the verifier leaves the
    # displacement no finite gain, so no such budget can be built
    with pytest.raises(ValueError, match="feedforward"):
        EfficiencyBudget(**{name: 0.0})


@pytest.mark.parametrize("name", ["network", "oracle"])
def test_network_imports_no_closed_form(name):
    # the Monte Carlo built on network.py is the closed forms' independent
    # oracle, so neither it nor network may take anything from them beyond
    # parameter types
    closed_form = {"teleporter", "jitter"}
    owner = importlib.import_module(f"cvteleport.{name}")
    tree = ast.parse(Path(owner.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module is None):
            modules = {alias.name.split(".")[-1] for alias in node.names}
            assert not modules & closed_form, f"{name} imports {modules}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".")[-1]
            if module not in closed_form:
                continue
            source = importlib.import_module(f"cvteleport.{module}")
            for alias in node.names:
                value = getattr(source, alias.name)
                assert isinstance(value, type) and dataclasses.is_dataclass(value), \
                    f"{name} imports {alias.name} from {module}"
