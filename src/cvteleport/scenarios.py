"""Bundled reference scenarios with pinned expected values.

Each preset maps a typed parameter bundle to a table plus optional
pass/fail checks, so the command line, the test suite and interactive use
share one code path. Parameter bundles are plain frozen dataclasses;
overrides address fields with dotted keys (`budget.xi1=0.986`). A preset
that reads only some fields of its efficiency budget takes a narrowed
group of just those fields, so every key it offers moves an output. Sample
counts and the Monte Carlo switch are parameters like any other, so
`apply_overrides` is the one place that turns text into a run input.

Expected values carry a provenance tag: "experiment" for numbers read off
the reference measurements, "model" for values the noise budget predicts,
"formula" for exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, make_dataclass, \
    replace

from .epr import SqueezingParams, correlation_product, single_beam_variance, \
    sum_difference_variances
from .jitter import PhaseJitter, _jitter_weight, victor_lo_scan, \
    victor_variance_jitter
from .network import lock_curvatures
from .opo import BliiraTable, DetectionChain, OpoParams, back_propagate_to_epr, \
    double_pump_debit, escape_efficiency, parametric_gain, squeezing_vs_pump, \
    threshold, total_loss
from .oracle import ChainConfig, simulate_chain
from .properties import run_all
from .teleporter import CoherentAmplitude, EfficiencyBudget, GainSettings, \
    alice_variance, bob_field_variance, channel_cancellation_db, fidelity, \
    fit_channel_cancellation, spectral_densities, squeezing_from_victor_variance, \
    victor_variance
from .units import LN10, from_db, to_db

# the most points any sweep may take; a list this long is about 32 MB
MAX_GRID_POINTS = 10**6

# --- chain efficiency budgets used by the presets ---

# best-case efficiencies of the as-built chain
BUDGET_BEST = EfficiencyBudget(
    xi1=0.986, xi2=0.995, xi3=0.995, xi4=0.988, xi5=0.985,
    alpha_ax=0.988, alpha_ap=0.988, alpha_v=0.988, r_b=math.sqrt(0.99),
)
# budget holding during the long teleportation trace
BUDGET_TRACE = replace(BUDGET_BEST, xi2=0.990, xi3=0.990, xi4=0.980, xi5=0.975)
# budget used for the predicted-performance estimate
BUDGET_PREDICTED = replace(BUDGET_TRACE, xi1=0.985)
# budget of the gain-sweep characterization
BUDGET_GAIN_SWEEP = replace(BUDGET_BEST, xi1=0.985, xi2=0.994, xi3=0.994,
                            xi4=0.985, xi5=0.985)


def _budget_group(base: EfficiencyBudget, *names: str) -> type:
    """A frozen parameter group of the budget fields `names`, defaulting to
    base's values, for a preset that reads no other field: it offers no key
    that moves nothing. Its widen() fills in the other fields from base, and
    EfficiencyBudget checks every value when a group is built."""
    def widen(group) -> EfficiencyBudget:
        return replace(base, **{name: getattr(group, name) for name in names})

    return make_dataclass(
        "BudgetGroup", [(name, float, field(default=getattr(base, name)))
                        for name in names],
        frozen=True, namespace={"widen": widen, "__post_init__": widen,
                                "__doc__": f"Budget fields {', '.join(names)}."})


# at vacuum squeezing the x output variance is 1 + 2 g^2 / (xi2^2 alpha_ax),
# so a vacuum-input preset that prints x reads the sender's x arm alone
VacuumXBudget = _budget_group(BUDGET_BEST, "xi2", "alpha_ax")
GainSweepBudget = _budget_group(BUDGET_GAIN_SWEEP, "xi2", "alpha_ax")
# the same at both quadratures
VacuumBudget = _budget_group(BUDGET_BEST, "xi2", "xi3", "alpha_ax", "alpha_ap")
# the x quadrature at any squeezing: the p arm (xi3, alpha_ap) reaches no
# printed column
XBudget = _budget_group(BUDGET_BEST, "xi1", "xi2", "xi4", "xi5", "alpha_ax",
                        "alpha_v", "r_b")
# the field leaving the receiver: bob_field_variance strips the verifier
# (xi5, alpha_v)
ReceiverBudget = _budget_group(BUDGET_PREDICTED, "xi1", "xi2", "xi3", "xi4",
                               "alpha_ax", "alpha_ap", "r_b")


def pure_squeezing(degree_db: float) -> SqueezingParams:
    """Minimum-uncertainty squeezing with the squeezed quadrature at
    -degree_db dB re vacuum."""
    if degree_db < 0.0:
        raise ValueError(f"degree of squeezing must be >= 0 dB, got {degree_db!r}")
    return SqueezingParams.from_db(-degree_db, degree_db)


# --- result plumbing ---

@dataclass(frozen=True)
class RunOptions:
    """Run-wide options. The seed feeds numpy's generators, which take only
    non-negative integers, so it is checked here for every preset, sampled
    or not."""

    seed: int = 12345

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float
    tolerance: float
    source: str = "model"

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and abs(self.value - self.expected) <= self.tolerance


@dataclass(frozen=True)
class ScenarioResult:
    columns: tuple
    rows: tuple
    checks: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        for i, name in enumerate(self.columns):
            if name in self.columns[:i]:
                raise ValueError(f"two columns share the name {name!r}")

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    params_type: type
    runner: object


def format_float(value) -> str:
    """A float as the CSV writes it, at 10 significant digits."""
    return format(float(value), ".10g")


def _printed(value: float) -> float:
    return float(format_float(value))


def _linspace(start: float, stop: float, points: int) -> list:
    """numpy.linspace(start, stop, points) as a list of floats, bit for bit:
    k*step + start, with the last point set to stop."""
    if points > MAX_GRID_POINTS:
        raise ValueError(f"points must be at most {MAX_GRID_POINTS}")
    delta = stop - start
    div = points - 1
    step = delta / div if div > 0 else 0.0
    if step == 0.0:  # numpy's branch for one point or an underflowing step
        grid = [k / max(div, 1) * delta + start for k in range(points)]
    else:
        grid = [k * step + start for k in range(points)]
    if points > 1:
        grid[-1] = stop
    return grid


def _pump_grid_mw(pump_max_mw: float, step_mw: float) -> list:
    """numpy.arange(0.0, pump_max_mw + 1e-9, step_mw) for step_mw > 0 as a
    list of floats, bit for bit: ceil(stop/step) points k*step, or one when
    that ratio underflows."""
    stop = pump_max_mw + 1e-9
    count = stop / step_mw
    if count > MAX_GRID_POINTS:
        raise ValueError(f"pump_max_mw / step_mw gives more than "
                         f"{MAX_GRID_POINTS} pump points")
    if count == 0.0 and stop > 0.0:
        count = 1.0
    return [k * step_mw for k in range(math.ceil(count))]


def _status(*checks: Check) -> str:
    return "pass" if all(c.passed for c in checks) else "fail"


def _nothing_to_grade(name: str, remedy: str = "widen the sweep") -> ValueError:
    """An input that leaves a check no point to grade is bad input."""
    return ValueError(f"check {name!r} has no points to grade; {remedy}")


def _holds_everywhere(name: str, holds: list, source: str) -> Check:
    """1 when the condition holds at every point; an empty set raises."""
    if not holds:
        raise _nothing_to_grade(name)
    return Check(name, 1.0 if all(holds) else 0.0, 1.0, 0.0, source)


def _tag(value: float) -> str:
    """A number in a column name, '.' spelled 'p': 3.73 -> 3p73."""
    return format(value, "g").replace(".", "p")


def _matches(value: float, exact: float) -> bool:
    """value equals an exact closed form up to rounding, 1e-12 relative:
    10**(s/10) and exp(s ln10/10) differ by up to 2e-13 near the float
    range."""
    return math.isclose(value, exact, rel_tol=1e-12)


def _within_3se(name: str, within: int, compared: int) -> Check:
    """At least 95% of the compared Monte Carlo cells lie within 3 standard
    errors. Graded on the count, so exactly 95% passes: compared // 20 cells
    may miss. An empty comparison fails."""
    return Check(f"{name} within 3 standard errors (count)", float(within),
                 float(compared or 1), float(compared // 20), "model")


# --- parameter overrides ---

def _coerce(raw: str, current, key: str):
    """Parse one override. Every int parameter is a count (points or
    samples), so it must be at least 1; floats must be finite, and tuples
    non-empty lists of finite floats."""
    kind = type(current)
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind is int:
            value = int(raw)
            if value < 1:
                raise ValueError(f"expected a count of at least 1, got {value}")
            return value
        if kind in (float, tuple):
            parts = raw.split(",") if kind is tuple else [raw]
            values = tuple(float(part) for part in parts if part.strip())
            if not values or not all(math.isfinite(v) for v in values):
                raise ValueError(f"expected finite numbers, got {raw!r}")
            return values if kind is tuple else values[0]
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
    raise ValueError(f"cannot override {key!r} of type {kind.__name__} from text")


def _set_dotted(obj, path: list, raw: str, key: str):
    names = {f.name for f in fields(obj)}
    head = path[0]
    if head not in names:
        raise ValueError(
            f"unknown parameter {key!r}; available here: {', '.join(sorted(names))}"
        )
    current = getattr(obj, head)
    if len(path) == 1:
        if is_dataclass(current):
            raise ValueError(f"{key!r} is a parameter group; set one of its fields")
        return replace(obj, **{head: _coerce(raw, current, key)})
    if not is_dataclass(current):
        raise ValueError(f"{key!r}: {head!r} has no nested fields")
    return replace(obj, **{head: _set_dotted(current, path[1:], raw, key)})


def apply_overrides(params, overrides: dict):
    for key, raw in overrides.items():
        params = _set_dotted(params, key.split("."), raw, key)
    return params


# --- fig2: noise vs squeezing at the two stations ---

@dataclass(frozen=True)
class Fig2Params:
    start_db: float = 0.0
    stop_db: float = 10.0
    points: int = 41
    budget: XBudget = XBudget()
    oracle: bool = False  # add Monte Carlo columns
    samples: int = 100_000


def _run_fig2(p: Fig2Params, opt: RunOptions) -> ScenarioResult:
    columns = ["squeezing_db", "victor_ideal_db", "alice_ideal_db",
               "victor_db", "alice_db"]
    if p.oracle:
        columns += ["victor_mc_db", "victor_mc_se", "alice_mc_db", "alice_mc_se"]
    ideal = EfficiencyBudget.ideal()
    budget = p.budget.widen()
    gains = GainSettings()
    rows = []
    victor_ideal = []
    alice_ideal = []
    for i, s_db in enumerate(_linspace(p.start_db, p.stop_db, p.points)):
        sq = pure_squeezing(s_db)
        sigma_minus, sigma_plus = from_db(-s_db), from_db(s_db)
        v_ideal = victor_variance(sq, ideal, gains)[0]
        a_ideal = alice_variance(sq, ideal)[0]
        victor_ideal.append(_matches(v_ideal, 1.0 + 2.0 * sigma_minus))
        alice_ideal.append(_matches(a_ideal, 1.0 + (sigma_minus + sigma_plus - 2.0) / 4.0))
        row = [s_db, to_db(v_ideal), to_db(a_ideal),
               to_db(victor_variance(sq, budget, gains)[0]),
               to_db(alice_variance(sq, budget)[0])]
        if p.oracle:
            est = simulate_chain(ChainConfig(squeezing=sq, budget=budget,
                                             gains=gains, samples=p.samples,
                                             seed=opt.seed + i))
            # stderr is linear; delta method keeps the se columns in dB
            for estimate in (est.victor[0], est.alice[0]):
                row += [to_db(estimate.value),
                        10.0 / LN10 * estimate.stderr / estimate.value]
        rows.append(tuple(row))
    checks = [
        _holds_everywhere("ideal unit-gain verifier variance 1 + 2 sigma_minus",
                          victor_ideal, "formula"),
        _holds_everywhere("ideal sender variance 1 + (sigma_minus + sigma_plus - 2)/4",
                          alice_ideal, "formula"),
    ]
    if p.oracle:
        # the grid's rule, on the dB values as the CSV prints them, so a
        # reader grading the CSV gets the same z-scores
        col = columns.index
        z = [(_printed(row[col(f"{station}_mc_db")]) - _printed(row[col(f"{station}_db")]))
             / _printed(row[col(f"{station}_mc_se")])
             for row in rows for station in ("victor", "alice")]
        within = sum(abs(score) <= 3.0 for score in z)
        checks.append(_within_3se("Monte Carlo cells", within, len(z)))
    return ScenarioResult(tuple(columns), tuple(rows), tuple(checks))


# --- fig3: fidelity vs squeezing ---

@dataclass(frozen=True)
class Fig3Params:
    start_db: float = 0.0
    stop_db: float = 10.0
    points: int = 41
    budget: EfficiencyBudget = BUDGET_BEST


def _run_fig3(p: Fig3Params, opt: RunOptions) -> ScenarioResult:
    ideal = EfficiencyBudget.ideal()
    gains = GainSettings()
    rows = []
    for s_db in _linspace(p.start_db, p.stop_db, p.points):
        sq = pure_squeezing(s_db)
        f_ideal = fidelity(*victor_variance(sq, ideal, gains))
        f_real = fidelity(*victor_variance(sq, p.budget, gains))
        rows.append((s_db, f_ideal, f_real))
    # both ideal outputs are 1 + 2 sigma_minus; 1/2 at 0 dB, the classical bound
    checks = (_holds_everywhere(
        "ideal unit-gain fidelity 1/(1 + sigma_minus)",
        [_matches(f, 1.0 / (1.0 + from_db(-s_db))) for s_db, f, _ in rows],
        "formula"),)
    return ScenarioResult(("squeezing_db", "fidelity_ideal", "fidelity"),
                          tuple(rows), checks)


# --- fig4: fidelity vs visibility ---

@dataclass(frozen=True)
class Fig4Params:
    start: float = 0.80
    stop: float = 1.0
    points: int = 41
    squeezing_db: tuple = (0.0, 3.0, 6.0, 10.0)
    alpha: float = 0.988
    r_b: float = math.sqrt(0.99)


def _run_fig4(p: Fig4Params, opt: RunOptions) -> ScenarioResult:
    columns = ("visibility",) + tuple(f"fidelity_{_tag(s)}db" for s in p.squeezing_db)
    gains = GainSettings()
    rows = []
    for v in _linspace(p.start, p.stop, p.points):
        budget = EfficiencyBudget(xi1=v, xi2=v, xi3=v, xi4=v, xi5=v,
                                  alpha_ax=p.alpha, alpha_ap=p.alpha,
                                  alpha_v=p.alpha, r_b=p.r_b)
        row = [v]
        for s_db in p.squeezing_db:
            sq = pure_squeezing(s_db)
            row.append(fidelity(*victor_variance(sq, budget, gains)))
        rows.append(tuple(row))
    checks = [_holds_everywhere("fidelity bounded by 1",
                                [f <= 1.0 for row in rows for f in row[1:]],
                                "formula")]
    if 0.0 in p.squeezing_db:
        # without squeezing each unit-gain output is 1 + 2/(xi_a^2 alpha_a) >= 3,
        # which rounds to 1/2 + 1e-16 at unit visibility and efficiency
        k = 1 + p.squeezing_db.index(0.0)
        checks.append(_holds_everywhere(
            "fidelity at most 1/2 without squeezing",
            [row[k] <= 0.5 or _matches(row[k], 0.5) for row in rows], "formula"))
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- fig7: verifier LO scan under EPR-phase jitter ---

@dataclass(frozen=True)
class Fig7Params:
    minus_db: float = -3.0
    plus_db: float = 7.0
    theta_e_deg: tuple = (0.0, 2.0, 4.0, 6.0)
    points: int = 181


def _run_fig7(p: Fig7Params, opt: RunOptions) -> ScenarioResult:
    # LO phases 0, pi and 2 pi all sample one quadrature, so a scan of 3
    # points or fewer would pass the zero-jitter flatness check vacuously;
    # from 4 points on, a step below pi reaches a second quadrature
    if p.points < 4:
        raise ValueError(f"points must be at least 4 for an LO scan that "
                         f"samples two quadratures, got {p.points}")
    sq = SqueezingParams.from_db(p.minus_db, p.plus_db)
    theta_v = _linspace(0.0, 2.0 * math.pi, p.points)
    columns = ("theta_v_deg",) + tuple(f"noise_db_theta_e_{_tag(d)}deg"
                                       for d in p.theta_e_deg)
    scans = {}
    for deg in p.theta_e_deg:
        jit = PhaseJitter.from_degrees(theta_e=deg)
        scans[deg] = [to_db(v) for v in victor_lo_scan(sq, jit, theta_v)]
    rows = tuple(
        (math.degrees(tv),) + tuple(scans[d][i] for d in p.theta_e_deg)
        for i, tv in enumerate(theta_v)
    )
    checks = []
    for deg in p.theta_e_deg:
        ptp = max(scans[deg]) - min(scans[deg])
        if deg == 0.0:
            checks.append(Check("scan flat at zero jitter (peak-to-peak dB)",
                                ptp, 0.0, 1e-9, "formula"))
        if deg == 6.0:
            checks.append(Check("peak-to-peak at 6 deg EPR-phase jitter (dB)",
                                ptp, 0.21, 0.03, "experiment"))
    # the law's eight weights (lock x quadrature), the EPR phase's 4x the
    # receiver's in x among them, against the network's curvatures
    # w (sigma_plus - sigma_minus); at vacuum those are 0 up to rounding
    spread = sq.sigma_plus - sq.sigma_minus
    curvature = lock_curvatures(sq, EfficiencyBudget.ideal(), GainSettings())
    deviation = max(abs(c - spread * w)
                    for k, lock in enumerate(fields(PhaseJitter))
                    for c, w in zip(curvature[k, 2:], _jitter_weight(PhaseJitter(**{lock.name: 1.0}))))
    checks.append(Check("jitter law weights vs network curvatures (max deviation)",
                        float(deviation), 0.0, 1e-12 * max(spread, 1.0), "formula"))
    return ScenarioResult(columns, rows, tuple(checks))


# --- opo-gain: parametric gain and threshold ---

@dataclass(frozen=True)
class OpoGainParams:
    t_coupler: float = 0.10
    e_nl: float = 0.021
    l_passive: float = 0.003
    flat_extra_loss: float = 0.017
    pump_max_mw: float = 165.0
    step_mw: float = 5.0


def _run_opo_gain(p: OpoGainParams, opt: RunOptions) -> ScenarioResult:
    opo = OpoParams(t_coupler=p.t_coupler, e_nl=p.e_nl, l_passive=p.l_passive,
                    bliira=BliiraTable.flat(p.flat_extra_loss))
    if p.step_mw <= 0.0:
        raise ValueError(f"step_mw must be > 0, got {p.step_mw!r}")
    rows = []
    gains = []
    for pump_mw in _pump_grid_mw(p.pump_max_mw, p.step_mw):
        pump = pump_mw * 1e-3
        g = parametric_gain(opo, pump)
        gains.append(g)
        rows.append((pump * 1e3, total_loss(opo, pump), threshold(opo, pump) * 1e3,
                     g, escape_efficiency(opo, pump)))
    p_t = threshold(opo, 0.0)
    checks = [
        Check("oscillation threshold (mW)", p_t * 1e3, 171.0, 1.0, "formula"),
        Check("parametric gain at quarter threshold", parametric_gain(opo, p_t / 4.0),
              4.0, 1e-9, "formula"),
        _holds_everywhere("gain monotone increasing with pump",
                          [b > a for a, b in zip(gains, gains[1:])], "formula"),
        Check("escape efficiency at full loss", escape_efficiency(opo, p_t / 2.0),
              p.t_coupler / (p.t_coupler + p.l_passive + p.flat_extra_loss),
              1e-12, "formula"),
    ]
    notes = ("measured oscillation threshold was about 190 mW; the formula value "
             "is reported here and the difference tracks the loss uncertainty",)
    return ScenarioResult(("pump_mw", "total_loss", "threshold_mw", "gain", "escape"),
                          tuple(rows), tuple(checks), notes)


# --- fig10-squeezing: detected squeezing vs pump ---

@dataclass(frozen=True)
class Fig10Params:
    t_coupler: float = 0.10
    e_nl: float = 0.019
    l_passive: float = 0.003
    propagation_loss: float = 0.057
    visibility: float = 0.990
    quantum_efficiency: float = 0.988
    pump_min_mw: float = 2.5
    pump_max_mw: float = 155.0
    points: int = 62


def _run_fig10(p: Fig10Params, opt: RunOptions) -> ScenarioResult:
    opo = OpoParams(t_coupler=p.t_coupler, e_nl=p.e_nl, l_passive=p.l_passive)
    chain = DetectionChain.from_intensity_loss(p.propagation_loss, p.visibility,
                                               p.quantum_efficiency)
    rows = []
    for pump_mw in _linspace(p.pump_min_mw, p.pump_max_mw, p.points):
        pump = pump_mw * 1e-3
        sq = squeezing_vs_pump(opo, chain, pump)
        rows.append((pump * 1e3, sq.minus_db, sq.plus_db,
                     total_loss(opo, pump), escape_efficiency(opo, pump)))
    minus = [r[1] for r in rows]
    plus = [r[2] for r in rows]
    mid = min(range(len(rows)), key=lambda i: abs(rows[i][0] - 100.0))
    saturation = "squeezing saturates at high pump (dB change 100 mW to max)"
    checks = [
        Check("high-pump squeezing level (dB)", minus[-1], -5.25, 1.75, "model"),
        Check(saturation, abs(minus[-1] - minus[mid]), 0.0, 0.8, "model"),
        _holds_everywhere("anti-squeezing monotone increasing with pump",
                          [b > a for a, b in zip(plus, plus[1:])], "formula"),
    ]
    # the saturation check grades the last pump against the point nearest
    # 100 mW; unless the last pump lies above it (a short or descending
    # sweep), there is nothing to grade
    if rows[-1][0] <= rows[mid][0]:
        raise _nothing_to_grade(saturation, "the sweep must end above its "
                                "point nearest 100 mW")
    return ScenarioResult(("pump_mw", "squeezing_db", "antisqueezing_db",
                           "total_loss", "escape"), tuple(rows), tuple(checks))


# --- fig12-gain-sweep: verifier spectral density vs feedforward gain ---

@dataclass(frozen=True)
class Fig12Params:
    gain_min: float = 0.1
    gain_max: float = 2.0
    points: int = 39
    input_total_db: tuple = (7.0, 14.8, 24.8)
    budget: GainSweepBudget = GainSweepBudget()


def _run_fig12(p: Fig12Params, opt: RunOptions) -> ScenarioResult:
    for key in ("gain_min", "gain_max"):
        if getattr(p, key) <= 0.0:
            raise ValueError(f"{key} must be > 0 for the gain_db column, "
                             f"20 log10(gain), got {getattr(p, key)!r}")
    columns = ("gain", "gain_db", "victor_db_vacuum") \
        + tuple(f"victor_db_in{_tag(level)}db" for level in p.input_total_db)
    sq = SqueezingParams()
    inputs = [CoherentAmplitude()] \
        + [CoherentAmplitude.from_total_db(level) for level in p.input_total_db]
    budget = p.budget.widen()
    rows = []
    linear = {k: [] for k in range(len(inputs))}
    for g in _linspace(p.gain_min, p.gain_max, p.points):
        settings = GainSettings(g_x=g, g_p=g)
        row = [g, 20.0 * math.log10(g)]
        for k, beta in enumerate(inputs):
            dens = spectral_densities(beta, sq, budget, settings)
            linear[k].append(dens.victor_x)
            row.append(to_db(dens.victor_x))
        rows.append(tuple(row))
    checks = []
    for k, name in enumerate(("vacuum",) + tuple(format(l, "g") for l in p.input_total_db)):
        series = linear[k]
        second = [series[i + 1] - 2.0 * series[i] + series[i - 1]
                  for i in range(1, len(series) - 1)]
        checks.append(_holds_everywhere(f"verifier level convex in gain (input {name})",
                                        [d >= -1e-9 for d in second], "formula"))
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- fidelity-anchors: pinned variance/fidelity points ---

@dataclass(frozen=True)
class FidelityAnchorsParams:
    as_built: VacuumBudget = VacuumBudget()
    trace: EfficiencyBudget = BUDGET_TRACE
    predicted: ReceiverBudget = ReceiverBudget()
    measured_victor_db: float = 3.54
    trace_antisqueezing_db: float = 7.0
    predicted_minus_db: float = -3.97
    predicted_plus_db: float = 7.0


def _run_fidelity_anchors(p: FidelityAnchorsParams, opt: RunOptions) -> ScenarioResult:
    ideal = EfficiencyBudget.ideal()
    gains = GainSettings()
    vac = SqueezingParams()
    rows = []
    checks = []

    def add_case(case, sigma_x, sigma_p, sigma_ref_db, sigma_tol_db,
                 fid_ref, fid_tol, source):
        sigma_db = to_db(sigma_x)
        fid = fidelity(sigma_x, sigma_p)
        c_sigma = Check(f"{case}: output variance (dB)", sigma_db,
                        sigma_ref_db, sigma_tol_db, source)
        c_fid = Check(f"{case}: fidelity", fid, fid_ref, fid_tol, source)
        checks.extend([c_sigma, c_fid])
        rows.append((case, sigma_db, sigma_ref_db, sigma_tol_db,
                     fid, fid_ref, fid_tol, _status(c_sigma, c_fid)))
        return sigma_db, fid

    # classical bound of the unit-gain chain: exactly 3 vacuum units
    sx, sp = victor_variance(vac, ideal, gains)
    checks.append(Check("classical-ideal: variance (vacuum units)", sx, 3.0, 0.0, "formula"))
    add_case("classical-ideal", sx, sp, 4.77, 0.01, 0.500, 0.001, "formula")

    add_case("classical-as-built", *victor_variance(vac, p.as_built.widen(), gains),
             4.84, 0.02, 0.494, 0.002, "model")

    measured = from_db(p.measured_victor_db)
    add_case("verifier-measured", measured, measured,
             p.measured_victor_db, 1e-9, 0.61, 0.005, "experiment")

    # strip the verifier chain off the measured trace: infer the squeezing
    # behind it, then re-evaluate at the receiver with calibrated unit gain
    inferred = squeezing_from_victor_variance(
        measured, p.trace, from_db(p.trace_antisqueezing_db))
    add_case("receiver-corrected", *bob_field_variance(inferred, p.trace),
             3.47, 0.03, 0.62, 0.005, "experiment")

    predicted_sq = SqueezingParams.from_db(p.predicted_minus_db, p.predicted_plus_db)
    add_case("predicted-entanglement", *bob_field_variance(predicted_sq, p.predicted.widen()),
             2.82, 0.05, 0.69, 0.005, "experiment")

    columns = ("case", "sigma_db", "sigma_ref_db", "sigma_tol_db",
               "fidelity", "fidelity_ref", "fidelity_tol", "status")
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- epr-backprop: detected squeezing referred to the entangling beamsplitter ---

@dataclass(frozen=True)
class EprBackpropParams:
    detected_minus_db: float = -3.73
    detected_plus_db: float = 6.9
    propagation: float = 1.0
    visibility: float = 0.972
    quantum_efficiency: float = 0.988
    xi_epr: float = 0.985


def _run_epr_backprop(p: EprBackpropParams, opt: RunOptions) -> ScenarioResult:
    detected = SqueezingParams.from_db(p.detected_minus_db, p.detected_plus_db)
    chain = DetectionChain(p.propagation, p.visibility, p.quantum_efficiency)
    at_epr = back_propagate_to_epr(detected, chain, p.xi_epr)
    c_minus = Check("squeezed variance at the entangling beamsplitter (dB)",
                    at_epr.minus_db, -3.97, 0.05, "experiment")
    c_plus = Check("anti-squeezed variance at the entangling beamsplitter (dB)",
                   at_epr.plus_db, 7.0, 0.1, "experiment")
    rows = tuple(
        (quantity, detected_db, check.value, check.expected, check.tolerance,
         _status(check))
        for quantity, detected_db, check in (
            ("squeezed", p.detected_minus_db, c_minus),
            ("anti_squeezed", p.detected_plus_db, c_plus)))
    columns = ("quantity", "detected_db", "inferred_db", "reference_db",
               "tolerance_db", "status")
    return ScenarioResult(columns, rows, (c_minus, c_plus))


# --- channel-cancellation: balanced classical channels vs offset ---

# the measured residual at one offset off the fit points: the check's pass
# rule, so no override may move it
PROBE_OFFSET_HZ = 20e3
PROBE_REF_DB = -9.0
PROBE_TOL_DB = 1.0


@dataclass(frozen=True)
class ChannelCancellationParams:
    floor_db: float = -25.0
    ref_db: float = -20.0
    ref_offset_hz: float = 5e3
    max_offset_hz: float = 25e3
    points: int = 26


def _run_channel_cancellation(p: ChannelCancellationParams,
                              opt: RunOptions) -> ScenarioResult:
    epsilon, delay = fit_channel_cancellation(p.floor_db, p.ref_db, p.ref_offset_hz)
    rows = []
    for offset in _linspace(0.0, p.max_offset_hz, p.points):
        rows.append((offset * 1e-3, channel_cancellation_db(epsilon, delay, offset)))
    checks = [
        Check("cancellation at zero offset (dB)",
              channel_cancellation_db(epsilon, delay, 0.0),
              p.floor_db, 1e-9, "experiment"),
        Check("cancellation at the fit reference (dB)",
              channel_cancellation_db(epsilon, delay, p.ref_offset_hz),
              p.ref_db, 1e-9, "formula"),
        Check(f"cancellation at {PROBE_OFFSET_HZ * 1e-3:g} kHz (dB)",
              channel_cancellation_db(epsilon, delay, PROBE_OFFSET_HZ),
              PROBE_REF_DB, PROBE_TOL_DB, "experiment"),
    ]
    notes = (f"fitted imbalance epsilon = {epsilon:.5f}, "
             f"differential delay = {delay * 1e6:.3f} us",)
    return ScenarioResult(("offset_khz", "cancellation_db"), tuple(rows),
                          tuple(checks), notes)


# --- spectral-ratios: signal-plus-noise anchors at both stations ---

@dataclass(frozen=True)
class SpectralRatiosParams:
    budget: VacuumXBudget = VacuumXBudget()
    large_power: float = 1e6
    input_total_db: float = 24.9
    classical_total: float = 354.8


def _run_spectral_ratios(p: SpectralRatiosParams, opt: RunOptions) -> ScenarioResult:
    ideal = EfficiencyBudget.ideal()
    gains = GainSettings()
    vac = SqueezingParams()
    rows = []
    checks = []

    def add(case, value, ref, tol, source, unit):
        check = Check(case, value, ref, tol, source)
        checks.append(check)
        rows.append((case, value, ref, tol, unit, _status(check)))

    big = spectral_densities(CoherentAmplitude(p.large_power), vac, ideal, gains)
    add("verifier re sender, large signal (dB)",
        to_db(big.victor_x / big.alice_x), 3.01, 0.01, "model", "db")

    quiet = spectral_densities(CoherentAmplitude(), vac, ideal, gains)
    add("verifier re sender, vacuum input (linear)",
        quiet.victor_x / quiet.alice_x, 3.0, 1e-12, "formula", "linear")

    probe = spectral_densities(CoherentAmplitude.from_total_db(p.input_total_db),
                               vac, ideal, gains)
    add("sender level for the reference input (dB)",
        to_db(probe.alice_x), 21.9, 0.05, "experiment", "db")

    # squeezing drops the chain variance from 3 to 2.3 while the signal stays
    signal = CoherentAmplitude(p.classical_total - 3.0)
    squeezed = SqueezingParams.from_variances(0.65, 1.6)
    on = spectral_densities(signal, squeezed, ideal, gains)
    add("verifier level with the correlations on (linear)",
        on.victor_x, 354.1, 0.05, "experiment", "linear")

    add("verifier vacuum-input level, as-built chain (dB)",
        to_db(victor_variance(vac, p.budget.widen(), gains)[0]), 4.8, 0.06,
        "experiment", "db")

    columns = ("case", "value", "reference", "tolerance", "unit", "status")
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- fig16: predicted fidelity vs pump ---

@dataclass(frozen=True)
class Fig16Params:
    t_coupler: float = 0.10
    e_nl: float = 0.019
    l_passive: float = 0.003
    propagation_loss: float = 0.057
    visibility: float = 0.990
    quantum_efficiency: float = 0.988
    xi_epr: float = 0.985
    double_pump_debit_db: float = 0.3
    budget: ReceiverBudget = ReceiverBudget()
    pump_min_mw: float = 0.0
    pump_max_mw: float = 150.0
    points: int = 31


def _run_fig16(p: Fig16Params, opt: RunOptions) -> ScenarioResult:
    opo = OpoParams(t_coupler=p.t_coupler, e_nl=p.e_nl, l_passive=p.l_passive)
    chain = DetectionChain.from_intensity_loss(p.propagation_loss, p.visibility,
                                               p.quantum_efficiency)
    budget = p.budget.widen()
    rows = []
    for pump in _linspace(p.pump_min_mw, p.pump_max_mw, p.points):
        detected = squeezing_vs_pump(opo, chain, pump * 1e-3)
        derated = double_pump_debit(detected, p.double_pump_debit_db)
        at_epr = back_propagate_to_epr(derated, chain, p.xi_epr)
        sw_x, sw_p = bob_field_variance(at_epr, budget)
        rows.append((pump, detected.minus_db, detected.plus_db,
                     at_epr.minus_db, at_epr.plus_db, to_db(sw_x),
                     fidelity(sw_x, sw_p)))
    fid = [r[6] for r in rows]
    beyond = [f for r, f in zip(rows, fid) if r[0] >= 10.0]
    checks = [
        _holds_everywhere("fidelity beats the classical bound beyond 10 mW pump",
                          [f > 0.5 for f in beyond], "model"),
        _holds_everywhere("fidelity bounded by 1", [f <= 1.0 for f in fid], "formula"),
    ]
    columns = ("pump_mw", "detected_squeezing_db", "detected_antisqueezing_db",
               "epr_minus_db", "epr_plus_db", "sigma_w_db", "fidelity")
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- epr-correlations: two-mode variances vs squeezing ---

@dataclass(frozen=True)
class EprCorrelationsParams:
    start_db: float = 0.0
    stop_db: float = 10.0
    points: int = 21


def _run_epr_correlations(p: EprCorrelationsParams, opt: RunOptions) -> ScenarioResult:
    rows = []
    for s_db in _linspace(p.start_db, p.stop_db, p.points):
        sq = pure_squeezing(s_db)
        (x_minus, p_plus), (x_plus, p_minus) = sum_difference_variances(sq)
        rows.append((s_db, x_minus, x_plus, p_plus, p_minus,
                     to_db(single_beam_variance(sq)), correlation_product(sq)))
    witness = [r[6] for r in rows if r[0] > 0.0]
    (vacuum_x_minus, _), _ = sum_difference_variances(SqueezingParams())
    checks = [
        Check("vacuum sum/difference variances", vacuum_x_minus, 2.0, 1e-12,
              "formula"),
        _holds_everywhere("witness below the separable bound once squeezed",
                          [w < 4.0 for w in witness], "formula"),
    ]
    columns = ("squeezing_db", "x_minus_var", "x_plus_var", "p_plus_var",
               "p_minus_var", "single_beam_db", "witness")
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- oracle-grid: Monte Carlo vs closed forms over the acceptance grid ---

@dataclass(frozen=True)
class OracleGridParams:
    samples: int = 1_000_000


def grid_configs(params: OracleGridParams, seed: int):
    """The acceptance grid: 27 loss-chain configs (squeezing x budget x gain)
    plus 5 jitter configs on the ideal chain."""
    n = params.samples
    squeezings = [
        ("vacuum", SqueezingParams()),
        ("3db_7db", SqueezingParams.from_db(-3.0, 7.0)),
        ("3p73db_6p9db", SqueezingParams.from_db(-3.73, 6.9)),
    ]
    budgets = [
        ("ideal", EfficiencyBudget.ideal()),
        ("best", BUDGET_BEST),
        ("trace", BUDGET_TRACE),
    ]
    gain_values = [0.8, 1.0, 1.2]
    configs = []
    index = 0
    for sq_label, sq in squeezings:
        for b_label, budget in budgets:
            for g in gain_values:
                label = f"{sq_label}/{b_label}/g{format(g, 'g')}"
                configs.append((label, ChainConfig(
                    squeezing=sq, budget=budget, gains=GainSettings(g_x=g, g_p=g),
                    samples=n, seed=seed + index)))
                index += 1
    jitter_sets = [
        (6.0, 0.0, 0.0, 0.0),
        (0.0, 3.0, 3.0, 3.0),
        (2.0, 0.0, 0.0, 4.0),
        (2.0, 2.0, 2.0, 2.0),
        (4.0, 2.0, 3.0, 5.0),
    ]
    sq = SqueezingParams.from_db(-3.0, 7.0)
    for degs in jitter_sets:
        label = "jitter_e{0:g}_ax{1:g}_ap{2:g}_b{3:g}".format(*degs)
        configs.append((label, ChainConfig(
            squeezing=sq, jitter=PhaseJitter.from_degrees(*degs),
            samples=n, seed=seed + index)))
        index += 1
    return configs


def closed_form_reference(config: ChainConfig) -> tuple:
    """Closed forms the estimates should converge on, where they exist, as
    (alice, victor), each an (x, p) pair like the estimates'.

    Without jitter the chain variance and sender variance are exact for any
    budget and gains. With jitter only the ideal-budget unit-gain output
    variance has a (quadratic) closed form, which raises beyond
    SMALL_ANGLE_LIMIT; sender references are omitted there. A pair with no
    reference is (None, None).
    """
    alice = victor = (None, None)
    if config.jitter is None:
        alice = alice_variance(config.squeezing, config.budget)
        victor = victor_variance(config.squeezing, config.budget, config.gains)
    elif config.budget == EfficiencyBudget() and config.gains == GainSettings():
        victor = victor_variance_jitter(config.squeezing, config.jitter)
    return alice, victor


def _run_oracle_grid(p: OracleGridParams, opt: RunOptions) -> ScenarioResult:
    configs = grid_configs(p, opt.seed)
    rows = []
    within = 0
    compared = 0
    for label, config in configs:
        est = simulate_chain(config)
        ref_alice, ref_victor = closed_form_reference(config)
        for observable, estimate, reference in zip(
                ("sigma_v_x", "sigma_v_p", "sigma_a_x", "sigma_a_p"),
                est.victor + est.alice, ref_victor + ref_alice):
            if reference is None:
                continue
            z = (estimate.value - reference) / estimate.stderr
            ok = abs(z) <= 3.0
            compared += 1
            within += ok
            rows.append((label, observable, estimate.value, estimate.stderr,
                         reference, z, 1 if ok else 0))
    checks = [
        _within_3se("cells", within, compared),
        Check("compared cells", float(compared), 118.0, 0.0, "formula"),
    ]
    columns = ("config", "observable", "estimate", "stderr", "reference",
               "z_score", "within_3se")
    return ScenarioResult(columns, tuple(rows), tuple(checks))


# --- properties: randomized identity checks ---

@dataclass(frozen=True)
class PropertiesParams:
    samples: int = 1000  # cases per property


def _run_properties(p: PropertiesParams, opt: RunOptions) -> ScenarioResult:
    results = run_all(seed=opt.seed, cases=p.samples)
    rows = []
    checks = []
    for result in results:
        check = Check(f"{result.name} failures", float(result.failures), 0.0,
                      0.0, "model")
        checks.append(check)
        rows.append((result.name, result.cases, result.failures,
                     _status(check)))
    notes = tuple(f"{result.name}: {result.note}" for result in results
                  if not result.passed)
    return ScenarioResult(("property", "cases", "failures", "status"),
                          tuple(rows), tuple(checks), notes)


# --- registry ---

PRESETS = {
    preset.name: preset for preset in (
        Preset("fig2", "station noise vs squeezing, ideal and as-built chains",
               Fig2Params, _run_fig2),
        Preset("fig3", "teleportation fidelity vs squeezing",
               Fig3Params, _run_fig3),
        Preset("fig4", "fidelity vs chain visibility at fixed squeezing",
               Fig4Params, _run_fig4),
        Preset("fig7", "verifier noise vs LO phase under EPR-phase jitter",
               Fig7Params, _run_fig7),
        Preset("opo-gain", "parametric gain, threshold and escape vs pump",
               OpoGainParams, _run_opo_gain),
        Preset("fig10-squeezing", "detected squeezing and anti-squeezing vs pump",
               Fig10Params, _run_fig10),
        Preset("fig12-gain-sweep",
               "verifier spectral density vs feedforward gain and input power",
               Fig12Params, _run_fig12),
        Preset("fidelity-anchors", "pinned variance and fidelity anchor points",
               FidelityAnchorsParams, _run_fidelity_anchors),
        Preset("epr-backprop",
               "detected squeezing referred back to the entangling beamsplitter",
               EprBackpropParams, _run_epr_backprop),
        Preset("channel-cancellation",
               "residual of the balanced classical channels vs offset frequency",
               ChannelCancellationParams, _run_channel_cancellation),
        Preset("spectral-ratios", "sender and verifier signal-plus-noise anchors",
               SpectralRatiosParams, _run_spectral_ratios),
        Preset("fig16-fidelity-vs-pump",
               "predicted fidelity vs pump through the squeezing budget",
               Fig16Params, _run_fig16),
        Preset("epr-correlations", "two-mode correlation variances vs squeezing",
               EprCorrelationsParams, _run_epr_correlations),
        Preset("oracle-grid",
               "Monte Carlo vs closed-form agreement over the acceptance grid",
               OracleGridParams, _run_oracle_grid),
        Preset("properties", "randomized identity checks over the core formulas",
               PropertiesParams, _run_properties),
    )
}


def list_presets():
    return [PRESETS[name] for name in sorted(PRESETS)]


def get_preset(name: str) -> Preset:
    preset = PRESETS.get(name)
    if preset is None:
        available = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown scenario {name!r}; available presets: {available}")
    return preset


def run_preset(name: str, options: RunOptions = RunOptions(),
               overrides: dict | None = None) -> ScenarioResult:
    preset = get_preset(name)
    params = preset.params_type()
    if overrides:
        params = apply_overrides(params, overrides)
    return preset.runner(params, options)
