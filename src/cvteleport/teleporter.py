"""Closed-form noise and fidelity budget of the lossy teleportation chain.

Chain layout: the sender (Alice) mixes the input with EPR beam 1 on a
balanced beamsplitter and measures x on one port, p on the other; two
classical gain channels carry the photocurrents to the receiver (Bob), who
displaces EPR beam 2 on a highly reflective beamsplitter; a verifying
station (Victor) measures the output with its own homodyne. Every mode
overlap (visibility xi) and photodiode quantum efficiency alpha enters as
an amplitude factor with a vacuum admixture, eta = sqrt(alpha).

All variances are in vacuum units (vacuum = 1); see units.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .epr import SqueezingParams
from .units import check_unit_interval, from_db, to_db


@dataclass(frozen=True)
class EfficiencyBudget:
    """Amplitude efficiencies of the full chain.

    xi1: input / EPR-beam-1 mode overlap at the sender's beamsplitter
    xi2, xi3: sender homodyne visibilities (x and p arms)
    xi4: EPR beam 2 propagation overlap to the receiver
    xi5: verifier homodyne visibility
    alpha_*: photodiode quantum efficiencies (intensity); eta = sqrt(alpha)
    r_b: amplitude reflectivity of the receiver's displacement beamsplitter
        for EPR beam 2. The rest of that port, 1 - r_b**2, is vacuum: the
        displacement beam's transmission (0.1 on the 99/1 splitter) and any
        extra receiver loss enter only through it. The ideal chain takes
        r_b = 1 (displacement limit).
    """

    xi1: float = 1.0
    xi2: float = 1.0
    xi3: float = 1.0
    xi4: float = 1.0
    xi5: float = 1.0
    alpha_ax: float = 1.0
    alpha_ap: float = 1.0
    alpha_v: float = 1.0
    r_b: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            check_unit_interval(f.name, getattr(self, f.name))

    @property
    def eta_ax(self) -> float:
        return math.sqrt(self.alpha_ax)

    @property
    def eta_ap(self) -> float:
        return math.sqrt(self.alpha_ap)

    @property
    def eta_v(self) -> float:
        return math.sqrt(self.alpha_v)

    @classmethod
    def ideal(cls):
        return cls()


@dataclass(frozen=True)
class GainSettings:
    """Classical feedforward gains, one per quadrature channel.

    g_x, g_p are normalized end-to-end gains: g = 1 means the verifier sees
    the input amplitude reproduced exactly.
    """

    g_x: float = 1.0
    g_p: float = 1.0

    def __post_init__(self):
        if self.g_x < 0.0 or self.g_p < 0.0:
            raise ValueError("normalized gains must be >= 0")


def _sender_arm(budget: EfficiencyBudget, quad: str):
    if quad == "x":
        return budget.xi2, budget.eta_ax
    if quad == "p":
        return budget.xi3, budget.eta_ap
    raise ValueError(f"quad must be 'x' or 'p', got {quad!r}")


def _chain_coefficients(budget: EfficiencyBudget, gains: GainSettings, quad: str):
    """(base, c_minus, c_plus) of the verifier variance
    base + c_minus * sigma_minus + c_plus * sigma_plus."""
    g = gains.g_x if quad == "x" else gains.g_p
    xi_a, eta_a = _sender_arm(budget, quad)
    if xi_a == 0.0 or eta_a == 0.0:
        raise ValueError(f"sender {quad} arm has zero efficiency, variance diverges")
    epr = budget.r_b * budget.xi4 * budget.xi5 * budget.eta_v
    sig = g * budget.xi1
    base = (1.0 - epr * epr - sig * sig
            + 2.0 * g * g / (xi_a * xi_a * eta_a * eta_a))
    return base, 0.5 * (sig + epr) ** 2, 0.5 * (sig - epr) ** 2


def victor_variance(squeezing: SqueezingParams, budget: EfficiencyBudget,
                    gains: GainSettings = GainSettings(), quad: str = "x") -> float:
    """Verifier quadrature variance of the teleported output.

    Exact for the Gaussian chain at fixed lock angles. The surviving EPR
    correlation suppresses the squeezed-quadrature term with weight
    (g xi1 + r_b xi4 xi5 eta_v)^2 / 2 while the anti-squeezed quadrature
    leaks with weight (g xi1 - r_b xi4 xi5 eta_v)^2 / 2; at unit gain on the
    ideal chain the leak cancels and the classical bound is 3 vacuum units.
    """
    base, c_minus, c_plus = _chain_coefficients(budget, gains, quad)
    return base + c_minus * squeezing.sigma_minus + c_plus * squeezing.sigma_plus


def alice_variance(squeezing: SqueezingParams, budget: EfficiencyBudget,
                   quad: str = "x") -> float:
    """Sender homodyne variance: shot noise plus half the EPR beam's excess.

    Shot-noise limited without squeezing for any efficiencies; rises with
    squeezing because the EPR beam mixed into the measurement is itself
    noisy, (sigma_minus + sigma_plus)/2 >= 1.
    """
    xi_a, eta_a = _sender_arm(budget, quad)
    excess = squeezing.sigma_minus + squeezing.sigma_plus - 2.0
    return 1.0 + 0.25 * excess * (budget.xi1 * xi_a * eta_a) ** 2


@dataclass(frozen=True)
class CoherentAmplitude:
    """Coherent excitation at the analysis frequency.

    power is |beta|^2 in vacuum units, equal to the squared mean quadrature
    vector mx^2 + mp^2 with (mx, mp) = sqrt(power) * (cos phase, sin phase).
    """

    power: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.power < 0.0:
            raise ValueError(f"power must be >= 0, got {self.power!r}")
        object.__setattr__(self, "phase", self.phase % (2.0 * math.pi))

    @property
    def mean_x(self) -> float:
        return math.sqrt(self.power) * math.cos(self.phase)

    @property
    def mean_p(self) -> float:
        return math.sqrt(self.power) * math.sin(self.phase)

    @classmethod
    def from_total_db(cls, total_db: float):
        """From a measured total spectral density (signal + vacuum floor)."""
        power = from_db(total_db) - 1.0
        if power < 0.0:
            raise ValueError(f"total level {total_db!r} dB sits below the vacuum floor")
        return cls(power)


def fidelity(sigma_x: float, sigma_p: float,
             beta_in: CoherentAmplitude = CoherentAmplitude(),
             beta_out: CoherentAmplitude | None = None) -> float:
    """Teleportation fidelity of a coherent input against the Gaussian output.

    F = (2/sigma_q) * exp(-(2/sigma_q) |beta_out - beta_in|^2) with
    sigma_q = sqrt((1 + sigma_x)(1 + sigma_p)). The amplitude mismatch in
    vacuum units is |mean-vector difference|^2 / 4; matched amplitudes make
    the exponential 1. Unit variances with matched amplitude give F = 1;
    the best classical chain (3 vacuum units) gives 1/2.
    """
    if sigma_x <= 0.0 or sigma_p <= 0.0:
        raise ValueError("output variances must be positive")
    sigma_q = math.sqrt((1.0 + sigma_x) * (1.0 + sigma_p))
    if beta_out is None:
        beta_out = beta_in
    dx = beta_out.mean_x - beta_in.mean_x
    dp = beta_out.mean_p - beta_in.mean_p
    mismatch = 0.25 * (dx * dx + dp * dp)
    return (2.0 / sigma_q) * math.exp(-(2.0 / sigma_q) * mismatch)


# --- receiver-field reconstruction (what left Bob, before the verifier) ---

def bob_field_variance(squeezing: SqueezingParams, budget: EfficiencyBudget,
                       quad: str = "x") -> float:
    """Variance of the field leaving the receiver, referred to a perfect
    verifier: xi5 and alpha_v are stripped and the normalized gain
    recalibrated to unity on the stripped chain."""
    stripped = replace(budget, xi5=1.0, alpha_v=1.0)
    return victor_variance(squeezing, stripped, GainSettings(), quad)


def squeezing_from_victor_variance(sigma_v: float, budget: EfficiencyBudget,
                                   sigma_plus: float) -> SqueezingParams:
    """Solve the unit-gain chain's x variance for the squeezed quadrature.

    The measured output variance pins sigma_minus once the anti-squeezed
    variance sigma_plus is assumed; the dependence on sigma_plus is weak
    because its coefficient (xi1 - r_b xi4 xi5 eta_v)^2 / 2 nearly cancels
    at unit gain. Raises when no physical squeezing reproduces the
    measurement.
    """
    base, c_minus, c_plus = _chain_coefficients(budget, GainSettings(), "x")
    if c_minus == 0.0:
        raise ValueError("chain carries no EPR correlation, cannot infer squeezing")
    sigma_minus = (sigma_v - base - c_plus * sigma_plus) / c_minus
    if not 0.0 < sigma_minus <= 1.0:
        raise ValueError(
            f"measured variance {sigma_v!r} implies squeezed variance "
            f"{sigma_minus:.6g}, outside (0, 1]"
        )
    return SqueezingParams.from_variances(sigma_minus, sigma_plus)


# --- spectral densities with a coherent signal present ---

@dataclass(frozen=True)
class SpectralDensities:
    """Phase-scanned peak spectral densities of the x quadrature, vacuum units."""

    alice_x: float
    victor_x: float


def spectral_densities(beta_in: CoherentAmplitude, squeezing: SqueezingParams,
                       budget: EfficiencyBudget,
                       gains: GainSettings = GainSettings()) -> SpectralDensities:
    """Signal-plus-noise levels at the sender and the verifier.

    The sender's balanced beamsplitter halves the signal power per measured
    quadrature (on top of the arm's visibility and photodiode efficiency);
    the verifier sees the full teleported signal scaled by the normalized
    gain squared, sitting on the chain variance.
    """
    xi_a, eta_a = _sender_arm(budget, "x")
    p = beta_in.power
    return SpectralDensities(
        alice_x=0.5 * (xi_a * eta_a) ** 2 * p + alice_variance(squeezing, budget, "x"),
        victor_x=gains.g_x ** 2 * p + victor_variance(squeezing, budget, gains, "x"),
    )


# --- classical channel balance ---

def channel_cancellation_db(epsilon: float, delay: float, offset: float) -> float:
    """Residual of two balanced classical channels, dB re a single channel.

    A fractional amplitude imbalance epsilon and a relative propagation
    delay (seconds) leave a residual power epsilon^2 + (2 pi f tau)^2 at
    offset f from the carrier; the delay term grows 20 dB per decade.
    """
    if epsilon < 0.0 or delay < 0.0 or offset < 0.0:
        raise ValueError("epsilon, delay and offset must be >= 0")
    residual = epsilon * epsilon + (2.0 * math.pi * offset * delay) ** 2
    if residual <= 0.0:
        raise ValueError("perfect cancellation has no dB value")
    return to_db(residual)


def fit_channel_cancellation(floor_db: float, ref_db: float,
                             ref_offset: float) -> tuple[float, float]:
    """Recover (epsilon, delay) from the DC floor and one off-carrier point."""
    if ref_offset <= 0.0:
        raise ValueError("reference offset must be positive")
    eps2 = from_db(floor_db)
    excess = from_db(ref_db) - eps2
    if excess <= 0.0:
        raise ValueError("reference level must sit above the DC floor")
    return math.sqrt(eps2), math.sqrt(excess) / (2.0 * math.pi * ref_offset)
