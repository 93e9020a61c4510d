"""Monte Carlo phase-space simulation of the full chain.

Every vacuum port of the optical train is a unit-variance Gaussian
quadrature pushed through the optical network (see network.py for the port
order and the conventions). Wigner sampling is exact for this linear chain,
so the estimates converge on the closed forms in teleporter/jitter and
serve as their independent oracle.

At fixed lock angles the outputs of N shots are y = T z, with T the
transfer matrix, so the sample variances read the N draws z only through
their centred scatter, which for unit normals is Wishart(N-1, I). A chain
without jitter therefore draws that scatter directly from its Bartlett
factor (Bartlett 1933; Anderson, An Introduction to Multivariate
Statistical Analysis, 7.2): 16 chi-square and at most 120 normal draws at
any N, with the same law as the per-shot estimate. A chain with jitter
has a fresh rotation per shot and a non-Gaussian output, so it draws its
live ports and its four lock angles shot by shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .epr import SqueezingParams
from .jitter import PhaseJitter, victor_variance_jitter
from .network import PORTS, live_ports, push, transfer_matrix
from .teleporter import (
    EfficiencyBudget,
    GainSettings,
    alice_variance,
    victor_variance,
)

# shots per chunk of the jitter path; the push holds a few dozen
# temporaries of this length besides the draws, so the chunk sets the peak
# memory of a jittered run
_CHUNK = 1 << 17


@dataclass(frozen=True)
class ChainConfig:
    """One Monte Carlo run: physics, sample count and seed."""

    squeezing: SqueezingParams = field(default_factory=SqueezingParams)
    budget: EfficiencyBudget = field(default_factory=EfficiencyBudget)
    gains: GainSettings = field(default_factory=GainSettings)
    jitter: PhaseJitter | None = None
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2 for a sample variance, "
                             f"got {self.samples!r}")


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class ChainEstimates:
    """Sample variances of the sender photocurrents and the verifier output,
    each with the Gaussian standard error s^2*sqrt(2/(N-1))."""

    sigma_v_x: Estimate
    sigma_v_p: Estimate
    sigma_a_x: Estimate
    sigma_a_p: Estimate
    samples: int


def simulate_chain(config: ChainConfig) -> ChainEstimates:
    """Run the chain and estimate the variances at both stations."""
    rng = np.random.default_rng(config.seed)
    n_tot = config.samples
    if config.jitter is None:
        t = transfer_matrix(config.squeezing, config.budget, config.gains)
        ta = t @ _wishart_factor(rng, n_tot - 1)
        variances = (ta * ta).sum(axis=1) / (n_tot - 1)
    else:
        variances = _jittered_variances(config, rng)
    var_se = variances * math.sqrt(2.0 / (n_tot - 1))

    def var_est(k):
        return Estimate(float(variances[k]), float(var_se[k]))

    return ChainEstimates(
        sigma_a_x=var_est(0),
        sigma_a_p=var_est(1),
        sigma_v_x=var_est(2),
        sigma_v_p=var_est(3),
        samples=n_tot,
    )


def _wishart_factor(rng, dof: int) -> np.ndarray:
    """A (PORTS, min(PORTS, dof)) lower-trapezoidal A with A A^T ~
    Wishart(dof, I): chi-square diagonal of falling degrees of freedom,
    unit normals below it. For dof < PORTS it is the LQ factor of a
    (PORTS, dof) Gaussian matrix, so the singular case needs no branch."""
    m = min(PORTS, dof)
    a = np.zeros((PORTS, m))
    a[np.diag_indices(m)] = np.sqrt(rng.chisquare(dof - np.arange(m)))
    below = np.tril_indices(PORTS, -1, m)
    a[below] = rng.standard_normal(below[0].size)
    return a


def _jittered_variances(config: ChainConfig, rng) -> np.ndarray:
    # per chunk, one draw of the live ports followed by the four angle rows;
    # the loss ports of lossless elements stay the scalar 0.0
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    live = live_ports(config.budget)
    z = [0.0] * PORTS
    # accumulate (sum, sum of squares) for i_x, i_p, x_v, p_v
    s1 = np.zeros(4)
    s2 = np.zeros(4)
    remaining = config.samples
    while remaining > 0:
        n = min(_CHUNK, remaining)
        remaining -= n
        draws = rng.standard_normal((len(live) + 4, n))
        for port, row in zip(live, draws):
            z[port] = row
        angles = tuple(r * row for r, row in zip(rms, draws[len(live):]))
        outputs = push(z, config.squeezing, config.budget, config.gains, angles)
        for k, series in enumerate(outputs):
            s1[k] += series.sum()
            s2[k] += (series * series).sum()
    n_tot = config.samples
    return (s2 - s1 * s1 / n_tot) / (n_tot - 1)


def closed_form_reference(config: ChainConfig) -> dict:
    """Closed forms the estimates should converge on, where they exist.

    Without jitter the chain variance and sender variance are exact for any
    budget and gains. With jitter only the ideal-budget unit-gain output
    variance has a (quadratic) closed form, which raises beyond
    SMALL_ANGLE_LIMIT; sender references are omitted there. Missing
    entries are None.
    """
    ref = {"sigma_v_x": None, "sigma_v_p": None, "sigma_a_x": None, "sigma_a_p": None}
    if config.jitter is None:
        ref["sigma_v_x"] = victor_variance(config.squeezing, config.budget,
                                           config.gains, "x")
        ref["sigma_v_p"] = victor_variance(config.squeezing, config.budget,
                                           config.gains, "p")
        ref["sigma_a_x"] = alice_variance(config.squeezing, config.budget, "x")
        ref["sigma_a_p"] = alice_variance(config.squeezing, config.budget, "p")
    elif (config.budget == EfficiencyBudget.ideal()
          and config.gains.g_x == 1.0 and config.gains.g_p == 1.0):
        ref["sigma_v_x"] = victor_variance_jitter(config.squeezing, config.jitter, "x")
        ref["sigma_v_p"] = victor_variance_jitter(config.squeezing, config.jitter, "p")
    return ref
