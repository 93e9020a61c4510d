"""Monte Carlo phase-space simulation of the full chain.

Every vacuum port of the optical train is drawn per shot as an independent
unit-variance Gaussian and pushed through the optical network (see
network.py for the port order and the conventions). Wigner sampling is
exact for this linear chain, so the estimates converge on the closed forms
in teleporter/jitter and serve as their independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .epr import SqueezingParams
from .jitter import PhaseJitter, victor_variance_jitter
from .network import LOCKED, PORTS, push
from .teleporter import (
    EfficiencyBudget,
    GainSettings,
    alice_variance,
    victor_variance,
)

# shots per chunk; the push holds a few dozen temporaries of this length
# besides the (16, n) draws, so the chunk sets the peak memory of a run
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
    jit = config.jitter

    rng = np.random.default_rng(config.seed)
    # accumulate (sum, sum of squares) for i_x, i_p, x_v, p_v
    s1 = np.zeros(4)
    s2 = np.zeros(4)
    remaining = config.samples
    while remaining > 0:
        n = min(_CHUNK, remaining)
        remaining -= n
        z = rng.standard_normal((PORTS, n))
        angles = LOCKED
        if jit is not None:
            ang = rng.standard_normal((4, n))
            angles = (jit.theta_e_rms * ang[0], jit.theta_ax_rms * ang[1],
                      jit.theta_ap_rms * ang[2], jit.theta_b_rms * ang[3])
        outputs = push(z, config.squeezing, config.budget, config.gains, angles)
        for k, series in enumerate(outputs):
            s1[k] += series.sum()
            s2[k] += (series * series).sum()

    n_tot = config.samples
    variances = (s2 - s1 * s1 / n_tot) / (n_tot - 1)
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
