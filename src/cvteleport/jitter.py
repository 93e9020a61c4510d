"""Residual phase-lock jitter and its effect on the output noise.

Four servo loops can each sit slightly off quadrature: the relative phase
at the entangling beamsplitter (theta_e), the sender's two homodyne locks
(theta_ax, theta_ap) and the receiver's displacement phase (theta_b). At
fixed angles the chain stays Gaussian; averaging its output variance over
slow zero-mean Gaussian jitter of the angles gives the quadratic expansion
used in the noise budget: victor_variance_jitter returns, for x and then
p, the static chain's variance (teleporter.victor_variance) plus the
weight the jitter transfers from the squeezed onto the anti-squeezed
quadrature. victor_lo_scan sweeps the verifier's local oscillator through
that average and returns a list of floats. Angles are radians internally;
use PhaseJitter.from_degrees at the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .epr import SqueezingParams
from .teleporter import EfficiencyBudget, victor_variance
from .units import check_finite_non_negative

# quadratic expansion error grows as theta^4 past roughly this rms, radians
SMALL_ANGLE_LIMIT = 0.2


@dataclass(frozen=True)
class PhaseJitter:
    """RMS lock-angle fluctuations, radians. Any size is a valid jitter for
    the Monte Carlo; the quadratic law holds only up to SMALL_ANGLE_LIMIT."""

    theta_e_rms: float = 0.0
    theta_ax_rms: float = 0.0
    theta_ap_rms: float = 0.0
    theta_b_rms: float = 0.0

    def __post_init__(self):
        # a NaN rms would make the oracle skip the lock
        for f in fields(self):
            check_finite_non_negative(f.name, getattr(self, f.name))

    @classmethod
    def from_degrees(cls, theta_e: float = 0.0, theta_ax: float = 0.0,
                     theta_ap: float = 0.0, theta_b: float = 0.0):
        return cls(math.radians(theta_e), math.radians(theta_ax),
                   math.radians(theta_ap), math.radians(theta_b))


def _jitter_weight(jitter: PhaseJitter) -> tuple[float, float]:
    # quadratic weights (w_x, w_p) transferred from the squeezed to the
    # anti-squeezed term; the entangling-beamsplitter phase only disturbs x
    # (beam 2's squeezed quadrature feeds the x correlation) and carries 4x
    # the weight of the receiver phase
    return ((0.5 * jitter.theta_ax_rms ** 2 + 0.5 * jitter.theta_b_rms ** 2
             + 2.0 * jitter.theta_e_rms ** 2),
            0.5 * jitter.theta_ap_rms ** 2 + 0.5 * jitter.theta_b_rms ** 2)


def victor_variance_jitter(squeezing: SqueezingParams,
                           jitter: PhaseJitter) -> tuple[float, float]:
    """Jitter-averaged output variances (sigma_x, sigma_p), ideal chain at
    unit gain.

    Quadratic in the rms angles: in each quadrature weight w moves from the
    squeezed term onto the anti-squeezed one, so the static chain's
    variance rises by w (sigma_plus - sigma_minus). Raises when an rms
    angle exceeds SMALL_ANGLE_LIMIT, where the law no longer holds.
    """
    for f in fields(jitter):
        value = getattr(jitter, f.name)
        if value > SMALL_ANGLE_LIMIT:
            raise ValueError(f"{f.name} = {value:.3g} rad exceeds the small-angle "
                             f"limit {SMALL_ANGLE_LIMIT} rad of the quadratic law")
    spread = squeezing.sigma_plus - squeezing.sigma_minus
    return tuple(static + w * spread for static, w in
                 zip(victor_variance(squeezing, EfficiencyBudget()), _jitter_weight(jitter)))


def victor_lo_scan(squeezing: SqueezingParams, jitter: PhaseJitter,
                   theta_v) -> list:
    """Verifier variance at each local-oscillator angle of the sequence
    theta_v (radians), as a list of floats.

    Interpolates between the x and p values as cos^2/sin^2. Flat when the
    two quadratures match (no jitter, or jitter hitting both equally).
    """
    sx, sp = victor_variance_jitter(squeezing, jitter)
    return [sx * math.cos(t) ** 2 + sp * math.sin(t) ** 2 for t in theta_v]
