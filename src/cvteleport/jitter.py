"""Residual phase-lock jitter and its effect on the output noise.

Four servo loops can each sit slightly off quadrature: the relative phase
at the entangling beamsplitter (theta_e), the sender's two homodyne locks
(theta_ax, theta_ap) and the receiver's displacement phase (theta_b). At
fixed angles the chain stays Gaussian, so the exact output variance is a
row of the network's transfer matrix squared and summed; averaging over slow
zero-mean Gaussian jitter of the angles gives the quadratic expansion used
in the noise budget. Angles are radians internally; use
PhaseJitter.from_degrees at the interface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .epr import SqueezingParams
from .network import transfer_matrix
from .teleporter import EfficiencyBudget, GainSettings

# quadratic expansion error grows as theta^4 past roughly this rms
SMALL_ANGLE_LIMIT = 0.2
_ANGLE_BLOCK = 4096


@dataclass(frozen=True)
class PhaseJitter:
    """RMS lock-angle fluctuations, radians."""

    theta_e_rms: float = 0.0
    theta_ax_rms: float = 0.0
    theta_ap_rms: float = 0.0
    theta_b_rms: float = 0.0

    def __post_init__(self):
        for name in ("theta_e_rms", "theta_ax_rms", "theta_ap_rms", "theta_b_rms"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            if value > SMALL_ANGLE_LIMIT:
                warnings.warn(
                    f"{name} = {value:.3f} rad exceeds the small-angle regime "
                    f"({SMALL_ANGLE_LIMIT} rad); the quadratic average degrades",
                    stacklevel=3,
                )

    @classmethod
    def from_degrees(cls, theta_e: float = 0.0, theta_ax: float = 0.0,
                     theta_ap: float = 0.0, theta_b: float = 0.0):
        return cls(math.radians(theta_e), math.radians(theta_ax),
                   math.radians(theta_ap), math.radians(theta_b))


def variance_at_angles(squeezing: SqueezingParams, theta_e=0.0, theta_ax=0.0,
                       theta_ap=0.0, theta_b=0.0, quad: str = "x"):
    """Exact output variance at fixed lock angles, ideal chain at unit gain:
    the squared norm of the x_out or p_out row of the transfer matrix.
    Broadcasts over angle arrays."""
    if quad not in ("x", "p"):
        raise ValueError(f"quad must be 'x' or 'p', got {quad!r}")
    thetas = np.broadcast_arrays(*(np.asarray(theta, dtype=float)
                                   for theta in (theta_e, theta_ax, theta_ap, theta_b)))
    flat = [theta.ravel() for theta in thetas]
    out = np.empty(flat[0].size)
    # a block of angles at a time bounds the (block, 4, 18) matrix stack
    for start in range(0, out.size, _ANGLE_BLOCK):
        block = tuple(theta[start:start + _ANGLE_BLOCK] for theta in flat)
        t = transfer_matrix(squeezing, EfficiencyBudget.ideal(), GainSettings(), block)
        row = t[:, 2 if quad == "x" else 3, :]
        out[start:start + _ANGLE_BLOCK] = (row * row).sum(axis=-1)
    return out.reshape(thetas[0].shape)[()]


def _jitter_weight(jitter: PhaseJitter, quad: str) -> float:
    # quadratic weight transferred from the squeezed to the anti-squeezed
    # term; the entangling-beamsplitter phase only disturbs x (beam 2's
    # squeezed quadrature feeds the x correlation) and carries 4x the weight
    # of the receiver phase
    if quad == "x":
        return (0.5 * jitter.theta_ax_rms ** 2 + 0.5 * jitter.theta_b_rms ** 2
                + 2.0 * jitter.theta_e_rms ** 2)
    if quad == "p":
        return 0.5 * jitter.theta_ap_rms ** 2 + 0.5 * jitter.theta_b_rms ** 2
    raise ValueError(f"quad must be 'x' or 'p', got {quad!r}")


def victor_variance_jitter(squeezing: SqueezingParams, jitter: PhaseJitter,
                           quad: str = "x") -> float:
    """Jitter-averaged output variance, ideal chain at unit gain.

    Quadratic in the rms angles: weight w moves from the squeezed term onto
    the anti-squeezed one, sigma = 1 + (2 - w) sigma_minus + w sigma_plus.
    """
    w = _jitter_weight(jitter, quad)
    return 1.0 + (2.0 - w) * squeezing.sigma_minus + w * squeezing.sigma_plus


def victor_lo_scan(squeezing: SqueezingParams, jitter: PhaseJitter, theta_v):
    """Verifier variance at local-oscillator angle theta_v (radians).

    Interpolates between the x and p values as cos^2/sin^2; broadcasts over
    theta_v arrays. Flat when the two quadratures match (no jitter, or
    jitter hitting both equally).
    """
    sx = victor_variance_jitter(squeezing, jitter, "x")
    sp = victor_variance_jitter(squeezing, jitter, "p")
    tv = np.asarray(theta_v, dtype=float)
    out = sx * np.cos(tv) ** 2 + sp * np.sin(tv) ** 2
    return float(out) if out.ndim == 0 else out

