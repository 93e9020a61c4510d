"""Two-mode squeezed (EPR) source built from two squeezed vacua.

Two independently squeezed beams interfere on a balanced beamsplitter. The
squeezers act on orthogonal quadratures: beam 1's seed is anti-squeezed in x
and squeezed in p, beam 2's seed squeezed in x and anti-squeezed in p, so
the difference of the x quadratures and the sum of the p quadratures end up
quiet. The identities here hold for the locked beamsplitter; a relative
phase error rotates beam 2 first (network.epr_stage, jitter).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .network import epr_stage, seed_gains
from .units import LN10, to_db

# largest r_plus whose anti-squeezed EPR variances (up to 2 sigma_plus)
# are still finite floats
R_PLUS_MAX = 0.5 * math.log(sys.float_info.max / 4.0)


@dataclass(frozen=True)
class SqueezingParams:
    """Squeezed / anti-squeezed strengths of each constituent beam.

    The squeezed quadrature has variance sigma_minus = exp(-2 r_minus), the
    anti-squeezed one sigma_plus = exp(+2 r_plus). Independent r_minus and
    r_plus cover impure (noisy) squeezed states; r_plus >= r_minus keeps
    sigma_plus * sigma_minus >= 1 as the uncertainty relation demands.
    """

    r_minus: float = 0.0
    r_plus: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r_minus) and math.isfinite(self.r_plus)):
            # NaN would pass every test below
            raise ValueError(f"r_minus and r_plus must be finite, got "
                             f"{self.r_minus!r} and {self.r_plus!r}")
        if self.r_minus < 0.0:
            raise ValueError(f"r_minus must be >= 0, got {self.r_minus!r}")
        if self.r_plus < self.r_minus:
            raise ValueError(
                f"r_plus ({self.r_plus!r}) < r_minus ({self.r_minus!r}) would put "
                "sigma_plus*sigma_minus below the uncertainty bound"
            )
        if self.r_plus > R_PLUS_MAX:
            raise ValueError(f"r_plus = {self.r_plus:.4g} puts the anti-squeezed "
                             f"variance beyond the float range (r_plus <= "
                             f"{R_PLUS_MAX:.4g})")

    @property
    def sigma_minus(self) -> float:
        return math.exp(-2.0 * self.r_minus)

    @property
    def sigma_plus(self) -> float:
        return math.exp(2.0 * self.r_plus)

    @property
    def minus_db(self) -> float:
        return to_db(self.sigma_minus)

    @property
    def plus_db(self) -> float:
        return to_db(self.sigma_plus)

    @classmethod
    def from_variances(cls, sigma_minus: float, sigma_plus: float):
        if not 0.0 < sigma_minus <= 1.0:
            raise ValueError(f"squeezed variance must lie in (0, 1], got {sigma_minus!r}")
        if sigma_plus < 1.0:
            raise ValueError(f"anti-squeezed variance must be >= 1, got {sigma_plus!r}")
        return cls(-0.5 * math.log(sigma_minus), 0.5 * math.log(sigma_plus))

    @classmethod
    def from_db(cls, minus_db: float, plus_db: float):
        """From dB levels re vacuum, e.g. (-3.73, +6.9): r = |level| ln10/20,
        so (-d, +d) is pure squeezing with r_minus == r_plus bit for bit."""
        if not minus_db <= 0.0:
            raise ValueError(f"squeezed level must be <= 0 dB, got {minus_db!r}")
        if not plus_db >= 0.0:
            raise ValueError(f"anti-squeezed level must be >= 0 dB, got {plus_db!r}")
        return cls(-minus_db * LN10 / 20.0, plus_db * LN10 / 20.0)


@functools.cache
def _vacuum_columns() -> tuple[tuple, ...]:
    """Coefficients of the locked EPR beams (x_1, p_1, x_2, p_2) on each
    unit vacuum seed (x1_0, p1_0, x2_0, p2_0), one tuple per seed: the
    network's EPR stage pushed on the 4x4 identity, as plain floats."""
    seeds = np.eye(4)
    beam_1 = np.empty((2, 4))
    epr_stage(seeds, 0.0, beam_1)
    return tuple(zip(*beam_1.tolist(), *seeds[2:].tolist()))


def _seed_columns(squeezing: SqueezingParams) -> list[tuple]:
    """Coefficients of the two EPR beams (x_1, p_1, x_2, p_2) on each unit
    seed, one tuple per seed: the squeezer's gain on the seed times its
    vacuum column, since the squeezers act on the seeds alone."""
    return [(gain * x1, gain * p1, gain * x2, gain * p2)
            for gain, (x1, p1, x2, p2) in zip(seed_gains(squeezing), _vacuum_columns())]


def sum_difference_variances(squeezing: SqueezingParams) -> tuple:
    """Variances of x1 -+ x2 and p1 +- p2 for the locked pair, as
    (quiet, loud) = ((var(x1 - x2), var(p1 + p2)), (var(x1 + x2), var(p1 - p2))).

    The quiet pair sits at 2*sigma_minus, the loud pair at 2*sigma_plus.
    Summed over the network's seed coefficients so there is a single source
    of truth for the signs.
    """
    x_minus = x_plus = p_plus = p_minus = 0.0
    for x1, p1, x2, p2 in _seed_columns(squeezing):
        x_minus += (x1 - x2) * (x1 - x2)
        x_plus += (x1 + x2) * (x1 + x2)
        p_plus += (p1 + p2) * (p1 + p2)
        p_minus += (p1 - p2) * (p1 - p2)
    return (x_minus, p_plus), (x_plus, p_minus)


def single_beam_variance(squeezing: SqueezingParams) -> float:
    """Variance of either beam alone: (sigma_plus + sigma_minus)/2.

    Identical for both beams and both quadratures, so a single homodyne on
    one beam never resolves the correlations.
    """
    return sum(x1 * x1 for x1, _, _, _ in _seed_columns(squeezing))


def correlation_product(squeezing: SqueezingParams) -> float:
    """Entanglement witness var(x1 - x2) * var(p1 + p2); < 4 certifies
    inseparability, = 4*sigma_minus**2 for this source."""
    (x_minus, p_plus), _ = sum_difference_variances(squeezing)
    return x_minus * p_plus
