"""Two-mode squeezed (EPR) source built from two squeezed vacua.

Two independently squeezed beams interfere on a balanced beamsplitter. The
squeezers act on orthogonal quadratures: beam 1's seed is anti-squeezed in x
and squeezed in p, beam 2's seed squeezed in x and anti-squeezed in p, so
the difference of the x quadratures and the sum of the p quadratures end up
quiet. A relative phase error theta_e rotates beam 2 before the
beamsplitter and degrades the x correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import epr_source
from .units import from_db, to_db


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
        if self.r_minus < 0.0:
            raise ValueError(f"r_minus must be >= 0, got {self.r_minus!r}")
        if self.r_plus < self.r_minus:
            raise ValueError(
                f"r_plus ({self.r_plus!r}) < r_minus ({self.r_minus!r}) would put "
                "sigma_plus*sigma_minus below the uncertainty bound"
            )

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
    def vacuum(cls):
        return cls(0.0, 0.0)

    @classmethod
    def pure(cls, r: float):
        """Minimum-uncertainty squeezing, equal strength both quadratures."""
        return cls(r, r)

    @classmethod
    def from_variances(cls, sigma_minus: float, sigma_plus: float):
        if not 0.0 < sigma_minus <= 1.0:
            raise ValueError(f"squeezed variance must lie in (0, 1], got {sigma_minus!r}")
        if sigma_plus < 1.0:
            raise ValueError(f"anti-squeezed variance must be >= 1, got {sigma_plus!r}")
        return cls(-0.5 * math.log(sigma_minus), 0.5 * math.log(sigma_plus))

    @classmethod
    def from_db(cls, minus_db: float, plus_db: float):
        """From dB levels re vacuum, e.g. (-3.73, +6.9)."""
        return cls.from_variances(from_db(minus_db), from_db(plus_db))


@dataclass(frozen=True)
class EprState:
    """EPR pair: seed squeezing plus entangling-beamsplitter phase error (rad)."""

    params: SqueezingParams
    theta_e: float = 0.0


def output_matrix(state: EprState) -> np.ndarray:
    """Coefficients of the two EPR beams over the seed vacuum quadratures.

    Rows are (x_1, p_1, x_2, p_2), columns the unit-variance vacuum
    operators (x1_0, p1_0, x2_0, p2_0) entering the two squeezers: the
    network's EPR stage applied to the identity.
    """
    return np.array(epr_source(np.eye(4), state.params, state.theta_e))


def _require_locked(state: EprState, what: str):
    if state.theta_e != 0.0:
        raise ValueError(f"{what} is stated for the locked beamsplitter (theta_e = 0), "
                         f"got theta_e = {state.theta_e!r}")


def sum_difference_variances(state: EprState) -> dict:
    """Variances of x1 -+ x2 and p1 +- p2 for the locked (theta_e = 0) pair.

    The quiet pair is {x_minus, p_plus} at 2*sigma_minus; the loud pair
    {x_plus, p_minus} at 2*sigma_plus. Computed from the coefficient matrix
    so there is a single source of truth for the signs.
    """
    _require_locked(state, "the correlation identity")
    x1, p1, x2, p2 = output_matrix(state)
    return {
        "x_minus": float(np.sum((x1 - x2) ** 2)),
        "x_plus": float(np.sum((x1 + x2) ** 2)),
        "p_plus": float(np.sum((p1 + p2) ** 2)),
        "p_minus": float(np.sum((p1 - p2) ** 2)),
    }


def single_beam_variance(state: EprState) -> float:
    """Variance of either beam alone: (sigma_plus + sigma_minus)/2.

    Identical for both beams and both quadratures, so a single homodyne on
    one beam never resolves the correlations.
    """
    _require_locked(state, "the single-beam identity")
    x1 = output_matrix(state)[0]
    return float(np.sum(x1 ** 2))


def correlation_product(state: EprState) -> float:
    """Entanglement witness var(x1 - x2) * var(p1 + p2); < 4 certifies
    inseparability, = 4*sigma_minus**2 for this source."""
    v = sum_difference_variances(state)
    return v["x_minus"] * v["p_plus"]
