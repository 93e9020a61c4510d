"""Vacuum-unit conventions and scalar Gaussian noise primitives.

Quadrature variances and spectral densities are dimensionless throughout:
the vacuum (shot-noise) level is exactly 1, and dB values are 10*log10
relative to it. Efficiencies are amplitude factors, so an amplitude
transmission t mixes in vacuum with weight 1 - t**2.
"""

from __future__ import annotations

import math

LN10 = math.log(10.0)


def check_unit_interval(name: str, value: float) -> None:
    """Refuse an efficiency or amplitude transmission outside [0, 1], NaN
    included."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def to_db(value: float) -> float:
    """Linear variance (or power) ratio to dB re vacuum."""
    if value <= 0.0:
        raise ValueError(f"dB undefined for non-positive value {value!r}")
    return 10.0 * math.log10(value)


def from_db(level_db: float) -> float:
    """Inverse of to_db."""
    return 10.0 ** (level_db / 10.0)


def loss_channel(variance: float, transmission: float) -> float:
    """Quadrature variance after mixing with vacuum on a lossy element.

    transmission is the amplitude factor t (a visibility or sqrt of a
    quantum efficiency), so v_out = t**2 * v + (1 - t**2). Transmission 1 is
    the identity, 0 replaces the state with vacuum, and the vacuum itself is
    a fixed point for every t.
    """
    check_unit_interval("amplitude transmission", transmission)
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    t2 = transmission * transmission
    return t2 * variance + (1.0 - t2)


def invert_loss_channel(variance: float, transmission: float) -> float:
    """Undo loss_channel for a known amplitude transmission.

    Raises when the stated variance sits below the vacuum floor the loss
    would leave, i.e. no physical input could have produced it.
    """
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"amplitude transmission must lie in (0, 1], got {transmission!r}")
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    t2 = transmission * transmission
    inverted = (variance - (1.0 - t2)) / t2
    if inverted <= 0.0:
        raise ValueError(
            f"variance {variance!r} is below the vacuum floor {1.0 - t2:.6g} "
            f"left by transmission {transmission!r}; chain inconsistent"
        )
    return inverted

