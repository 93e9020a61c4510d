"""Below-threshold optical parametric oscillator model.

Classical parametric gain and oscillation threshold, pump-dependent
intracavity loss (passive plus pump-induced infrared absorption), escape
efficiency, and the detected squeezing spectrum at a fixed analysis
frequency. Also maps detected squeezing back to the entangling beamsplitter
through the measurement chain. Pump powers are in watts, frequencies in Hz.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .epr import SqueezingParams
from .units import check_unit_interval, from_db, invert_loss_channel, loss_channel

# cavity half width at half maximum and the sideband frequency the spectra
# are evaluated at, Hz
LINEWIDTH_HWHM = 5.4e6
ANALYSIS_FREQ = 1.475e6


@dataclass(frozen=True)
class BliiraTable:
    """Pump-induced extra intracavity loss, interpolated between measured
    points (clamped outside the measured range)."""

    pump_w: tuple[float, ...] = (0.0,)
    loss: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.pump_w) != len(self.loss) or not self.pump_w:
            raise ValueError("table needs matching, non-empty pump and loss columns")
        if any(b <= a for a, b in zip(self.pump_w, self.pump_w[1:])):
            raise ValueError("pump column must be strictly increasing")
        if any(b < a for a, b in zip(self.loss, self.loss[1:])):
            raise ValueError("loss column must be non-decreasing")
        if self.pump_w[0] < 0.0 or not all(0.0 <= l < 1.0 for l in self.loss):
            raise ValueError("pumps must be >= 0 and losses in [0, 1)")

    def __call__(self, pump: float) -> float:
        # np.interp's values without its per-call array set-up: the end
        # values outside the table, a table point exactly, linear between
        xp, fp = self.pump_w, self.loss
        pump = float(pump)
        if len(xp) == 1 or pump <= xp[0]:
            return float(fp[0])
        if pump >= xp[-1]:
            return float(fp[-1])
        if math.isnan(pump):
            return pump
        j = bisect.bisect_right(xp, pump) - 1
        if xp[j] == pump:
            return float(fp[j])
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        return slope * (pump - xp[j]) + fp[j]

    @classmethod
    def default(cls):
        # linear rise to 1.7% extra loss at 155 mW, on top of passive loss
        return cls((0.0, 0.155), (0.0, 0.017))

    @classmethod
    def flat(cls, loss: float):
        return cls((0.0,), (loss,))


@dataclass(frozen=True)
class OpoParams:
    """Cavity and nonlinearity parameters.

    t_coupler: output coupler intensity transmission
    e_nl: effective nonlinearity, 1/W
    l_passive: passive round-trip intensity loss
    bliira: pump-dependent extra loss table
    """

    t_coupler: float = 0.10
    e_nl: float = 0.021
    l_passive: float = 0.0
    bliira: BliiraTable = BliiraTable.default()

    def __post_init__(self):
        if not 0.0 < self.t_coupler < 1.0:
            raise ValueError(f"t_coupler must lie in (0, 1), got {self.t_coupler!r}")
        if self.e_nl <= 0.0:
            raise ValueError(f"e_nl must be positive, got {self.e_nl!r}")
        if not 0.0 <= self.l_passive < 1.0:
            raise ValueError(f"l_passive must lie in [0, 1), got {self.l_passive!r}")


@dataclass(frozen=True)
class DetectionChain:
    """Everything between the cavity output and the recorded variance.

    propagation is an amplitude factor; visibility and the photodiode
    quantum efficiency alpha enter the noise as visibility^2 * alpha.
    """

    propagation: float = 1.0
    visibility: float = 1.0
    quantum_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("propagation", "visibility", "quantum_efficiency"):
            check_unit_interval(name, getattr(self, name))

    @classmethod
    def from_intensity_loss(cls, propagation_loss: float, visibility: float = 1.0,
                            quantum_efficiency: float = 1.0):
        if not 0.0 <= propagation_loss < 1.0:
            raise ValueError("propagation loss must lie in [0, 1)")
        return cls(math.sqrt(1.0 - propagation_loss), visibility, quantum_efficiency)

    @property
    def amplitude(self) -> float:
        """Single amplitude factor equivalent to the whole chain."""
        return self.propagation * self.visibility * math.sqrt(self.quantum_efficiency)

    @property
    def efficiency(self) -> float:
        """Intensity factor applied to the noise, amplitude squared."""
        return self.amplitude ** 2


def total_loss(opo: OpoParams, pump: float) -> float:
    """Round-trip intracavity loss at this pump, passive plus pump-induced."""
    if pump < 0.0:
        raise ValueError(f"pump must be >= 0, got {pump!r}")
    return opo.l_passive + opo.bliira(pump)


def threshold(opo: OpoParams, pump: float = 0.0) -> float:
    """Oscillation threshold (T + L)^2 / (4 E_NL), watts.

    The loss lookup is evaluated at the supplied pump, so the threshold
    rises with pump when the loss table does.
    """
    tl = opo.t_coupler + total_loss(opo, pump)
    return tl * tl / (4.0 * opo.e_nl)


def _pump_ratio(opo: OpoParams, pump: float) -> float:
    """sqrt(P/P_t) below threshold; raises at or above it."""
    p_t = threshold(opo, pump)
    if pump >= p_t:
        raise ValueError(f"pump {pump!r} W at or above oscillation threshold {p_t:.4g} W")
    return math.sqrt(pump / p_t)


def parametric_gain(opo: OpoParams, pump: float) -> float:
    """Classical amplification G = 1/(1 - sqrt(P/P_t))^2, diverging at threshold."""
    return 1.0 / (1.0 - _pump_ratio(opo, pump)) ** 2


def escape_efficiency(opo: OpoParams, pump: float) -> float:
    """Fraction of intracavity photons leaving through the coupler, T/(T + L)."""
    return opo.t_coupler / (opo.t_coupler + total_loss(opo, pump))


def squeezing_vs_pump(opo: OpoParams, chain: DetectionChain,
                      pump: float) -> SqueezingParams:
    """Detected squeezed and anti-squeezed variances at the analysis frequency.

    Standard below-threshold spectra of a lossy cavity: with pump ratio
    x = sqrt(P/P_t) and normalized offset w = ANALYSIS_FREQ/LINEWIDTH_HWHM the
    lossless variances are 1 - 4x/((1 + x)^2 + w^2) (squeezed) and
    1 + 4x/((1 - x)^2 + w^2) (anti-squeezed); the total detection
    efficiency (escape times the chain factor) pulls both toward vacuum.
    The anti-squeezed denominator closes near threshold, so the
    anti-squeezing diverges while the squeezing saturates.
    """
    x = _pump_ratio(opo, pump)
    w2 = (ANALYSIS_FREQ / LINEWIDTH_HWHM) ** 2
    eta = escape_efficiency(opo, pump) * chain.efficiency
    sigma_minus = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + w2)
    sigma_plus = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + w2)
    return SqueezingParams.from_variances(sigma_minus, sigma_plus)


def double_pump_debit(squeezing: SqueezingParams, debit_db: float) -> SqueezingParams:
    """Derate the squeezed quadrature by a fixed dB debit.

    Running both squeezers from one doubled pump path costs a little
    squeezing per path; the debit raises sigma_minus (toward vacuum,
    clamped at 1) and leaves the anti-squeezing untouched.
    """
    if debit_db < 0.0:
        raise ValueError(f"debit must be >= 0 dB, got {debit_db!r}")
    derated = min(from_db(squeezing.minus_db + debit_db), 1.0)
    return SqueezingParams.from_variances(derated, squeezing.sigma_plus)


def back_propagate_to_epr(detected: SqueezingParams, victor_chain: DetectionChain,
                          xi_epr: float) -> SqueezingParams:
    """Squeezing at the entangling beamsplitter inferred from detected values.

    Strips the measurement chain (propagation, homodyne visibility,
    photodiode) off both variances, then applies the mode-overlap loss of
    the entangling beamsplitter itself, which the beams do traverse on the
    way in. Raises when a detected variance sits below what the chain could
    have transmitted.
    """
    if not 0.0 < xi_epr <= 1.0:
        raise ValueError(f"xi_epr must lie in (0, 1], got {xi_epr!r}")
    t = victor_chain.amplitude
    if t <= 0.0:
        raise ValueError("measurement chain has zero transmission, nothing to invert")
    sigma_minus = loss_channel(invert_loss_channel(detected.sigma_minus, t), xi_epr)
    sigma_plus = loss_channel(invert_loss_channel(detected.sigma_plus, t), xi_epr)
    # guard float fuzz at the vacuum boundary
    return SqueezingParams.from_variances(min(sigma_minus, 1.0), max(sigma_plus, 1.0))
