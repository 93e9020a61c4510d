"""Continuous-variable teleportation of coherent states through a lossy,
phase-jittery optical chain: closed-form station variances and fidelities,
an exact phase-space Monte Carlo of the same chain, squeezer spectra, and a
catalog of reference scenarios with pinned expected values."""

from .epr import SqueezingParams
from .jitter import PhaseJitter, victor_lo_scan, victor_variance_jitter
from .opo import BliiraTable, DetectionChain, OpoParams, back_propagate_to_epr, \
    double_pump_debit, parametric_gain, squeezing_vs_pump, threshold
from .oracle import ChainConfig, closed_form_reference, simulate_chain
from .scenarios import RunOptions, list_presets, run_preset
from .teleporter import CoherentAmplitude, EfficiencyBudget, GainSettings, \
    SpectralDensities, alice_variance, bob_field_variance, fidelity, \
    spectral_densities, squeezing_from_victor_variance, victor_variance
from .units import from_db, loss_channel, to_db

__version__ = "0.1.0"

__all__ = [
    "BliiraTable",
    "ChainConfig",
    "CoherentAmplitude",
    "DetectionChain",
    "EfficiencyBudget",
    "GainSettings",
    "OpoParams",
    "PhaseJitter",
    "RunOptions",
    "SpectralDensities",
    "SqueezingParams",
    "__version__",
    "alice_variance",
    "back_propagate_to_epr",
    "bob_field_variance",
    "closed_form_reference",
    "double_pump_debit",
    "fidelity",
    "from_db",
    "list_presets",
    "loss_channel",
    "parametric_gain",
    "run_preset",
    "simulate_chain",
    "spectral_densities",
    "squeezing_from_victor_variance",
    "squeezing_vs_pump",
    "threshold",
    "to_db",
    "victor_lo_scan",
    "victor_variance",
    "victor_variance_jitter",
]
