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
has a fresh rotation per shot and a non-Gaussian output, so it is sampled
shot by shot, in chunks of _CHUNK shots:

- stream layout: chunk k of ceil(N/_CHUNK) (the last one short) draws from
  default_rng(SeedSequence(seed).spawn(ceil(N/_CHUNK))[k]) one
  standard-normal array of shape (len(live_ports) + live angles, n_k): the
  live ports (network.live_ports) in port order, then the rows of the lock
  angles whose rms is > 0, in the order (theta_e, theta_ax, theta_ap,
  theta_b), scaled by their rms. Dead ports and dead angles are the scalar
  0.0;
- each chunk returns its centred moments (n, mean, M2) of the four
  outputs, and the chunks merge in chunk order (Chan, Golub and LeVeque
  1979), so the estimate depends on the seed and N alone, never on how
  many cores run the chunks;
- the chunks run on a thread pool (numpy's draws and ufuncs release the
  GIL) of one worker per usable CPU, capped so that at most _IN_FLIGHT
  shots are drawn at once whatever the core count. Each worker draws into
  and collects from buffers of its own, pushing _BLOCK shots at a time.
"""

from __future__ import annotations

import functools
import math
import os
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

# shots per chunk of the jitter path, and so the length of one seed stream
# (see the module docstring); changing it changes every jitter estimate.
# Each worker holds one chunk's draws and outputs in buffers of its own, so
# _IN_FLIGHT, the most shots the workers hold at once, sets the peak memory
# of a jittered run on any number of cores
_CHUNK = 1 << 15
_IN_FLIGHT = 1 << 17
# shots per push within a chunk; no result depends on it. Push's
# temporaries are then 64 KiB each and go back to the heap's free lists to
# be reused. A whole-chunk push makes several MiB of 256 KiB temporaries,
# which the allocator returns to the system and faults in afresh: some
# 140,000 to 180,000 page faults per oracle-grid pass, the count and so the
# pass time changing from one run to the next
_BLOCK = 1 << 13


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
    n_tot = config.samples
    if config.jitter is None:
        t = transfer_matrix(config.squeezing, config.budget, config.gains)
        ta = t @ _wishart_factor(np.random.default_rng(config.seed), n_tot - 1)
        variances = (ta * ta).sum(axis=1) / (n_tot - 1)
    else:
        variances = _jittered_variances(config)
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


def _workers() -> int:
    """Threads for the jitter chunks: the CPUs this process may run on,
    at most _IN_FLIGHT // _CHUNK."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _IN_FLIGHT // _CHUNK)


def _merge_moments(a, b):
    """Merge the centred moments (n, mean, M2) of two disjoint samples
    (Chan, Golub and LeVeque 1979); M2 is the sum of squared deviations
    from the mean, so no large sum of squares is ever differenced."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * (n_b / n),
            m2_a + m2_b + delta * delta * (n_a * n_b / n))


def _jittered_variances(config: ChainConfig) -> np.ndarray:
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    live = live_ports(config.budget)
    live_angles = [k for k, r in enumerate(rms) if r > 0.0]
    n_chunks = -(-config.samples // _CHUNK)
    streams = np.random.SeedSequence(config.seed).spawn(n_chunks)

    rows = len(live) + len(live_angles)
    workers = min(_workers(), n_chunks)
    # imported here: concurrent.futures loads logging, which the package's
    # cold start does without
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # one (draws, outputs) buffer pair per worker, lent to one chunk at a time
    spare = queue.SimpleQueue()
    for _ in range(workers):
        spare.put((np.empty(rows * _CHUNK), np.empty(4 * _CHUNK)))

    def chunk_moments(k):
        # moments of (i_x, i_p, x_v, p_v) over chunk k, drawn as the module
        # docstring lays out
        n = min(_CHUNK, config.samples - k * _CHUNK)
        buffers = spare.get()
        try:
            draws = buffers[0][:rows * n].reshape(rows, n)
            outputs = buffers[1][:4 * n].reshape(4, n)
            np.random.default_rng(streams[k]).standard_normal(out=draws)
            for start in range(0, n, _BLOCK):
                block = draws[:, start:start + _BLOCK]
                z = [0.0] * PORTS
                for port, row in zip(live, block):
                    z[port] = row
                angles = [0.0] * 4
                for a, row in zip(live_angles, block[len(live):]):
                    angles[a] = rms[a] * row
                series = push(z, config.squeezing, config.budget, config.gains, angles)
                for out, values in zip(outputs[:, start:start + _BLOCK], series):
                    out[...] = values
            mean = outputs.mean(axis=1)
            outputs -= mean[:, None]
            np.multiply(outputs, outputs, out=outputs)
            return n, mean, outputs.sum(axis=1)
        finally:
            # returned even by a failing chunk, or the chunks still queued
            # would wait for it forever
            spare.put(buffers)

    with ThreadPoolExecutor(workers) as pool:
        moments = list(pool.map(chunk_moments, range(n_chunks)))
    n_tot, _, m2 = functools.reduce(_merge_moments, moments)
    return m2 / (n_tot - 1)


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
