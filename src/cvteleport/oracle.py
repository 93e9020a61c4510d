"""Monte Carlo phase-space simulation of the full chain.

Every vacuum port of the optical train is a unit-variance Gaussian
quadrature pushed through the optical network (see network.py for the port
order and the conventions). Wigner sampling is exact for this linear chain,
so the estimates converge on the closed forms in teleporter/jitter and
serve as their independent oracle: it imports no closed form, only the
parameter classes of ChainConfig, and the grid's references live in
scenarios.

At fixed lock angles the outputs of N shots are y = T z, with T the
transfer matrix, so the sample variances read the N draws z only through
their centred scatter, which for unit normals is Wishart(N-1, I). A chain
without jitter therefore draws that scatter directly from its Bartlett
factor (Bartlett 1933; Anderson, An Introduction to Multivariate
Statistical Analysis, 7.2): 16 chi-square and at most 120 normal draws at
any N, with the same law as the per-shot estimate. The squeezers only
scale the four seed columns of T (network.seed_gains), so T is pushed
once per (budget, gains) with vacuum seeds and each cell scales a copy
of it by its own squeezing. A jitter whose every rms is 0 is no jitter,
and ChainConfig drops it. A chain with jitter has a fresh rotation per
shot and a non-Gaussian output, so it is sampled shot by shot, in chunks
of _CHUNK shots:

- stream layout: chunk k of ceil(N/_CHUNK) (the last one short, n_k
  shots) draws from Generator(SFC64(SeedSequence(seed, spawn_key=(k,)))),
  which is child k of SeedSequence(seed).spawn() built only when the chunk
  runs, one float32 uniform array u of shape (2, R, n_k), by
  random(dtype=np.float32), with R = ceil(rows / 2) and rows =
  len(live_ports) + live angles. Box-Muller turns it in place into the 2R
  rows r cos(2 pi u[1]) over r sin(2 pi u[1]), with
  r = sqrt(-2 log(1 - u[0])) (_box_muller); the first rows of them are
  the live ports (network.live_ports) in port order, then the lock angles
  whose rms is > 0, in the order (theta_e, theta_ax, theta_ap, theta_b),
  scaled by their rms, and when rows is odd the last row is dropped. Dead
  ports and dead angles are the scalar 0.0. The draws are most of a
  chunk's time, so a chunk runs in float32 throughout: the uniforms, the
  transform, network.push and the chunk's moments. float32 halves the
  bytes of every pass and doubles the SIMD lanes of every ufunc. numpy's
  float32 cos and sin are vectorized under AVX2 and AVX-512 alike, and its
  tan only under AVX-512, so the transform and network.push take cos and
  sin straight from numpy. The uniforms are
  multiples of 2**-24, so r is at most sqrt(48 log 2) = 5.77 and each
  normal has variance 1 - 5.5e-7 (a shift of 3.9e-4 SE at N = 1e6), well
  below what the grid resolves. A Gaussian cell draws at most 136
  variates, where the generator's speed does not show, so it keeps
  default_rng(seed), float64, and with it the estimates of earlier
  versions;
- each chunk returns its centred moments (n, mean, M2) of the four
  outputs, each a pairwise float32 sum over the chunk (within about 1e-6
  relative) handed on in float64, and the chunks merge in float64 in
  chunk order (Chan, Golub and LeVeque 1979), so the estimate depends on
  the seed and N alone, never on how many cores run the chunks;
- the chunks run on a thread pool (numpy's draws and ufuncs release the
  GIL) of W workers, one per usable CPU, capped so that at most _IN_FLIGHT
  shots are drawn at once whatever the core count. Each worker allocates
  one (uniforms, outputs) buffer pair and runs its chunks in it: the
  outputs are the transform's scratch, and then network.push takes the
  whole chunk in place from its normal rows into the outputs, with no
  array of its own. Chunks are submitted in order at most 2W ahead of the
  merge, so a run's memory does not grow with N.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .epr import SqueezingParams
from .jitter import PhaseJitter
from .network import PORTS, live_ports, push, seed_gains, transfer_matrix
from .teleporter import EfficiencyBudget, GainSettings

# shots per chunk of the jitter path, and so the length of one seed stream
# (see the module docstring); changing it changes every jitter estimate.
# Each worker holds one chunk's draws and outputs in buffers of its own, so
# _IN_FLIGHT, the most shots the workers hold at once, sets the peak memory
# of a jittered run on any number of cores
_CHUNK = 1 << 15
_IN_FLIGHT = 1 << 17
# strictly-lower entries of a full-rank Bartlett factor, the only shape a
# cell of 17 or more shots draws
_FULL_RANK_BELOW = np.tril_indices(PORTS, -1, PORTS)
# the jitter whose every rms is 0, which ChainConfig drops
_STILL_LOCK = PhaseJitter()


@dataclass(frozen=True)
class ChainConfig:
    """One Monte Carlo run: physics, sample count and seed."""

    squeezing: SqueezingParams = SqueezingParams()
    budget: EfficiencyBudget = EfficiencyBudget()
    gains: GainSettings = GainSettings()
    jitter: PhaseJitter | None = None
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2 for a sample variance, "
                             f"got {self.samples!r}")
        # a lock that never moves is the locked chain: it takes the Gaussian
        # path, which draws the Bartlett factor and has exact references
        if self.jitter == _STILL_LOCK:
            object.__setattr__(self, "jitter", None)


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class ChainEstimates:
    """Sample variances of the sender photocurrents, alice = (i_x, i_p), and
    of the verifier output, victor = (x_out, p_out), each with the Gaussian
    standard error s^2*sqrt(2/(N-1))."""

    alice: tuple[Estimate, Estimate]
    victor: tuple[Estimate, Estimate]


def simulate_chain(config: ChainConfig) -> ChainEstimates:
    """Run the chain and estimate the variances at both stations."""
    n_tot = config.samples
    if config.jitter is None:
        t = _unsqueezed_transfer(config.budget, config.gains).copy()
        t[:, :4] *= seed_gains(config.squeezing)
        ta = t @ _wishart_factor(np.random.default_rng(config.seed), n_tot - 1)
        variances = (ta * ta).sum(axis=1) / (n_tot - 1)
    else:
        variances = _jittered_variances(config)
    var_se = variances * math.sqrt(2.0 / (n_tot - 1))
    i_x, i_p, x_out, p_out = map(Estimate, variances.tolist(), var_se.tolist())
    return ChainEstimates(alice=(i_x, i_p), victor=(x_out, p_out))


# a preset holds a few dozen distinct (budget, gains) at most, so a small
# bound keeps every one of them
@functools.lru_cache(maxsize=32)
def _unsqueezed_transfer(budget: EfficiencyBudget, gains: GainSettings) -> np.ndarray:
    """The locked transfer matrix of the chain with vacuum seeds, read-only."""
    t = transfer_matrix(SqueezingParams(), budget, gains)
    t.flags.writeable = False
    return t


def _wishart_factor(rng, dof: int) -> np.ndarray:
    """A (PORTS, min(PORTS, dof)) lower-trapezoidal A with A A^T ~
    Wishart(dof, I): chi-square diagonal of falling degrees of freedom,
    unit normals below it. For dof < PORTS it is the LQ factor of a
    (PORTS, dof) Gaussian matrix, so the singular case needs no branch."""
    m = min(PORTS, dof)
    a = np.zeros((PORTS, m))
    a[np.diag_indices(m)] = np.sqrt(rng.chisquare(dof - np.arange(m)))
    below = _FULL_RANK_BELOW if m == PORTS else np.tril_indices(PORTS, -1, m)
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


def _box_muller(u, scratch):
    """Turn the uniforms u, shape (2, R, n) on [0, 1), into 2R rows of
    standard normals in place (Box and Muller 1958): u[0] becomes
    r cos(phi) and u[1] r sin(phi), with r = sqrt(-2 log(1 - u[0])) and
    phi = 2 pi u[1], in u's dtype. On a lattice of multiples of 2**-b, as
    Generator.random draws them (b = 24 in float32, 53 in float64), 1 - u[0]
    is exact and r is at most sqrt(2 b log 2). scratch is a flat buffer of
    at least R elements of u's dtype; u is transformed over column segments
    whose (R, width) cosine fills it, each in one pass per ufunc."""
    pairs, n = u.shape[1:]
    width = scratch.size // pairs
    for start in range(0, n, width):
        u0, u1 = u[:, :, start:start + width]
        cos = scratch[:u0.size].reshape(u0.shape)
        np.subtract(1.0, u0, out=u0)
        np.log(u0, out=u0)
        u0 *= -2.0
        np.sqrt(u0, out=u0)             # r
        u1 *= 2.0 * math.pi             # phi
        np.cos(u1, out=cos)
        np.sin(u1, out=u1)
        u1 *= u0                        # r sin(phi)
        u0 *= cos                       # r cos(phi)


def _jittered_variances(config: ChainConfig) -> np.ndarray:
    jit = config.jitter
    rms = (jit.theta_e_rms, jit.theta_ax_rms, jit.theta_ap_rms, jit.theta_b_rms)
    live = live_ports(config.budget)
    live_angles = [k for k, r in enumerate(rms) if r > 0.0]
    n_chunks = -(-config.samples // _CHUNK)

    rows = len(live) + len(live_angles)
    pairs = -(-rows // 2)
    workers = min(_workers(), n_chunks)
    # imported here: concurrent.futures loads logging, which the package's
    # cold start does without
    from concurrent.futures import ThreadPoolExecutor

    owned = threading.local()

    def chunk_moments(k):
        # moments of (i_x, i_p, x_out, p_out) over chunk k, drawn as the module
        # docstring lays out, in the one buffer pair of the pool thread
        # that runs it
        if not hasattr(owned, "buffers"):
            owned.buffers = (np.empty(2 * pairs * _CHUNK, np.float32),
                             np.empty(4 * _CHUNK, np.float32))
        uniform_buffer, output_buffer = owned.buffers
        n = min(_CHUNK, config.samples - k * _CHUNK)
        uniforms = uniform_buffer[:2 * pairs * n].reshape(2, pairs, n)
        outputs = output_buffer[:4 * n].reshape(4, n)
        stream = np.random.SeedSequence(config.seed, spawn_key=(k,))
        np.random.Generator(np.random.SFC64(stream)).random(out=uniforms,
                                                            dtype=np.float32)
        # the outputs are not written before the push, so they are the
        # transform's scratch
        _box_muller(uniforms, output_buffer)
        draws = uniforms.reshape(2 * pairs, n)[:rows]
        z = [0.0] * PORTS
        for port, row in zip(live, draws):
            z[port] = row
        angles = [0.0] * 4
        for a, row in zip(live_angles, draws[len(live):]):
            row *= rms[a]
            angles[a] = row
        push(z, config.squeezing, config.budget, config.gains, angles, outputs)
        # pairwise float32 sums within the chunk, merged across chunks in
        # float64
        mean = outputs.mean(axis=1)
        outputs -= mean[:, None]
        np.multiply(outputs, outputs, out=outputs)
        return n, mean.astype(np.float64), outputs.sum(axis=1).astype(np.float64)

    def in_chunk_order(pool):
        # chunks are submitted at most 2 * workers ahead of the merge, so a
        # run holds the same few futures and moments whatever its N
        ahead = collections.deque()
        for k in range(n_chunks):
            ahead.append(pool.submit(chunk_moments, k))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        for future in ahead:
            yield future.result()

    with ThreadPoolExecutor(workers) as pool:
        n_tot, _, m2 = functools.reduce(_merge_moments, in_chunk_order(pool))
    return m2 / (n_tot - 1)
