"""The teleportation chain as one linear optical network.

This module is the single description of the chain: the order of its
vacuum ports and the element-by-element push of quadratures through the
squeezers, the entangling beamsplitter, the sender's homodynes, the
feedforward, the receiver and the verifier. Every element is linear, so
`push` serves two jobs:

- applied to per-shot unit-variance draws z of shape (16, n), with
  optional per-shot lock angles, it is the phase-space Monte Carlo of the
  oracle (Wigner sampling is exact for this Gaussian chain);
- applied to np.eye(16) it gives the transfer matrix T, whose rows are
  (i_x, i_p, x_out, p_out) over the unit-variance ports, so T T^T is the
  exact output covariance at fixed angles (the covariance-matrix picture of
  Weedbrook et al., Gaussian quantum information, RMP 84, 621 (2012)).

The squeezers are the chain's first element and act on the four seed
ports alone, each scaling its seed by one entry of seed_gains. So T
factors at any lock angles, scalar or array:

  T(sq, budget, gains, angles)
      = T(vacuum, budget, gains, angles) . diag(*seed_gains(sq), 1, ..., 1),

which lets the oracle push the network once per budget and gains and
scale the four seed columns per squeezing.

Parameters are read by attribute only (squeezing.r_minus, budget.xi1,
gains.g_x, ...) and nothing here uses a closed-form variance, so the
Monte Carlo stays an independent check of teleporter and jitter.

Port order, each a unit-variance vacuum quadrature:
  0-3    x1_0, p1_0, x2_0, p2_0   seeds of the two squeezers
  4-5    x_in, p_in               input signal fluctuations
  6-7    w1_x, w1_p               loss port of the xi1 overlap
  8-9    n_ax, n_ap               loss ports of the sender's x and p arms
  10-11  w4_x, w4_p               loss port of EPR beam 2's xi4 overlap
  12-13  wb_x, wb_p               receiver beamsplitter's open port
  14-15  w5_x, w5_p               loss port of the verifier

Conventions:
- the mode-overlap xi1 attenuates EPR beam 1 (not the input signal); this
  is the placement that reproduces the chain variance term-by-term, with
  the input entering at weight g and the EPR beam at g*xi1;
- the receiver's displacement beamsplitter reflects EPR beam 2 with
  amplitude r_b and admits vacuum through one open port of amplitude
  sqrt(1 - r_b^2); that port carries the displacement beam's own vacuum
  and any extra receiver loss, which only ever enter together;
- the lock angles (theta_e, theta_ax, theta_ap, theta_b) may be arrays;
  the Monte Carlo resamples them per shot (quasi-static servo
  fluctuations). An array angle's (cos, sin) comes from t = tan(theta/2)
  as ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)), within 4.5e-16 of np.cos and
  np.sin and exactly (1, 0) at theta = 0; a scalar angle uses math.cos
  and math.sin;
- every lossy element is t * signal + sqrt(1 - t^2) * port, and push
  leaves out a unit t and a zero leak, both exact no-ops. On the ideal
  chain that is a third of a shot's array arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
PORTS = 16
LOCKED = (0.0, 0.0, 0.0, 0.0)


def _leak(t):
    # amplitude of the vacuum admixed by an element of amplitude transmission t
    return math.sqrt(max(0.0, 1.0 - t ** 2))


def live_ports(budget) -> tuple[int, ...]:
    """Ports that can reach an output: the squeezer seeds, the input, and
    each loss port whose element leaks. push leaves out the loss port of a
    lossless element, so every other column of transfer_matrix is exactly
    zero; the ideal chain has ports 0-5 only."""
    b = budget
    leaks = (_leak(b.xi1), _leak(b.xi1), _leak(b.xi2 * b.eta_ax),
             _leak(b.xi3 * b.eta_ap), _leak(b.xi4), _leak(b.xi4),
             _leak(b.r_b), _leak(b.r_b), _leak(b.xi5 * b.eta_v),
             _leak(b.xi5 * b.eta_v))
    return tuple(range(6)) + tuple(6 + k for k, leak in enumerate(leaks) if leak > 0.0)


def _cos_sin(theta):
    if isinstance(theta, float):
        # a scalar angle, such as the locked 0.0, keeps the arithmetic in
        # plain floats
        return math.cos(theta), math.sin(theta)
    # one tan of the half angle costs about a third of a cos and a sin; at
    # theta = 0 it gives exactly (1, 0)
    t = np.tan(0.5 * theta)
    t2 = t * t
    d = 1.0 + t2
    return (1.0 - t2) / d, (t + t) / d


def _lossy(t, signal, port, feed=None):
    """t signal (+ feed) + leak(t) port, summed left to right. A unit t
    and a zero leak are left out: they are exact no-ops."""
    out = signal if t == 1.0 else t * signal
    if feed is not None:
        out = out + feed
    leak = _leak(t)
    return out + leak * port if leak > 0.0 else out


def feedforward_transmissions(budget) -> tuple[float, float]:
    """Amplitude transmissions from the sender's x and p detectors to the
    verifier: (xi2 xi5 eta_ax eta_v, xi3 xi5 eta_ap eta_v).

    push divides each normalized gain by its transmission to get the
    receiver's displacement; raises when either is zero, since no finite
    displacement then realizes the gain.
    """
    den_x = budget.xi2 * budget.xi5 * budget.eta_ax * budget.eta_v
    den_p = budget.xi3 * budget.xi5 * budget.eta_ap * budget.eta_v
    if den_x == 0.0 or den_p == 0.0:
        raise ValueError("zero efficiency in the feedforward path, gain undefined")
    return den_x, den_p


def seed_gains(squeezing) -> tuple[float, float, float, float]:
    """The squeezers' gains on the seeds (x1_0, p1_0, x2_0, p2_0):
    (e^r+, e^-r-, e^-r-, e^r+). Beam 1's seed is anti-squeezed in x and
    squeezed in p, beam 2's the reverse."""
    e_minus = math.exp(-squeezing.r_minus)
    e_plus = math.exp(squeezing.r_plus)
    return e_plus, e_minus, e_minus, e_plus


def epr_source(seeds, squeezing, theta_e=0.0):
    """EPR beams (x1, p1, x2, p2) from the four squeezer seed quadratures.

    The seeds are scaled by seed_gains; beam 2 is rotated by theta_e, then
    the two interfere as mode_1 = (b1 - b2)/sqrt(2),
    mode_2 = (b1 + b2)/sqrt(2).
    """
    x1_0, p1_0, x2_0, p2_0 = seeds
    g_x1, g_p1, g_x2, g_p2 = seed_gains(squeezing)
    x1s = g_x1 * x1_0
    p1s = g_p1 * p1_0
    x2s = g_x2 * x2_0
    p2s = g_p2 * p2_0
    ce, se = _cos_sin(theta_e)
    x2rot = ce * x2s + se * p2s
    p2rot = ce * p2s - se * x2s
    return ((x1s - x2rot) / SQRT2, (p1s - p2rot) / SQRT2,
            (x1s + x2rot) / SQRT2, (p1s + p2rot) / SQRT2)


def push(z, squeezing, budget, gains, angles=LOCKED):
    """Push the 16 port quadratures z through the chain.

    angles is (theta_e, theta_ax, theta_ap, theta_b) in radians, scalars or
    arrays broadcasting against the rows of z. Returns (i_x, i_p, x_out,
    p_out): the sender's two photocurrents and the verifier's two
    quadratures.
    """
    (x1_0, p1_0, x2_0, p2_0, in_x, in_p, w1x, w1p, n_ax, n_ap,
     w4x, w4p, wbx, wbp, w5x, w5p) = z
    theta_e, theta_ax, theta_ap, theta_b = angles
    b = budget
    den_x, den_p = feedforward_transmissions(b)
    x1, p1, x2, p2 = epr_source((x1_0, p1_0, x2_0, p2_0), squeezing, theta_e)

    # sender: EPR beam 1 overlap, balanced mixing with the input,
    # homodyne lock angles, arm efficiencies
    x1l = _lossy(b.xi1, x1, w1x)
    p1l = _lossy(b.xi1, p1, w1p)
    xu = (in_x - x1l) / SQRT2
    pu = (in_p - p1l) / SQRT2
    xv = (in_x + x1l) / SQRT2
    pv = (in_p + p1l) / SQRT2
    ax_t = b.xi2 * b.eta_ax
    ap_t = b.xi3 * b.eta_ap
    cax, sax = _cos_sin(theta_ax)
    cap, sap = _cos_sin(theta_ap)
    i_x = _lossy(ax_t, cax * xu + sax * pu, n_ax)
    i_p = _lossy(ap_t, cap * pv - sap * xv, n_ap)

    # receiver: EPR beam 2 propagation, displacement phase, splitter; the
    # displacement is set by the normalized gain, so neither the raw gain
    # nor the splitter's transmission appears
    x2l = _lossy(b.xi4, x2, w4x)
    p2l = _lossy(b.xi4, p2, w4p)
    cb, sb = _cos_sin(theta_b)
    x2b = cb * x2l + sb * p2l
    p2b = cb * p2l - sb * x2l
    disp_x = SQRT2 * gains.g_x / den_x
    disp_p = SQRT2 * gains.g_p / den_p
    x_bob = _lossy(b.r_b, x2b, wbx, disp_x * i_x)
    p_bob = _lossy(b.r_b, p2b, wbp, disp_p * i_p)

    # verifier chain
    v_t = b.xi5 * b.eta_v
    x_out = _lossy(v_t, x_bob, w5x)
    p_out = _lossy(v_t, p_bob, w5p)
    return i_x, i_p, x_out, p_out


def transfer_matrix(squeezing, budget, gains, angles=LOCKED) -> np.ndarray:
    """Transfer matrix T from the 16 ports to (i_x, i_p, x_out, p_out).

    Shape (4, 16) for scalar angles; array angles of common shape S give
    shape S + (4, 16). The covariance of the four outputs is T T^T.
    """
    angles = tuple(np.asarray(theta, dtype=float)[..., None] for theta in angles)
    rows = push(np.eye(PORTS), squeezing, budget, gains, angles)
    return np.stack(np.broadcast_arrays(*rows), axis=-2)
