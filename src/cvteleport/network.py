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
  fluctuations).
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


def _cos_sin(theta):
    return np.cos(theta), np.sin(theta)


def feedforward_transmissions(budget) -> tuple[float, float]:
    """Amplitude transmissions from the sender's x and p detectors to the
    verifier: (xi2 xi5 eta_ax eta_v, xi3 xi5 eta_ap eta_v).

    They set the raw gain that realizes a normalized gain; raises when
    either is zero, since no finite gain then reaches the verifier.
    """
    den_x = budget.xi2 * budget.xi5 * budget.eta_ax * budget.eta_v
    den_p = budget.xi3 * budget.xi5 * budget.eta_ap * budget.eta_v
    if den_x == 0.0 or den_p == 0.0:
        raise ValueError("zero efficiency in the feedforward path, gain undefined")
    return den_x, den_p


def epr_source(seeds, squeezing, theta_e=0.0):
    """EPR beams (x1, p1, x2, p2) from the four squeezer seed quadratures.

    Beam 1's seed is anti-squeezed in x and squeezed in p, beam 2's the
    reverse; beam 2 is rotated by theta_e, then the two interfere as
    mode_1 = (b1 - b2)/sqrt(2), mode_2 = (b1 + b2)/sqrt(2).
    """
    x1_0, p1_0, x2_0, p2_0 = seeds
    e_minus = math.exp(-squeezing.r_minus)
    e_plus = math.exp(squeezing.r_plus)
    ce, se = _cos_sin(theta_e)
    x1s = e_plus * x1_0
    p1s = e_minus * p1_0
    x2s = e_minus * x2_0
    p2s = e_plus * p2_0
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
    leak1 = _leak(b.xi1)
    x1l = b.xi1 * x1 + leak1 * w1x
    p1l = b.xi1 * p1 + leak1 * w1p
    xu = (in_x - x1l) / SQRT2
    pu = (in_p - p1l) / SQRT2
    xv = (in_x + x1l) / SQRT2
    pv = (in_p + p1l) / SQRT2
    ax_t = b.xi2 * b.eta_ax
    ap_t = b.xi3 * b.eta_ap
    cax, sax = _cos_sin(theta_ax)
    cap, sap = _cos_sin(theta_ap)
    i_x = ax_t * (cax * xu + sax * pu) + _leak(ax_t) * n_ax
    i_p = ap_t * (cap * pv - sap * xv) + _leak(ap_t) * n_ap

    # receiver: EPR beam 2 propagation, displacement phase, splitter; the
    # displacement is set by the normalized gain, so neither the raw gain
    # nor the splitter's transmission appears
    leak4 = _leak(b.xi4)
    x2l = b.xi4 * x2 + leak4 * w4x
    p2l = b.xi4 * p2 + leak4 * w4p
    cb, sb = _cos_sin(theta_b)
    x2b = cb * x2l + sb * p2l
    p2b = cb * p2l - sb * x2l
    disp_x = SQRT2 * gains.g_x / den_x
    disp_p = SQRT2 * gains.g_p / den_p
    leak_b = _leak(b.r_b)
    x_bob = b.r_b * x2b + disp_x * i_x + leak_b * wbx
    p_bob = b.r_b * p2b + disp_p * i_p + leak_b * wbp

    # verifier chain
    v_t = b.xi5 * b.eta_v
    v_leak = _leak(v_t)
    x_out = v_t * x_bob + v_leak * w5x
    p_out = v_t * p_bob + v_leak * w5p
    return i_x, i_p, x_out, p_out


def transfer_matrix(squeezing, budget, gains, angles=LOCKED) -> np.ndarray:
    """Transfer matrix T from the 16 ports to (i_x, i_p, x_out, p_out).

    Shape (4, 16) for scalar angles; array angles of common shape S give
    shape S + (4, 16). The covariance of the four outputs is T T^T.
    """
    angles = tuple(np.asarray(theta, dtype=float)[..., None] for theta in angles)
    rows = push(np.eye(PORTS), squeezing, budget, gains, angles)
    return np.stack(np.broadcast_arrays(*rows), axis=-2)
