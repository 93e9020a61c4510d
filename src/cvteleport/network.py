"""The teleportation chain as one linear optical network.

This module is the single description of the chain: the order of its
vacuum ports and the element-by-element push of quadratures through the
squeezers, the entangling beamsplitter, the sender's homodynes, the
feedforward, the receiver and the verifier. Every element is linear, so
`push` serves two jobs:

- applied to per-shot unit-variance draws z of shape (16, n), with
  optional per-shot lock angles, it is the phase-space Monte Carlo of the
  oracle (Wigner sampling is exact for this Gaussian chain);
- applied to the identity it gives the transfer matrix T, whose rows are
  (i_x, i_p, x_out, p_out) over the unit-variance ports, so T T^T is the
  exact output covariance at fixed angles (the covariance-matrix picture of
  Weedbrook et al., Gaussian quantum information, RMP 84, 621 (2012)).

push runs in place. Each element is a linear map on one or two quadrature
rows and overwrites them; a shot's arithmetic is the same whatever the
number of shots, so a slice of the columns pushes to the same bits as the
whole. push writes:

- the live port rows of z and the array angles, which it overwrites (an
  angle first with its sine), and nothing else of the caller's but out;
- out, whose four rows carry EPR beam 1 and then the feedforward before
  they hold (i_x, i_p, x_out, p_out);
- as scratch, only rows freed along the chain: the seed rows of beam 1
  once the EPR beamsplitter has read them, and the rows of out before
  they are written.

A dead port, one whose element is lossless, is never read, so the caller
may pass it as 0.0; the scalar 0.0 angle is the identity rotation and
costs nothing. push allocates no array the size of its rows, and it runs
in the dtype of its rows: every element writes into rows, and the
parameters enter as Python floats, which numpy takes in the rows' dtype.
So the oracle's float32 jitter chunks are pushed in float32, and
transfer_matrix's float64 rows in float64.

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
  fluctuations). An array angle's (cos, sin) comes from np.cos and
  np.sin, exactly (1, 0) at theta = 0. push takes any other angle as an
  array; transfer_matrix takes scalars and broadcasts them;
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


def _live(theta) -> bool:
    """Whether a lock angle of push rotates: an array angle does, and the
    scalar 0.0 is the identity rotation, which push leaves out."""
    if isinstance(theta, np.ndarray):
        return True
    if theta != 0.0:
        raise ValueError(f"push takes a lock angle as an array or the scalar 0.0, "
                         f"got {theta!r}; transfer_matrix takes any fixed angle")
    return False


def _cos_sin(theta, cos):
    """Overwrite the array angle theta with its sine and write its cosine
    into cos."""
    np.cos(theta, out=cos)
    np.sin(theta, out=theta)


def _rotate(x, p, theta, cos, scratch):
    """(x, p) <- (c x + s p, c p - s x) in place, at the array angle theta,
    which ends holding s x. cos and scratch are scratch rows."""
    _cos_sin(theta, cos)
    np.multiply(theta, p, out=scratch)      # s p
    p *= cos
    theta *= x                              # s x
    x *= cos
    x += scratch
    p -= theta


def _mix(a, b, difference):
    """The balanced beamsplitter: difference <- (a - b)/sqrt(2) and
    b <- (a + b)/sqrt(2). a is read only."""
    np.subtract(a, b, out=difference)
    b += a
    difference /= SQRT2
    b /= SQRT2


def _lossy(t, signal, port, feed=None):
    """t signal (+ feed) + leak(t) port, summed left to right, in place over
    feed when there is one and over signal otherwise. A unit t and a zero
    leak are left out: they are exact no-ops, so the port of a lossless
    element is never read."""
    if t != 1.0:
        signal *= t
    if feed is not None:
        feed += signal
        signal = feed
    leak = _leak(t)
    if leak > 0.0:
        port *= leak
        signal += port


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


def epr_stage(seeds, theta_e, beam_1):
    """The EPR beamsplitter, in place on the four squeezed seed rows
    (x1, p1, x2, p2): beam 2 is rotated by theta_e, then the two interfere
    as mode_1 = (b1 - b2)/sqrt(2), mode_2 = (b1 + b2)/sqrt(2). Mode 1 is
    written into the two rows of beam_1, the rotation's scratch before
    that; mode 2 overwrites beam 2's rows, and beam 1's rows are then free.
    """
    x1, p1, x2, p2 = seeds
    mode_x, mode_p = beam_1
    if _live(theta_e):
        _rotate(x2, p2, theta_e, mode_x, mode_p)
    _mix(x1, x2, mode_x)
    _mix(p1, p2, mode_p)


def push(z, squeezing, budget, gains, angles, out):
    """Push the 16 port quadratures z through the chain, in place.

    z holds one writable row per live port and anything, such as 0.0, for
    the dead ones, which are never read. angles is (theta_e, theta_ax,
    theta_ap, theta_b) in radians, each a writable row or the scalar 0.0.
    All rows share one shape. The sender's two photocurrents and the
    verifier's two quadratures (i_x, i_p, x_out, p_out) are written into
    the four rows of out; the live rows of z and angles are overwritten.
    """
    b = budget
    den_x, den_p = feedforward_transmissions(b)
    theta_e, theta_ax, theta_ap, theta_b = angles
    # a bad angle is refused before any row is written
    _, live_ax, live_ap, live_b = map(_live, angles)
    (x1_0, p1_0, x2, p2, in_x, in_p, w1x, w1p, n_ax, n_ap,
     w4x, w4p, wbx, wbp, w5x, w5p) = z
    i_x, i_p, x_out, p_out = out
    for seed, gain in zip((x1_0, p1_0, x2, p2), seed_gains(squeezing)):
        seed *= gain
    # EPR beam 1 goes to the verifier's rows until the feedforward; the
    # rows of its seeds are the scratch of the lock angles below
    epr_stage((x1_0, p1_0, x2, p2), theta_e, (x_out, p_out))
    x1, p1 = x_out, p_out

    # sender: EPR beam 1 overlap, balanced mixing with the input,
    # homodyne lock angles, arm efficiencies. i_x reads the difference
    # port (xu, pu) = (in - beam 1)/sqrt(2), i_p the sum port (xv, pv)
    # = (in + beam 1)/sqrt(2), and pu and xv only through a live angle
    _lossy(b.xi1, x1, w1x)
    _lossy(b.xi1, p1, w1p)
    np.subtract(in_x, x1, out=i_x)          # xu
    i_x /= SQRT2
    np.add(in_p, p1, out=i_p)               # pv
    i_p /= SQRT2
    if live_ax:
        in_p -= p1                          # pu
        in_p /= SQRT2
        _cos_sin(theta_ax, x1_0)
        i_x *= x1_0
        theta_ax *= in_p
        i_x += theta_ax                     # c xu + s pu
    if live_ap:
        x1 += in_x                          # xv
        x1 /= SQRT2
        _cos_sin(theta_ap, x1_0)
        i_p *= x1_0
        theta_ap *= x1
        i_p -= theta_ap                     # c pv - s xv
    _lossy(b.xi2 * b.eta_ax, i_x, n_ax)
    _lossy(b.xi3 * b.eta_ap, i_p, n_ap)

    # receiver: EPR beam 2 propagation, displacement phase, splitter; the
    # displacement is set by the normalized gain, so neither the raw gain
    # nor the splitter's transmission appears
    _lossy(b.xi4, x2, w4x)
    _lossy(b.xi4, p2, w4p)
    if live_b:
        _rotate(x2, p2, theta_b, x1_0, p1_0)
    np.multiply(i_x, SQRT2 * gains.g_x / den_x, out=x_out)
    np.multiply(i_p, SQRT2 * gains.g_p / den_p, out=p_out)
    _lossy(b.r_b, x2, wbx, x_out)
    _lossy(b.r_b, p2, wbp, p_out)

    # verifier chain
    v_t = b.xi5 * b.eta_v
    _lossy(v_t, x_out, w5x)
    _lossy(v_t, p_out, w5p)


def transfer_matrix(squeezing, budget, gains, angles=LOCKED) -> np.ndarray:
    """Transfer matrix T from the 16 ports to (i_x, i_p, x_out, p_out).

    Shape (4, 16) for scalar angles; array angles of common shape S give
    shape S + (4, 16). The covariance of the four outputs is T T^T.
    """
    stack = np.broadcast(*angles).shape
    shape = stack + (PORTS,)
    # one identity row per port, and each angle but the scalar 0.0, which
    # push leaves out, copied out to the row shape, so that push may
    # overwrite both
    state = np.empty((PORTS,) + shape)
    state[...] = np.eye(PORTS).reshape((PORTS,) + (1,) * len(stack) + (PORTS,))
    rows = [0.0] * len(angles)
    for k, theta in enumerate(angles):
        if np.ndim(theta) > 0 or theta != 0.0:
            rows[k] = np.empty(shape)
            rows[k][...] = np.asarray(theta)[..., None]
    out = np.empty((4,) + shape)
    push(state, squeezing, budget, gains, rows, out)
    return np.moveaxis(out, 0, -2)


def lock_curvatures(squeezing, budget, gains) -> np.ndarray:
    """Half the second derivative of each output variance along each lock
    angle at the lock point, shape (4, 4): row k is the angle k of
    (theta_e, theta_ax, theta_ap, theta_b), column j the output j of
    (i_x, i_p, x_out, p_out).

    Each angle enters T through one rotation, so along it, with the others
    at 0, T = A + B cos(theta) + C sin(theta). One stacked transfer_matrix
    at theta = 0, pi/2 and pi gives B = (T(0) - T(pi))/2 and
    C = T(pi/2) - (T(0) + T(pi))/2, and then half the second derivative of
    a squared entry at 0 is C^2 - T(0) B. A small Gaussian jitter of rms
    sigma on the angle raises the variance by that curvature times sigma^2.
    """
    nodes = np.eye(4)[..., None] * (0.0, math.pi / 2.0, math.pi)
    t = transfer_matrix(squeezing, budget, gains, tuple(nodes))
    t_0, t_half, t_pi = np.moveaxis(t, 1, 0)
    b = (t_0 - t_pi) / 2.0
    c = t_half - (t_0 + t_pi) / 2.0
    return (c * c - t_0 * b).sum(axis=-1)
