"""Randomized self-checks of the model's core identities.

Each check draws its cases from a seeded generator and reports a small
result record, so the same suite runs under pytest and from the command
line. Checks are deterministic per (seed, cases).

Case layout: a check's cases form a (cases, k) block of uniforms with one
column per random input and row i holding case i. The block is drawn and
turned into Python floats in slices of _SLICE rows, so a check's memory
does not grow with its case count, and every case then calls the public
scalar function under test once, as a caller would. The generator fills
the block row by row, so the slices hold the bits of the one-shot block,
and the first m cases of a run at n >= m cases are exactly the run at m
cases, with the same seed: a counterexample found at 1000 cases
reproduces at any smaller count that still reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epr import SqueezingParams, correlation_product
from .opo import BliiraTable, DetectionChain, OpoParams, squeezing_vs_pump, threshold
from .teleporter import CoherentAmplitude, fidelity
from .units import from_db, loss_channel, to_db


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    failures: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _result(name, cases, bad_examples):
    note = "" if not bad_examples else f"first counterexample: {bad_examples[0]}"
    return PropertyResult(name, cases, len(bad_examples), note)


# rows of a check's case block drawn and turned into Python floats at once:
# about 0.5 kB a case as floats, so some 30 MB at most
_SLICE = 1 << 16


def _draw(rng, cases: int, ranges):
    """The rows of one (cases, len(ranges)) block of uniform draws, as lists
    of Python floats, drawn _SLICE rows at a time.

    Column j is uniform on ranges[j] = (low, high) and row i is case i. The
    generator fills the block in row-major order, so the first m rows of a
    block of n >= m cases are the whole block of m cases, and the slices
    are the one-shot block.
    """
    low, high = zip(*ranges)
    for start in range(0, cases, _SLICE):
        rows = min(_SLICE, cases - start)
        yield from rng.uniform(low, high, size=(rows, len(ranges))).tolist()


def check_db_roundtrip(rng, cases: int) -> PropertyResult:
    """from_db(to_db(v)) returns v to 1e-12 relative over 12 decades."""
    bad = []
    for (log_v,) in _draw(rng, cases, ((-6.0, 6.0),)):
        v = 10.0 ** log_v
        rt = from_db(to_db(v))
        if abs(rt - v) > 1e-12 * v:
            bad.append(f"v={v!r} roundtrip={rt!r}")
    return _result("db_roundtrip", cases, bad)


def check_loss_composition(rng, cases: int) -> PropertyResult:
    """Two loss channels compose to one with the product transmission."""
    bad = []
    for log_v, t1, t2 in _draw(rng, cases, ((-3.0, 3.0), (0.0, 1.0), (0.0, 1.0))):
        v = 10.0 ** log_v
        chained = loss_channel(loss_channel(v, t1), t2)
        direct = loss_channel(v, t1 * t2)
        if abs(chained - direct) > 1e-12 * max(1.0, abs(direct)):
            bad.append(f"v={v!r} t1={t1!r} t2={t2!r}")
    return _result("loss_composition", cases, bad)


def check_epr_witness(rng, cases: int) -> PropertyResult:
    """var(x1-x2)*var(p1+p2) = 4 sigma_minus^2, below 4 iff squeezed."""
    bad = []
    for log_r, excess in _draw(rng, cases, ((-3.0, math.log10(2.0)), (0.0, 1.0))):
        r_minus = 10.0 ** log_r
        r_plus = r_minus + excess
        product = correlation_product(SqueezingParams(r_minus, r_plus))
        expected = 4.0 * math.exp(-4.0 * r_minus)
        if abs(product - expected) > 1e-9 * expected or not product < 4.0:
            bad.append(f"r_minus={r_minus!r} r_plus={r_plus!r} product={product!r}")
    # unsqueezed boundary: witness sits exactly at the separable bound
    if abs(correlation_product(SqueezingParams()) - 4.0) > 1e-12:
        bad.append("vacuum state: product != 4")
    return _result("epr_witness", cases, bad)


def check_fidelity_bounds(rng, cases: int) -> PropertyResult:
    """Fidelity stays in (0, 1] and never improves with amplitude mismatch."""
    bad = []
    two_pi = 2.0 * math.pi
    ranges = ((-1.5, 1.5), (0.0, 4.0),
              (0.0, 50.0), (0.0, two_pi), (0.0, 50.0), (0.0, two_pi))
    for balance, excess, p_in, phase_in, p_out, phase_out in _draw(rng, cases, ranges):
        # physical output states only: sx*sp >= 1, excess noise on top
        sx = math.exp(balance)
        sp = math.exp(-balance + excess)
        b_in = CoherentAmplitude(p_in, phase_in)
        b_out = CoherentAmplitude(p_out, phase_out)
        matched = fidelity(sx, sp, b_in, b_in)
        shifted = fidelity(sx, sp, b_in, b_out)
        if not (0.0 < shifted <= matched <= 1.0 + 1e-12):
            bad.append(f"sx={sx!r} sp={sp!r} matched={matched!r} shifted={shifted!r}")
    return _result("fidelity_bounds", cases, bad)


def check_uncertainty_preserved(rng, cases: int) -> PropertyResult:
    """sigma_plus*sigma_minus >= 1 out of the cavity and through any loss."""
    bad = []
    ranges = ((0.05, 0.2), (0.005, 0.05), (0.0, 0.01), (0.0, 0.02),  # cavity
              (0.8, 1.0), (0.8, 1.0), (0.8, 1.0),  # detection chain
              (0.0, 0.95), (0.5, 1.0))  # pump over threshold, extra loss
    for (t_coupler, e_nl, l_passive, extra, propagation, visibility, qe,
         pump_ratio, t) in _draw(rng, cases, ranges):
        opo = OpoParams(t_coupler=t_coupler, e_nl=e_nl, l_passive=l_passive,
                        bliira=BliiraTable.flat(extra))
        chain = DetectionChain(propagation=propagation, visibility=visibility,
                               quantum_efficiency=qe)
        pump = pump_ratio * threshold(opo)
        detected = squeezing_vs_pump(opo, chain, pump)
        product = detected.sigma_minus * detected.sigma_plus
        lossy = (loss_channel(detected.sigma_minus, t)
                 * loss_channel(detected.sigma_plus, t))
        if product < 1.0 - 1e-12 or lossy < 1.0 - 1e-12:
            bad.append(f"opo={opo!r} pump={pump!r} product={product!r} lossy={lossy!r}")
    return _result("uncertainty_preserved", cases, bad)


ALL_CHECKS = (
    check_db_roundtrip,
    check_loss_composition,
    check_epr_witness,
    check_fidelity_bounds,
    check_uncertainty_preserved,
)


# most cases per check: at the bound a run takes about 20 s, where an
# unbounded count would run without end
MAX_CASES = 10**6


def run_all(seed: int = 0, cases: int = 1000) -> list[PropertyResult]:
    """Run every check with an independent generator derived from seed.
    Raises ValueError, before any draw, for more than MAX_CASES cases."""
    if cases > MAX_CASES:
        raise ValueError(f"samples (cases per property) must be at most "
                         f"{MAX_CASES}, got {cases}")
    results = []
    for k, check in enumerate(ALL_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        results.append(check(rng, cases))
    return results
