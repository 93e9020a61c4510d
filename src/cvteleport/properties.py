"""Randomized self-checks of the model's core identities.

Each check draws its cases from a seeded generator and reports a small
result record, so the same suite runs under pytest and from the command
line. Checks are deterministic per (seed, cases).
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


def check_db_roundtrip(rng, cases: int) -> PropertyResult:
    """from_db(to_db(v)) returns v to 1e-12 relative over 12 decades."""
    bad = []
    values = 10.0 ** rng.uniform(-6.0, 6.0, size=cases)
    for v in values:
        rt = from_db(to_db(float(v)))
        if abs(rt - v) > 1e-12 * v:
            bad.append(f"v={v!r} roundtrip={rt!r}")
    return _result("db_roundtrip", cases, bad)


def check_loss_composition(rng, cases: int) -> PropertyResult:
    """Two loss channels compose to one with the product transmission."""
    bad = []
    for _ in range(cases):
        v = float(10.0 ** rng.uniform(-3.0, 3.0))
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = float(rng.uniform(0.0, 1.0))
        chained = loss_channel(loss_channel(v, t1), t2)
        direct = loss_channel(v, t1 * t2)
        if abs(chained - direct) > 1e-12 * max(1.0, abs(direct)):
            bad.append(f"v={v!r} t1={t1!r} t2={t2!r}")
    return _result("loss_composition", cases, bad)


def check_epr_witness(rng, cases: int) -> PropertyResult:
    """var(x1-x2)*var(p1+p2) = 4 sigma_minus^2, below 4 iff squeezed."""
    bad = []
    for _ in range(cases):
        r_minus = float(10.0 ** rng.uniform(-3.0, math.log10(2.0)))
        r_plus = r_minus + float(rng.uniform(0.0, 1.0))
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
    for _ in range(cases):
        # physical output states only: sx*sp >= 1, excess noise on top
        balance = float(rng.uniform(-1.5, 1.5))
        excess = float(rng.uniform(0.0, 4.0))
        sx = math.exp(balance)
        sp = math.exp(-balance + excess)
        b_in = CoherentAmplitude(float(rng.uniform(0.0, 50.0)),
                                 float(rng.uniform(0.0, 2.0 * math.pi)))
        b_out = CoherentAmplitude(float(rng.uniform(0.0, 50.0)),
                                  float(rng.uniform(0.0, 2.0 * math.pi)))
        matched = fidelity(sx, sp, b_in, b_in)
        shifted = fidelity(sx, sp, b_in, b_out)
        if not (0.0 < shifted <= matched <= 1.0 + 1e-12):
            bad.append(f"sx={sx!r} sp={sp!r} matched={matched!r} shifted={shifted!r}")
    return _result("fidelity_bounds", cases, bad)


def check_uncertainty_preserved(rng, cases: int) -> PropertyResult:
    """sigma_plus*sigma_minus >= 1 out of the cavity and through any loss."""
    bad = []
    for _ in range(cases):
        opo = OpoParams(
            t_coupler=float(rng.uniform(0.05, 0.2)),
            e_nl=float(rng.uniform(0.005, 0.05)),
            l_passive=float(rng.uniform(0.0, 0.01)),
            bliira=BliiraTable.flat(float(rng.uniform(0.0, 0.02))),
        )
        chain = DetectionChain(
            propagation=float(rng.uniform(0.8, 1.0)),
            visibility=float(rng.uniform(0.8, 1.0)),
            quantum_efficiency=float(rng.uniform(0.8, 1.0)),
        )
        pump = float(rng.uniform(0.0, 0.95)) * threshold(opo)
        detected = squeezing_vs_pump(opo, chain, pump)
        product = detected.sigma_minus * detected.sigma_plus
        t = float(rng.uniform(0.5, 1.0))
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


def run_all(seed: int = 0, cases: int = 1000) -> list[PropertyResult]:
    """Run every check with an independent generator derived from seed."""
    results = []
    for k, check in enumerate(ALL_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        results.append(check(rng, cases))
    return results
