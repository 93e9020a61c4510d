"""The benchmark's workloads and the checks on their outputs.

A workload is a sequence of passes; a pass is a list of `cli.main` argument
vectors run one after the other by a single closed-loop caller. Every input
is made from the workload seed. Each call's CSV is checked by the
workload's check function, which returns the number of samples (Monte
Carlo shots, or randomized property cases) the call produced, or raises
OutputError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("oracle-grid", "oracle-scan", "catalog")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "catalog.json"

# numeric CSV cells of the closed-form presets must match the reference to
# |a - b| <= RTOL * max(|a|, |b|) + ATOL; the CSV itself has 10 significant
# digits, so RTOL leaves room for last-digit rounding and reordered sums
RTOL = 1e-8
ATOL = 1e-12

# Monte Carlo cells must sit within Z_LIMIT standard errors of the closed
# form in at least MIN_WITHIN of the cells, as the oracle-grid preset demands
Z_LIMIT = 3.0
MIN_WITHIN = 0.95
GRID_CELLS = 118

# catalog passes cycle through this many --seed values made from the
# workload seed: the randomized property cases, and so the time properties
# takes, depend on the seed, and one run should average over that
CATALOG_SEEDS = 10


class OutputError(Exception):
    """A call's output failed the workload's check."""


@dataclass(frozen=True)
class Workload:
    name: str
    pass_argv: object         # pass_argv(k) -> argv lists of pass k
    warmup_argv: tuple        # untimed calls made before measuring
    check: object             # check(argv, csv_text) -> samples
    min_calls: int = 1        # fewest timed calls in an untraced run


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["presets"]


def _table(csv_text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(csv_text)))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare_to_reference(csv_text: str, reference_text: str, columns=None) -> None:
    """Every cell of `columns` (default all) matches the reference CSV:
    numbers to the stated tolerance, text exactly."""
    got, want = _table(csv_text), _table(reference_text)
    if len(got) != len(want):
        raise OutputError(f"{len(got) - 1} rows, reference has {len(want) - 1}")
    header = want[0]
    if columns is None:
        if got[0] != header:
            raise OutputError(f"header {got[0]} != reference {header}")
        columns = header
    for col in columns:
        if col not in got[0]:
            raise OutputError(f"column {col!r} missing")
    for row_no, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for col in columns:
            g = g_row[got[0].index(col)]
            w = w_row[header.index(col)]
            gn, wn = _number(g), _number(w)
            same = _close(gn, wn) if gn is not None and wn is not None else g == w
            if not same:
                raise OutputError(f"row {row_no} {col}: {g} != reference {w}")


def _finite(values, what: str) -> list[float]:
    numbers = [_number(v) for v in values]
    if any(x is None or not math.isfinite(x) for x in numbers):
        raise OutputError(f"non-finite {what}")
    return numbers


def _require_within(z_scores: list[float], expected_cells: int) -> None:
    if len(z_scores) != expected_cells:
        raise OutputError(f"{len(z_scores)} compared cells, expected {expected_cells}")
    within = sum(abs(z) <= Z_LIMIT for z in z_scores)
    if within < MIN_WITHIN * len(z_scores):
        raise OutputError(f"only {within}/{len(z_scores)} cells within "
                          f"{Z_LIMIT:g} standard errors")


def check_oracle_grid(samples: int):
    def check(argv, csv_text: str) -> int:
        rows = _table(csv_text)
        header, body = rows[0], rows[1:]
        col = {name: header.index(name) for name in
               ("config", "estimate", "stderr", "reference")}
        estimate = _finite([r[col["estimate"]] for r in body], "estimate")
        stderr = _finite([r[col["stderr"]] for r in body], "stderr")
        reference = _finite([r[col["reference"]] for r in body], "reference")
        if any(se <= 0.0 for se in stderr):
            raise OutputError("non-positive standard error")
        _require_within([(e - r) / se for e, r, se in zip(estimate, reference, stderr)],
                        GRID_CELLS)
        return samples * len({r[col["config"]] for r in body})
    return check


def check_oracle_scan(samples: int, fig2_reference: str):
    closed = ("squeezing_db", "victor_ideal_db", "alice_ideal_db", "victor_db",
              "alice_db")

    def check(argv, csv_text: str) -> int:
        compare_to_reference(csv_text, fig2_reference, closed)
        rows = _table(csv_text)
        header, body = rows[0], rows[1:]
        z_scores = []
        for station in ("victor", "alice"):
            mc = _finite([r[header.index(f"{station}_mc_db")] for r in body], "estimate")
            se = _finite([r[header.index(f"{station}_mc_se")] for r in body], "stderr")
            ref = [float(r[header.index(f"{station}_db")]) for r in body]
            if any(s <= 0.0 for s in se):
                raise OutputError("non-positive standard error")
            z_scores += [(m - c) / s for m, c, s in zip(mc, ref, se)]
        _require_within(z_scores, 2 * (len(_table(fig2_reference)) - 1))
        return samples * len(body)
    return check


def check_catalog(reference: dict):
    def check(argv, csv_text: str) -> int:
        preset = argv[1]
        compare_to_reference(csv_text, reference[preset])
        if preset != "properties":
            return 0
        rows = _table(csv_text)
        return sum(int(r[rows[0].index("cases")]) for r in rows[1:])
    return check


def build(name: str, seed: int, smoke: bool) -> Workload:
    """The named workload for this seed; smoke=True shrinks it for self-tests."""
    seed_args = ["--seed", str(seed)]
    if name == "oracle-grid":
        samples = 20_000 if smoke else 1_000_000
        argv = ["run", "oracle-grid", "--samples", str(samples)] + seed_args
        warm = ["run", "oracle-grid", "--samples", "2000"] + seed_args
        return Workload(name, lambda k: (argv,), (warm,), check_oracle_grid(samples))
    reference = load_reference()
    if name == "oracle-scan":
        samples = 5_000 if smoke else 100_000
        argv = ["run", "fig2", "--oracle", "--samples", str(samples)] + seed_args
        warm = ["run", "fig2", "--oracle", "--samples", "1000"] + seed_args
        return Workload(name, lambda k: (argv,), (warm,),
                        check_oracle_scan(samples, reference["fig2"]))
    if name == "catalog":
        def catalog_pass(k):
            # every preset once per pass, in an order shuffled afresh for
            # each pass, so no one order's cache and GC timing dominates
            order = sorted(reference)
            random.Random(f"catalog-{seed}-{k}").shuffle(order)
            call_seed = str(seed * CATALOG_SEEDS + k % CATALOG_SEEDS)
            return tuple(["run", preset, "--seed", call_seed] for preset in order)
        return Workload(name, catalog_pass, catalog_pass(0), check_catalog(reference),
                        min_calls=len(reference) if smoke else 1000)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
