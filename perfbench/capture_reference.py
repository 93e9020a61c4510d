"""Capture the closed-form reference outputs the catalog workload checks.

    python3 perfbench/capture_reference.py

Runs every preset except oracle-grid through `cli.main` with default
parameters and writes each CSV to perfbench/reference/catalog.json. Only
run it when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import ROOT, _git_commit, import_package
from workloads import ATOL, REFERENCE_PATH, RTOL

SEED = 12345


def main() -> int:
    cli = import_package()
    from cvteleport.scenarios import list_presets

    presets = {}
    for preset in list_presets():
        if preset.name == "oracle-grid":
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", preset.name, "--seed", str(SEED)])
        if code != 0:
            sys.stderr.write(f"error: {preset.name} exited {code}\n")
            return 1
        presets[preset.name] = out.getvalue()
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"git_commit": _git_commit(), "seed": SEED, "rtol": RTOL,
                   "atol": ATOL, "presets": presets}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(presets)} presets to {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
