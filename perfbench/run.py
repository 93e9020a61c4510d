"""cvteleport benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the workload runs untraced in one closed
loop for --seconds and the end-to-end metrics are reported. With --trace 1
the workload runs untraced for half of --seconds, then the same passes run
again with every cross-module call traced, and the per-layer metrics are
reported. The last line of stdout is the result object; the lines before it
give provenance and sample counts. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# chunk shape of the Monte Carlo draws at the commit that defined the
# benchmark: 18 vacuum ports x 2**18 shots; the probe keeps this fixed
PROBE_SHAPE = (18, 1 << 18)
PROBE_REPEATS = 5
SETUP_REPEATS = 10
IMPORTTIME_REPEATS = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Counter:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(" | ".join(reason.splitlines()))


def _cli_process(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable] + args, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, done


def time_setup(counter: Counter, preset_names, repeats: int) -> list[float]:
    """Wall times of `repeats` fresh `python -m cvteleport list` runs."""
    times = []
    for _ in range(repeats):
        elapsed, done = _cli_process(["-m", "cvteleport", "list"])
        listed = {line.split()[0] for line in done.stdout.splitlines() if line.strip()}
        missing = set(preset_names) - listed
        reason = None
        if done.returncode != 0:
            reason = f"list exited {done.returncode}: {done.stderr.strip()[-200:]}"
        elif missing:
            reason = f"list is missing {sorted(missing)}"
        counter.record(reason)
        times.append(elapsed)
    return times


def measure_import_times(counter: Counter, repeats: int) -> tuple[float, float]:
    """Median cumulative import time of numpy and of cvteleport, from
    `python -X importtime`."""
    numpy_s, package_s = [], []
    for k in range(repeats + 1):
        _, done = _cli_process(["-X", "importtime", "-c", "import cvteleport"])
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                value = parts[1].strip()
                if value.isdigit():
                    cumulative[parts[2].strip()] = int(value) * 1e-6
        ok = done.returncode == 0 and {"numpy", "cvteleport"} <= cumulative.keys()
        counter.record(None if ok else f"importtime failed: {done.stderr.strip()[-200:]}")
        if k and ok:
            numpy_s.append(cumulative["numpy"])
            package_s.append(cumulative["cvteleport"])
    if not numpy_s:
        return 0.0, 0.0
    return statistics.median(numpy_s), statistics.median(package_s)


def probe_draw_chunk(seed: int) -> float:
    """Median time of one standard-normal draw of the fixed chunk shape."""
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        rng.standard_normal(PROBE_SHAPE)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call(main, argv) -> tuple[float, int | None, str, str]:
    """One closed-loop call of cli.main with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, workload, counter: Counter):
        self.workload = workload
        self.counter = counter
        self.first_output: dict[tuple, str] = {}

    def run_call(self, main, argv) -> tuple[float, int]:
        elapsed, code, csv_text, err_text = call(main, argv)
        reason, samples = None, 0
        if code != 0:
            reason = f"{' '.join(argv)}: exit {code}: {err_text.strip()[-300:]}"
        else:
            try:
                samples = self.workload.check(argv, csv_text)
            except Exception as exc:
                reason = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
            first = self.first_output.setdefault(tuple(argv), csv_text)
            if reason is None and first != csv_text:
                reason = f"{' '.join(argv)}: output differs between calls with one seed"
        self.counter.record(reason)
        return elapsed, samples

    def warm_up(self, main) -> None:
        """Untimed, unchecked calls; a broken program shows in the timed ones."""
        for argv in self.workload.warmup_argv:
            call(main, argv)

    def run_passes(self, main, seconds: float, min_calls: int = 1,
                   passes=None) -> list[dict]:
        """Closed loop: whole passes until `seconds` have elapsed and
        min_calls calls are done, or exactly `passes` passes."""
        results = []
        calls = 0
        t0 = time.perf_counter()
        while True:
            if passes is not None:
                if len(results) == passes:
                    break
            elif results and time.perf_counter() - t0 >= seconds and calls >= min_calls:
                break
            latencies, samples, presets = [], 0, []
            for argv in self.workload.pass_argv(len(results)):
                elapsed, n = self.run_call(main, argv)
                latencies.append(elapsed)
                presets.append(argv[1])
                samples += n
                calls += 1
            results.append({"wall": sum(latencies), "latencies": latencies,
                            "presets": presets, "samples": samples})
        return results


def end_to_end_metrics(passes: list[dict], setup_s: float, counter: Counter) -> dict:
    latencies = [t for p in passes for t in p["latencies"]]
    by_preset: dict[str, list[float]] = {}
    for p in passes:
        for preset, t in zip(p["presets"], p["latencies"]):
            by_preset.setdefault(preset, []).append(t)
    # every preset runs equally often, so the call median lies between the
    # medians of the two middle presets; the median of the per-preset medians
    # puts it at their midpoint instead of on whichever single calls happen
    # to straddle the gap between them
    p50 = statistics.median(statistics.median(ts) for ts in by_preset.values())
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "shots_per_s": (statistics.median(p["samples"] / p["wall"] for p in passes),
                        "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p99_ms": (float(np.percentile(latencies, 99)) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
        "success_rate": ((counter.attempted - counter.failed) / counter.attempted,
                         "ratio"),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_bytes() -> int | None:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024 ** 2}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def provenance(args) -> dict:
    import cvteleport

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "cvteleport": cvteleport.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import cvteleport from this checkout's src/, and from nowhere else."""
    if not (SRC / "cvteleport" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvteleport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvteleport
    from cvteleport import cli

    if Path(cvteleport.__file__).resolve().parent != SRC / "cvteleport":
        raise SystemExit(f"error: cvteleport imported from {cvteleport.__file__}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    workload = workloads.build(args.workload, args.seed, args.smoke)
    counter = Counter()
    runner = Runner(workload, counter)
    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)

    if args.trace == 0:
        # half the set-up runs before the workload and half after, so the
        # median spans the whole run; the first run fills the bytecode cache
        half = 1 if args.smoke else SETUP_REPEATS // 2
        presets = list(workloads.load_reference()) + ["oracle-grid"]
        time_setup(counter, presets, 1)
        setup_times = time_setup(counter, presets, half)
        runner.warm_up(cli.main)
        passes = runner.run_passes(cli.main, args.seconds, workload.min_calls)
        setup_times += time_setup(counter, presets, half)
        setup_runs = len(setup_times)
        metrics = end_to_end_metrics(passes, statistics.median(setup_times), counter)
        print(f"samples passes={len(passes)} "
              f"calls={sum(len(p['latencies']) for p in passes)} setup_runs={setup_runs}")
    else:
        numpy_s, package_s = measure_import_times(
            counter, 1 if args.smoke else IMPORTTIME_REPEATS)
        draw_s = probe_draw_chunk(args.seed)
        runner.warm_up(cli.main)
        plain = runner.run_passes(cli.main, args.seconds / 2.0)
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main, fails=lambda code: code != 0)
        tracer.install()
        try:
            traced = runner.run_passes(traced_main, 0, passes=len(plain))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(traced))
        metrics["oracle.probe.draw_chunk_s"] = (draw_s, "s")
        metrics["oracle.probe.draw_chunk_bytes"] = (
            float(math.prod(PROBE_SHAPE) * 8), "B")
        metrics["setup.import_numpy_s"] = (numpy_s, "s")
        metrics["setup.import_cvteleport_s"] = (package_s, "s")
        overhead = sum(p["wall"] for p in traced) - sum(p["wall"] for p in plain)
        metrics["trace.overhead_s"] = (overhead / len(traced), "s")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.csv.gz"
        tracer.write(trace_path, info)
        print(f"samples passes={len(traced)} spans={len(tracer.start)} "
              f"trace={trace_path.relative_to(ROOT)}")

    for reason in counter.reasons:
        print(f"failure {reason}")
    correct = counter.failed == 0
    result = {
        "correct": correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
