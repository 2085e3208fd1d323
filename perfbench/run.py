"""Benchmark of the paretogames package: one workload per run.

    python3 perfbench/run.py --workload vi-fig3 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of one traced pass, and the spans of that pass are written
to ``.perfbench/spans/``.  See README.md next to this file for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUPS = 9
# Host speed: the median time of ``speed_kernel`` on the host the baseline
# was measured on, and how often a run times the kernel between its units.
REFERENCE_KERNEL_S = 0.006
KERNEL_EVERY_S = 0.5
KERNEL_MODULUS = 10**300

import tracing  # noqa: E402  (the script's directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

# Printed on workloads that run no value iteration, so that the value is
# never 0; a constant cannot regress.
NOT_APPLICABLE = 1

UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_p99": "s",
    "residual_bits": "bits", "sweeps": "count", "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import the package anew from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "paretogames" or m.startswith("paretogames.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pg = importlib.import_module("paretogames")
    importlib.import_module("paretogames.cli")
    if SRC.resolve() not in Path(pg.__file__).resolve().parents:
        raise SystemExit(f"error: paretogames was imported from {pg.__file__}, not {SRC}")
    return pg


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:3]]


def run_unit(unit):
    """Time one unit; returns (seconds, outcome, error text or None)."""
    start = time.perf_counter()
    try:
        outcome = unit.run()
    except (Exception, SystemExit) as exc:  # any failure of the program counts
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, None


def check_unit(unit, outcome, error) -> list[str]:
    if error is not None:
        return [error]
    try:
        return unit.check(outcome)
    except Exception as exc:  # a check that cannot read the output fails it
        return [f"check raised {type(exc).__name__}: {exc}"]


def speed_kernel() -> float:
    """Seconds for a fixed piece of big-rational arithmetic from the standard
    library.  It uses nothing of the package, so only the host's speed moves
    it; the garbage collector is off so the package's heap cannot either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(0)
        for k in range(1, 320):
            x += Fraction(k % 7 + 1, k)
        for _ in range(80):
            x = x * x / (x + 1)
            x = Fraction(x.numerator % KERNEL_MODULUS + 1, x.denominator % KERNEL_MODULUS + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale(kernel_times: list[float]) -> float:
    """Factor that turns this run's seconds into reference seconds: the
    reference host's kernel time over this run's median kernel time."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_times)


def measure(units, budget_s: float, tally: Tally, kernel_times: list[float]) -> list[list[float]]:
    """Run passes within ``budget_s``: after one whole pass, stop before a
    unit whose previous time would overrun the budget; returns each unit's
    times.  Between units, every ``KERNEL_EVERY_S`` seconds, times the speed
    kernel into ``kernel_times``."""
    times: list[list[float]] = [[] for _ in units]
    deadline = time.perf_counter() + budget_s
    next_kernel = 0.0
    passes = 0
    while True:
        gc.collect()
        for i, unit in enumerate(units):
            if passes and time.perf_counter() + times[i][-1] > deadline:
                return times
            if time.perf_counter() >= next_kernel:
                kernel_times.append(speed_kernel())
                next_kernel = time.perf_counter() + KERNEL_EVERY_S
            elapsed, outcome, error = run_unit(unit)
            times[i].append(elapsed)
            tally.record(unit.name, check_unit(unit, outcome, error))
        passes += 1


def traced_pass(units, tally: Tally) -> tuple[tracing.Tracer, float]:
    """One pass with every layer wrapped; outcomes are checked after the
    wrappers are removed, so checks add no spans."""
    gc.collect()
    tracer = tracing.Tracer()
    results = []
    with tracer:
        for unit in units:
            results.append(run_unit(unit))
    for unit, (_, outcome, error) in zip(units, results):
        tally.record(unit.name, check_unit(unit, outcome, error))
    return tracer, sum(elapsed for elapsed, _, _ in results)


def pass_time(times: list[list[float]]) -> float:
    """Time of one whole pass: the sum over units of each unit's median."""
    return sum(statistics.median(t) for t in times)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paretogames" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'paretogames'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = STATE_DIR / f"{args.workload}-seed{args.seed}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    setup_times = []
    kernel_times = []
    for _ in range(SETUPS):
        kernel_times.append(speed_kernel())
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        pg = fresh_import()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup(pg)
        setup_times.append(time.perf_counter() - start)
    workload.reference(pg)
    units = workload.units
    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    times = measure(units, budget, tally, kernel_times)
    wall = pass_time(times)

    if args.trace:
        tracer, traced_wall = traced_pass(units, tally)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = traced_wall / wall - 1
        spans = STATE_DIR / "spans" / f"{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.start)} spans)")
        for name in tracer.absent:
            print(f"absent: {name} (no longer in the package; its metrics are left out)")
        units_of = {name: tracing.layer_unit(name) for name in metrics}
    else:
        # Each solve of the pass enters the percentiles with its median over
        # the run, so they rank the pass's solves rather than the host's
        # hiccups during single repetitions.
        solves = [statistics.median(ts) for unit, ts in zip(units, times) if unit.solve]
        timed = sum(len(ts) for unit, ts in zip(units, times) if unit.solve)
        scale = host_scale(kernel_times)
        metrics = {
            "setup_s": statistics.median(setup_times) * scale,
            "wall_s": wall * scale,
            "solve_s_p50": statistics.median(solves) * scale,
            "solve_s_p99": percentile(solves, 99) * scale,
            "residual_bits": max(workload.residual_bits, default=NOT_APPLICABLE),
            "sweeps": max(workload.sweeps, default=NOT_APPLICABLE),
            "success_rate": 1 - tally.failed / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = UNITS
        print(f"workload {args.workload} seed {args.seed}: {len(solves)} solves per pass, "
              f"{timed} timed solves, {sum(map(len, times))} timed units, error_rate "
              f"{tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
        print(f"host speed: kernel median {statistics.median(kernel_times) * 1e3:.3f} ms over "
              f"{len(kernel_times)} samples, reference {REFERENCE_KERNEL_S * 1e3:g} ms; times below "
              f"are host seconds x {scale:.4f} (unscaled wall_s {wall:.6g} s)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units_of[name]}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
