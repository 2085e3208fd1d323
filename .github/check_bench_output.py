"""Check the benchmark's output on every workload that BENCHMARK.json lists.

    python3 .github/check_bench_output.py

Runs ``perfbench/run.py`` for 2 s on each workload, untraced and traced.
Each run must exit 0 and print no ``absent:`` line (a traced function that
the package no longer has), and its last line must be a JSON object with
``correct`` true whose metric names are exactly BENCHMARK.json's
``end_to_end`` names (untraced) or its ``per_layer`` names (traced).
Prints one line per run and exits 1 if any run breaks this.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = "2"


def problems(spec: dict, workload: str, trace: int) -> list[str]:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    found = [line for line in lines if line.startswith("absent:")]
    if run.returncode:
        found.append(f"exit {run.returncode}: {run.stderr.strip()[-500:]}")
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return found + ["the last line is not JSON"]
    if last.get("correct") is not True:
        found.append(f"correct is {last.get('correct')!r}")
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(last.get("metrics", ()))
    if got != want:
        found.append(
            f"missing {sorted(want - got)}, unexpected {sorted(got - want)}"
        )
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = problems(spec, workload, trace)
            failed |= bool(found)
            print(f"{workload} --trace {trace}: " + ("; ".join(found) or "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
