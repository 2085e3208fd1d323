"""Output checks that any sound solver passes.

Each check returns a list of problems (empty when the output is right); the
harness counts a unit with any problem as failed.  Checks read the files
the CLI wrote and use only the package's public interface.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# Directions (w1, w2) >= 0 in which the fig3 iterate is compared with the
# exact curves; |support(V, w) - support(X, w)| <= (w1 + w2) * residual
# whenever every vertex of each curve is within the residual of the other.
FIG3_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, 3), (3, 1))


def ceil_log2(x: Fraction) -> int:
    """Smallest k with 2**k >= x, exactly, for x > 0."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** k < x:
        k += 1
    while Fraction(2) ** (k - 1) >= x:
        k -= 1
    return k


def load_curves(pg, out_dir: Path, files: dict[str, str]) -> tuple[dict, list[str]]:
    """Every state's curve, read through ``frontier_from_csv``."""
    curves, problems = {}, []
    for sid, name in files.items():
        try:
            curves[sid] = pg.frontier_from_csv((out_dir / name).read_text())
        except (OSError, ValueError, pg.GameSolverError) as exc:
            problems.append(f"{sid}: curve does not load: {exc}")
    return curves, problems


def check_vi_run(pg, game, out_dir: Path, rc: int, epsilon: Fraction,
                 max_iters: int) -> tuple[dict, dict, list[str]]:
    """Consistency of one ``solve-vi`` output directory.

    Returns (run record, curves, problems)."""
    problems = []
    if rc not in (0, 3):
        return {}, {}, [f"solve-vi exit code {rc}"]
    try:
        run = json.loads((out_dir / "run.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, {}, [f"run.json unreadable: {exc}"]
    iters = run.get("iterations")
    if not isinstance(iters, int) or not 0 <= iters <= max_iters:
        problems.append(f"iterations {iters!r} outside [0, {max_iters}]")
    try:
        residual = Fraction(run["residual_bound"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        problems.append(f"residual_bound {run.get('residual_bound')!r} is not a rational")
        residual = None
    if residual is not None and residual < 0:
        problems.append(f"negative residual {residual}")
    if (rc == 0) != bool(run.get("converged")):
        problems.append(f"exit code {rc} disagrees with converged={run.get('converged')}")
    if run.get("converged") and residual is not None and residual > epsilon:
        problems.append(f"converged with residual {residual} > epsilon {epsilon}")
    files = run.get("states", {})
    if sorted(files) != sorted(game.state_ids):
        problems.append("run.json does not list every state")
    curves, load_problems = load_curves(pg, out_dir, files)
    run["residual"] = residual
    return run, curves, problems + load_problems


def check_within_residual(pg, iterate: dict, exact: dict, residual: Fraction) -> list[str]:
    """The iterate is within ``residual`` of the exact curves, in support."""
    problems = []
    for sid, exact_curve in exact.items():
        for w in FIG3_DIRECTIONS:
            gap = abs(pg.support(exact_curve, w) - pg.support(iterate[sid], w))
            if gap > (w[0] + w[1]) * residual:
                problems.append(f"{sid}: support gap {gap} in direction {w} exceeds residual")
    return problems


def unmap_curves(pg, curves: dict, transform: dict) -> dict:
    """The curves of a ``generators.seeded_copy`` mapped back to the
    original game: prefix removed from the ids, each axis scaled back."""
    prefix, (a, b) = transform["prefix"], transform["scale"]
    return {
        sid.removeprefix(prefix): pg.canonicalize([(x / a, y / b) for x, y in f.vertices])
        for sid, f in curves.items()
    }


def curves_digest(curves: dict, tag: str) -> str:
    """Stable digest of a curve family together with a result tag."""
    h = hashlib.sha256(f"{tag}\n".encode())
    for sid in sorted(curves):
        pts = " ".join(f"{x}:{y}" for x, y in curves[sid].vertices)
        h.update(f"{sid} {pts}\n".encode())
    return h.hexdigest()[:16]


def determined_verdict(rc: int, stdout: str) -> tuple[bool | None, list[str]]:
    """The determinacy verdict printed by ``solve-determined --check-determinacy``."""
    if rc not in (0, 1):
        return None, [f"solve-determined exit code {rc}"]
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if last not in ("determined: true", "determined: false"):
        return None, [f"no determinacy verdict in output: {last!r}"]
    verdict = last == "determined: true"
    if verdict != (rc == 0):
        return None, [f"verdict {verdict} disagrees with exit code {rc}"]
    return verdict, []


def check_betting_trace(pg, trace, arena, targets, bound: Fraction, attr) -> list[str]:
    """Reachability within the step bound along legal moves, and the
    potential growing by at least W^|V| - W^(|V|+1) on every step from a
    non-target vertex, recomputed from the trace's credits."""
    problems = []
    w = arena.min_weight
    size = len(arena.vertices)
    delta = w**size - w ** (size + 1)
    steps_bound = math.ceil((bound + w**size) / delta)
    steps = trace.steps
    if not trace.reached_target:
        problems.append(f"play ended without reaching the target ({trace.end})")
    if len(steps) - 1 > steps_bound:
        problems.append(f"{len(steps) - 1} steps exceed the step bound {steps_bound}")
    first = steps[0]
    if (first.vertex, first.credit) != (arena.initial.vertex, arena.initial.credit):
        problems.append("trace does not start at the initial configuration")
    last = steps[-1]
    at_target = last.vertex in targets and last.credit >= arena.initial.credit
    if not (at_target or last.credit >= bound):
        problems.append(f"final configuration ({last.vertex}, {last.credit}) is not a target")
    previous = None
    for step in steps:
        if previous is not None and step.vertex not in arena.vertex(previous[0]).successors:
            problems.append(f"step {step.step}: {step.vertex} is not a successor of {previous[0]}")
        if step.vertex not in attr.a:
            return problems + [f"step {step.step}: {step.vertex} is outside the winning set"]
        p = step.credit + w ** attr.a[step.vertex] - w**size
        if p != step.potential:
            problems.append(f"step {step.step}: recorded potential {step.potential} != {p}")
        if previous is not None and previous[0] not in targets and p - previous[1] < delta:
            problems.append(f"step {step.step}: potential grew by {p - previous[1]} < {delta}")
        previous = (step.vertex, p)
    return problems
