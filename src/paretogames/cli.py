"""Command-line surface: load games, run solvers and checks, export curves.

``solve-determined`` always checks its curves against the curve equations:
it writes or prints them, then ends with ``determined: true`` (exit 0) or
``determined: false`` (exit 1), so no curve leaves it uncertified.
``query`` answers from ``certified_curves``, which tries generated minimizer
strategies, never enumerated, then value iteration until an exact stop or
``--max-iters``: ``unknown`` means only that this sweep budget ran out.

Exit codes: 0 ok; 1 verification-negative (invalid game, not stopping, not
determined, audit failures, losing betting arena); 2 input error; 3 internal
limit reached (iteration cap without convergence, ``query``'s ``unknown``,
betting step bound, exhausted betting credit, or an exact value with more
digits than the interpreter writes out); 4 internal fault (a broken
invariant or any other unexpected exception, i.e. a bug in this package).
Every error exits through a single one-line, machine-parsable message on
stderr: ``error: <ExceptionName>: <detail>``, or ``error: internal:
<ExceptionName>: <detail>`` for exit code 4.
"""

from __future__ import annotations

import argparse
import functools
import sys
import urllib.parse
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .audit import audit_game
from .bellman import CurveMap, achievable_within, value_iterate
from .betting import ADAM_FACTORIES, load_betting, simulate, trace_to_csv
from .determined import certified_curves, check_determinacy
from .errors import (
    DigitLimitExceeded,
    GameSolverError,
    HypothesisViolated,
    InvalidArgument,
    InvalidCurveFile,
    InvariantBroken,
    NotStopping,
    StepBoundExceeded,
)
from .frontier import (
    Frontier,
    as_fraction,
    fraction_str,
    frontier_from_csv,
    frontier_to_csv,
    frontier_to_svg,
)
from .games import (
    _write_json,
    _write_text,
    check_stopping,
    discount_transform,
    load_game,
    normalize,
    save_game,
    validate_game,
)

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
LIMIT = 3
INTERNAL = 4

# The first matching row gives the exit code; the last one catches package bugs.
_EXIT_CODES = (
    ((StepBoundExceeded, DigitLimitExceeded), LIMIT),
    ((NotStopping, HypothesisViolated), NEGATIVE),
    (InvariantBroken, INTERNAL),
    ((GameSolverError, OSError), INPUT_ERROR),
    (Exception, INTERNAL),
)


def _state_filename(sid: str, ext: str) -> str:
    return urllib.parse.quote(sid, safe="") + "." + ext


def _write_curves(
    curves: Mapping[str, Frontier], out_dir: Path, svg: bool
) -> dict[str, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}
    for sid in sorted(curves):
        name = _state_filename(sid, "csv")
        _write_text(out_dir / name, frontier_to_csv(curves[sid]))
        manifest[sid] = name
        if svg:
            svg_path = out_dir / _state_filename(sid, "svg")
            _write_text(svg_path, frontier_to_svg(curves[sid], title=sid))
    return manifest


def _load_curves(dir_path: Path) -> CurveMap:
    """Each ``*.csv`` file of the directory, by the state id its name quotes;
    a path that is not a directory raises instead of loading nothing."""
    curves: CurveMap = {}
    for path in sorted(p for p in dir_path.iterdir() if p.name.endswith(".csv")):
        try:
            curve = frontier_from_csv(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, GameSolverError) as exc:
            raise InvalidCurveFile(f"{path}: {exc}") from None
        curves[urllib.parse.unquote(path.stem)] = curve
    return curves


def _print_curves(curves: Mapping[str, Frontier]) -> None:
    for sid in sorted(curves):
        pts = " ".join(
            f"({fraction_str(x)},{fraction_str(y)})" for x, y in curves[sid].vertices
        )
        print(f"{sid}: {pts}")


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgument(f"point must be 'x,y', got {text!r}")
    return (as_fraction(parts[0].strip()), as_fraction(parts[1].strip()))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    g = load_game(args.game)
    report = validate_game(g)
    if report.ok:
        print("valid")
        return OK
    for violation in report.violations:
        print(f"violation: {violation}")
    return NEGATIVE


def _cmd_stopping(args) -> int:
    g = load_game(args.game)
    report = check_stopping(g)
    if report.stopping:
        print("stopping: true")
        return OK
    witness = ",".join(sorted(report.witness_closed_set))
    print("stopping: false")
    print(f"witness: {witness}")
    return NEGATIVE


def _cmd_normalize(args) -> int:
    g = load_game(args.game)
    save_game(normalize(g), args.output)
    print(f"wrote {args.output}")
    return OK


def _cmd_discount(args) -> int:
    g = load_game(args.game)
    save_game(discount_transform(g, as_fraction(args.delta)), args.output)
    print(f"wrote {args.output}")
    return OK


def _cmd_solve_vi(args) -> int:
    g = load_game(args.game)
    result = value_iterate(g, as_fraction(args.epsilon), args.max_iters)
    out_dir = Path(args.out_dir)
    manifest = _write_curves(result.curves, out_dir, args.svg)
    rb = result.residual_bound
    bound = None if rb is None else fraction_str(rb)
    bounds = [fraction_str(r) for r in result.residuals] or ["n/a"] * result.iterations
    _write_text(
        out_dir / "iterations.log",
        "".join(f"{n} residual_bound={b}\n" for n, b in enumerate(bounds, 1)),
    )
    run = {
        "epsilon": args.epsilon,
        "max_iters": args.max_iters,
        "iterations": result.iterations,
        "converged": result.converged,
        "fixpoint_reached": result.fixpoint_reached,
        "residual_bound": bound,
        "note": result.note,
        "states": manifest,
    }
    _write_json(run, out_dir / "run.json")
    print(
        f"converged={str(result.converged).lower()} "
        f"iterations={result.iterations} residual_bound={bound or 'n/a'}"
    )
    return OK if result.converged else LIMIT


def _cmd_solve_determined(args) -> int:
    g = load_game(args.game)
    determined, curves = check_determinacy(g)
    if args.out_dir:
        _write_curves(curves, Path(args.out_dir), args.svg)
    else:
        _print_curves(curves)
    print(f"determined: {str(determined).lower()}")
    return OK if determined else NEGATIVE


def _cmd_query(args) -> int:
    g = load_game(args.game)
    g.state(args.state)
    z = _parse_point(args.point)
    curves, residual = certified_curves(g, args.max_iters)
    answer = achievable_within(g, args.state, z, curves, residual)
    print(answer)
    return LIMIT if answer == "unknown" else OK


def _cmd_audit(args) -> int:
    g = load_game(args.game)
    curves = _load_curves(Path(args.curves))
    report = audit_game(g, curves)
    print(report.to_text())
    return OK if report.ok else NEGATIVE


def _cmd_betting_sim(args) -> int:
    if args.runs < 1:
        raise InvalidArgument(f"--runs must be at least 1, got {args.runs}")
    bg = load_betting(args.betting)
    targets = frozenset(t.strip() for t in args.target.split(",") if t.strip())
    if not targets:
        raise InvalidArgument("--target names no vertex")
    bound = as_fraction(args.bound)
    out_dir = Path(args.out_dir) if args.out_dir else None
    factory = ADAM_FACTORIES[args.adam]
    for run in range(args.runs):
        adam = factory(args.seed + run)
        trace = simulate(bg, targets, bound, adam)
        last = trace.steps[-1]
        print(
            f"run {run}: end=({last.vertex},{fraction_str(last.credit)}) "
            f"steps={len(trace.steps) - 1} reason={trace.end}"
        )
        if out_dir:  # made only once a play has succeeded
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_text(out_dir / f"trace_{run}.csv", trace_to_csv(trace))
    print(f"all {args.runs} runs reached the target set")
    return OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Subcommand ``foo-bar`` runs
    ``_cmd_foo_bar``, looked up when ``main`` runs it."""
    parser = argparse.ArgumentParser(
        prog="paretogames",
        description=(
            "Exact Pareto curves for two-objective total-reward stochastic "
            "games: validation, normalization, value iteration, exact "
            "solving, achievability queries, curve audits, betting "
            "simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structural game invariants")
    p.add_argument("game")

    p = sub.add_parser("stopping", help="decide the stopping property")
    p.add_argument("game")

    p = sub.add_parser(
        "normalize",
        help="split to binary successors and move rewards onto minimizer entry states",
    )
    p.add_argument("game")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser(
        "discount", help="reduce a discounted game to a total-reward game"
    )
    p.add_argument("game")
    p.add_argument("--delta", required=True, help="discount factor p/q in (0,1)")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("solve-vi", help="value-iterate to a residual target")
    p.add_argument("game")
    p.add_argument("--epsilon", default="1/1000", help="residual target p/q")
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", action="store_true", help="also write per-state SVG")

    p = sub.add_parser(
        "solve-determined",
        help="exact curves certified from generated strategies, "
        "enumeration as fallback (stopping games)",
    )
    p.add_argument("game")
    p.add_argument("--out-dir")
    p.add_argument("--svg", action="store_true")
    # read by nothing: perfbench/workloads.py still passes it; drop both together
    p.add_argument("--check-determinacy", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("query", help="is a point achievable from a state?")
    p.add_argument("game")
    p.add_argument("--state", required=True)
    p.add_argument("--point", required=True, help="x,y with rational coordinates")
    p.add_argument("--max-iters", type=int, default=10000)

    p = sub.add_parser("audit", help="audit a curve directory: equations, slope laws")
    p.add_argument("game")
    p.add_argument("--curves", required=True, help="directory of per-state CSV")

    p = sub.add_parser("betting-sim", help="simulate the betting-game strategy")
    p.add_argument("betting")
    p.add_argument("--target", required=True, help="comma-separated vertex ids")
    p.add_argument("--bound", default="100", help="credit bound p/q")
    p.add_argument("--adam", choices=sorted(ADAM_FACTORIES), default="random")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Exception as exc:
        code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
        tag = "internal: " if code == INTERNAL else ""
        print(f"error: {tag}{type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
