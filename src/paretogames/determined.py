"""Exact curves for determined games by minimizer-strategy enumeration.

Fixing each memoryless deterministic choice function sigma of the minimizer
leaves a maximizer-only process whose exact Pareto curves we can compute.
That process is never built: each sweep runs on the validated game itself,
evaluating strategy profiles (sigma together with a maximizer policy).
Folding the per-strategy curves with pointwise minimum yields the candidate
family V.  In a stopping game the fixpoint of the curve operator is unique,
so V passes the fixpoint check iff the game is determined — and then V *is*
the family of true Pareto curves.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .bellman import CurveMap, check_fixpoint
from .frontier import intersect_min
from .games import Game, Kind, require_stopping, require_valid
from .mdp import MDStrategy, _pareto_curves


def enumerate_md_strategies(g: Game) -> Iterator[MDStrategy]:
    """Every total memoryless deterministic choice function of the
    minimizer, exactly once (one empty mapping if it controls nothing)."""
    require_valid(g)
    p2_states = [s for s in g.states if s.kind is Kind.P2]
    ids = [s.id for s in p2_states]
    for combo in product(*(s.successors for s in p2_states)):
        yield dict(zip(ids, combo))


def solve_determined(g: Game) -> CurveMap:
    """V_s = pointwise minimum over all minimizer strategies of the exact
    per-strategy curve at s.  Exact; equals the true Pareto curves whenever
    the game is determined.

    Each strategy gets one weight sweep on g, shared by all of its states
    (``mdp_pareto_curves`` without building the process), folded into the
    running minimum as soon as it is computed."""
    require_stopping(g, "strategy enumeration requires a stopping game")
    curves: CurveMap = {}
    for sigma in enumerate_md_strategies(g):
        # g is stopping, so every profile reaches a terminal.
        nxt = _pareto_curves(g, sigma)
        curves = (
            {sid: intersect_min(curves[sid], nxt[sid]) for sid in curves}
            if curves
            else nxt
        )
    return curves


def check_determinacy(g: Game) -> tuple[bool, CurveMap]:
    """Compute V by strategy enumeration and test it against the curve
    equations: in a stopping game their solution is unique, so a fixpoint
    certifies V as the Pareto-curve family and a failure certifies that the
    game is not determined.  Returns (verdict, V) either way."""
    curves = solve_determined(g)
    return check_fixpoint(g, curves), curves
