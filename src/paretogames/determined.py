"""Exact curves for determined games by minimizer-strategy enumeration.

Fixing each memoryless deterministic choice function for the minimizer
leaves a maximizer-only process whose exact Pareto curves we can compute;
folding the per-strategy curves with pointwise minimum yields the candidate
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
from .mdp import MDStrategy, _pareto_curves, induce_mdp


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

    Each strategy's induced process gets one weight sweep shared by all of
    its states (``mdp_pareto_curves``), folded into the running minimum as
    soon as it is computed."""
    require_stopping(g, "strategy enumeration requires a stopping game")
    curves: CurveMap = {}
    for sigma in enumerate_md_strategies(g):
        # No check per process: fixing sigma turns each Player-2 state into a
        # one-successor chance state (still valid), and a set of states closed
        # in the process is closed in g (sigma(s) in the set is a successor in
        # it), so a stopping g yields only stopping processes.
        nxt = _pareto_curves(induce_mdp(g, sigma))
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
