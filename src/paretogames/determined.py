"""Exact curves by minimizer-strategy enumeration, and ``certified_curves``.

Fixing a memoryless deterministic choice function sigma of the minimizer
leaves a maximizer-only process whose exact curves are computed on the game
itself, one strategy profile at a time.  Their pointwise minimum V passes
the fixpoint check iff the game is determined, since a stopping game's curve
equations have one solution, and then V *is* the Pareto-curve family.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterator

from .bellman import CurveMap, check_fixpoint, value_iterate
from .errors import NonPositiveEpsilon
from .frontier import RationalLike, as_fraction, intersect_min
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


# Enumeration is skipped above this count; each binary P2 state doubles it.
MAX_ENUMERATED_STRATEGIES = 1024


def certified_curves(
    g: Game, epsilon: RationalLike, max_iters: int
) -> tuple[CurveMap, Fraction]:
    """The Pareto curves of a stopping game and a certified bound on their
    error, 0 when certified exact: enumeration's when the minimizer has at most
    MAX_ENUMERATED_STRATEGIES strategies and ``check_determinacy`` passes,
    else ``value_iterate``'s.  Bad options and NotStopping raise first."""
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be > 0, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    require_stopping(g, "an achievability query requires a stopping game")
    p2 = [len(s.successors) for s in g.states if s.kind is Kind.P2]
    if prod(p2) <= MAX_ENUMERATED_STRATEGIES:
        determined, curves = check_determinacy(g)
        if determined:
            return curves, Fraction(0)
    result = value_iterate(g, epsilon, max_iters)
    return result.curves, result.residual_bound
