"""Exact curves of two-player stopping games from minimizer strategies, the
determinacy check, and ``certified_curves``.

Fixing a memoryless deterministic choice function sigma of the minimizer
leaves a maximizer-only process whose exact curve family C_sigma is computed
on the game itself by sigma's ``mdp._BestResponse``.  The pointwise minimum V
of C_sigma over any set of strategies contains the Pareto-curve family, and
V passes the fixpoint check iff it *is* that family, since a stopping game's
curve equations have one solution.  ``solve_determined`` folds every
strategy; ``check_determinacy`` certifies from the few that the minimizer's
strategy iteration in ``mdp`` picks, and enumerates only when the curve
equations reject them.  ``certified_curves`` never enumerates: it tries the
same generated strategies, then value iteration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .bellman import CurveMap, check_fixpoint, value_iterate
from .errors import InvalidArgument
from .frontier import Point, _text, intersect_min
from .games import Game, Kind, require_stopping, require_valid
from .mdp import (
    MDStrategy,
    _BestResponse,
    _edge_normal,
    _Key,
    _minimizer_optimum,
    _pareto_curves,
)


def enumerate_md_strategies(g: Game) -> Iterator[MDStrategy]:
    """Every total memoryless deterministic choice function of the
    minimizer, exactly once (one empty mapping if it controls nothing)."""
    require_valid(g)
    p2_states = [s for s in g.states if s.kind is Kind.P2]
    ids = [s.id for s in p2_states]
    for combo in product(*(s.successors for s in p2_states)):
        yield dict(zip(ids, combo))


def _fold(
    curves: CurveMap, responses: Iterable[_BestResponse], folded: set[_Key]
) -> CurveMap:
    """``curves`` intersected with C_sigma for the strategy sigma of every
    response not yet in ``folded``, each recorded there; the keys stay in
    listed state order.

    Each strategy gets one weight sweep of its response, shared by all of
    its states (``mdp_pareto_curves`` without building the process), folded
    into the running minimum as soon as it is computed; a state whose two
    curves are equal keeps its curve, which is their intersection."""
    for r in responses:
        key = frozenset(r.sigma.items())
        if key in folded:
            continue
        folded.add(key)
        # g is stopping, so every profile reaches a terminal.
        nxt = _pareto_curves(r)
        curves = (
            {
                sid: f if f == nxt[sid] else intersect_min(f, nxt[sid])
                for sid, f in curves.items()
            }
            if curves
            else nxt
        )
    return curves


def solve_determined(g: Game) -> CurveMap:
    """V_s = pointwise minimum over all minimizer strategies of the exact
    per-strategy curve at s.  Exact; equals the true Pareto curves whenever
    the game is determined."""
    require_stopping(g, "strategy enumeration requires a stopping game")
    return _fold(
        {}, (_BestResponse(g, s) for s in enumerate_md_strategies(g)), set()
    )


def _edge_normals(curves: CurveMap) -> set[Point]:
    """``_edge_normal`` of every edge of every curve."""
    return {
        _edge_normal(a, b)
        for f in curves.values()
        for a, b in zip(f.vertices, f.vertices[1:])
    }


def _generate(
    g: Game, responses: dict[_Key, _BestResponse], folded: set[_Key]
) -> tuple[bool, CurveMap]:
    """``check_determinacy``'s generation rounds: whether their fold passed
    ``check_fixpoint``, and the fold.  Folded strategies go into ``folded``
    and each visited strategy's ``_BestResponse`` into ``responses``."""
    curves: CurveMap = {}
    sigma = {s.id: s.successors[0] for s in g.states if s.kind is Kind.P2}
    one, zero = Fraction(1), Fraction(0)
    queried: set[Point] = set()
    directions = [(zero, one), (one, zero)]
    while directions:
        generated = []
        for w in directions:
            generated.append(_minimizer_optimum(g, w, sigma, responses))
            sigma = generated[-1].sigma
        queried.update(directions)
        count = len(folded)
        curves = _fold(curves, generated, folded)
        if len(folded) == count:
            break
        if check_fixpoint(g, curves):
            return True, curves
        directions = sorted(_edge_normals(curves) - queried)
    return False, curves


def check_determinacy(g: Game) -> tuple[bool, CurveMap]:
    """V, the pointwise minimum of C_sigma over minimizer strategies, and
    whether it solves the curve equations: in a stopping game their solution
    is unique, so a fixpoint certifies V as the Pareto-curve family and a
    failure, once every strategy is folded, certifies that the game is not
    determined.  Returns (verdict, V) either way; V equals
    ``solve_determined(g)`` in both cases.

    V is built from generated strategies first.  For each direction w the
    minimizer's optimum sigma_w in the scalarized game (``_minimizer_optimum``,
    warm-started from the previous direction's) is folded into V, starting
    from w = (0, 1) and (1, 0); while V fails the check, every edge normal of
    every state's V not queried before is queried in the next round.  When a
    round adds no strategy, every remaining strategy is enumerated.  Each
    strategy visited keeps one ``_BestResponse`` for the whole call, which
    the generation, its curve sweep and the enumeration all use, so no
    strategy profile is evaluated twice.

    Soundness.  Let F be the curve operator and F_sigma that of the process
    sigma leaves, where a minimizer state takes the curve of its
    sigma-successor instead of the intersection over its successors.  For
    the Pareto-curve family V*, V* = F(V*) is contained in F_sigma(V*),
    since a minimizer state's intersection lies inside each successor's
    curve.  F_sigma is monotone, so V* is contained in every iterate
    F_sigma^n(V*), which on a stopping game converge to C_sigma; hence V* is
    contained in C_sigma for every sigma, and in the intersection over all
    of them, which in turn is contained in V.  If V is a fixpoint of F then
    V = V*, because the fixpoint is unique, so all three are equal: V equals
    enumeration's result bit for bit (``intersect_min`` is exact and
    canonical) and the game is determined.  Which strategies the generation
    picks decides only the cost: nothing is claimed without
    ``check_fixpoint``."""
    require_stopping(g, "a determinacy check requires a stopping game")
    folded: set[_Key] = set()
    responses: dict[_Key, _BestResponse] = {}
    determined, curves = _generate(g, responses, folded)
    if determined:
        return True, curves
    enumerated = (
        responses.get(frozenset(s.items())) or _BestResponse(g, s)
        for s in enumerate_md_strategies(g)
    )
    curves = _fold(curves, enumerated, folded)
    return check_fixpoint(g, curves), curves


def certified_curves(g: Game, max_iters: int) -> tuple[CurveMap, Fraction]:
    """The Pareto curves of a stopping game and a certified bound on their
    error, 0 when certified exact: the fold of ``check_determinacy``'s
    generated strategies when it passes ``check_fixpoint``, else the curves
    and residual of ``value_iterate`` at epsilon 0, which sweeps until an
    exact stop or ``max_iters``.  No strategy is enumerated: enumeration
    can only show that a game is not determined, and its fold is then not
    the answer.  Bad options and NotStopping raise first."""
    if max_iters < 1:
        raise InvalidArgument(f"max_iters must be >= 1, got {_text(max_iters)}")
    require_stopping(g, "an achievability query requires a stopping game")
    determined, curves = _generate(g, {}, set())
    if determined:
        return curves, Fraction(0)
    result = value_iterate(g, 0, max_iters)
    return result.curves, result.residual_bound
