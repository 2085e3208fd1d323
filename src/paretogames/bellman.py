"""One-step curve operator, value iteration, fixpoint checking, residual
bounds, and achievability queries.

The per-state operator maps a family of frontiers (one per state) to a new
family: terminals pin to [(0,0)]; a Player-1 state takes the convex union of
its successors; a Player-2 state the intersection (pointwise minimum); a
chance state the probability-weighted Minkowski sum — each followed by a
translation by the state's reward vector.  Rewards are honored on every
state kind; games whose rewards all sit on Player-2 states are the special
case.

``bellman_step`` applies the operator simultaneously (reads only the given
map).  ``value_iterate`` performs in-place sweeps in listed state order —
later states see the already-updated curves of earlier ones — which reaches
tight iterates faster and is what the iterate-shape guarantees below are
stated for.  A sweep that changes nothing certifies a fixpoint of the
simultaneous operator as well, since the first unchanged state leaves every
input unchanged in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import (
    IncompleteCurveMap,
    InvariantBroken,
    NonPositiveEpsilon,
    NotStopping,
)
from .frontier import (
    Frontier,
    RationalLike,
    as_fraction,
    as_point,
    canonicalize,
    contains,
    dwc_conv_union,
    intersect_min,
    translate,
    weighted_sum,
)
from .games import Game, Kind, StateRecord, check_stopping, require_valid

CurveMap = dict[str, Frontier]

_ZERO = canonicalize([(0, 0)])


@dataclass(frozen=True)
class IterationResult:
    curves: CurveMap
    iterations: int
    residual_bound: Fraction | None
    converged: bool
    fixpoint_reached: bool
    note: str = ""
    history: tuple[CurveMap, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.fixpoint_reached and not self.converged:
            raise InvariantBroken("a reached fixpoint must count as converged")
        if self.residual_bound is not None and self.residual_bound < 0:
            raise InvariantBroken(
                f"negative residual bound {self.residual_bound}"
            )


def initial_curves(g: Game) -> CurveMap:
    """X0: the downward closure of the origin at every state."""
    return {s.id: _ZERO for s in g.states}


def _require_complete(g: Game, x: Mapping[str, Frontier]) -> None:
    missing = [s.id for s in g.states if s.id not in x]
    if missing:
        raise IncompleteCurveMap(f"curve map missing states: {missing}")


def _state_update(s: StateRecord, x: Mapping[str, Frontier]) -> Frontier:
    if s.kind is Kind.TERMINAL:
        return _ZERO
    succs = [x[t] for t in s.successors]
    if s.kind is Kind.P1:
        combined = succs[0] if len(succs) == 1 else dwc_conv_union(*succs)
    elif s.kind is Kind.P2:
        combined = succs[0] if len(succs) == 1 else intersect_min(*succs)
    else:  # chance
        combined = weighted_sum(list(zip((p for _, p in s.transitions), succs)))
    if s.reward == (0, 0):
        return combined
    return translate(combined, s.reward)


def bellman_step(g: Game, x: Mapping[str, Frontier]) -> CurveMap:
    """Apply the operator simultaneously: every state reads only ``x``."""
    require_valid(g)
    _require_complete(g, x)
    return {s.id: _state_update(s, x) for s in g.states}


def check_fixpoint(g: Game, v: Mapping[str, Frontier]) -> bool:
    """True iff one simultaneous step reproduces ``v`` exactly."""
    stepped = bellman_step(g, v)
    return all(stepped[sid] == v[sid] for sid in stepped)


# ---------------------------------------------------------------------------
# Residual bounds


def _reward_magnitude(g: Game) -> Fraction:
    return max(
        (max(abs(s.reward[0]), abs(s.reward[1])) for s in g.states),
        default=Fraction(0),
    )


def _min_probability(g: Game) -> Fraction:
    probs = [p for s in g.states for _, p in s.transitions]
    return min(probs, default=Fraction(1))


def tail_bound(g: Game, n: int) -> Fraction:
    """Sound bound on the total |reward| accumulated after step n.

    With q the probability that any window of |S| steps ends in a terminal
    (at least p_min^|S| for a stopping game) and R the largest |reward|
    component, the tail is at most sum over k >= floor(n/|S|) of
    (1-q)^k * |S| * R — a closed-form geometric sum.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    report = check_stopping(g)
    if not report.stopping:
        raise NotStopping(
            "tail bound requires a stopping game",
            witness=tuple(sorted(report.witness_closed_set)),
        )
    size = len(g.states)
    big_r = _reward_magnitude(g)
    if big_r == 0:
        return Fraction(0)
    q = _min_probability(g) ** size
    k0 = n // size
    if q == 1:
        return size * big_r if k0 == 0 else Fraction(0)
    return size * big_r * (1 - q) ** k0 / q


def _alive_step(g: Game, alive: dict[str, Fraction]) -> dict[str, Fraction]:
    """One backward step of the worst-case survival probability.

    alive[s] bounds the probability that a play from s is still in a
    non-terminal state after the step count so far, maximized over both
    players' choices.
    """
    out: dict[str, Fraction] = {}
    for s in g.states:
        if s.kind is Kind.TERMINAL:
            out[s.id] = Fraction(0)
        elif s.kind is Kind.CHANCE:
            out[s.id] = sum(p * alive[t] for t, p in s.transitions)
        else:
            out[s.id] = max(alive[t] for t in s.successors)
    return out


# ---------------------------------------------------------------------------
# Value iteration


def value_iterate(
    g: Game,
    epsilon: RationalLike,
    max_iters: int,
    *,
    keep_history: bool = True,
) -> IterationResult:
    """Iterate the operator from X0 with in-place sweeps in listed order.

    Stops when (a) a sweep changes nothing — an exact fixpoint, also of the
    simultaneous operator; or, for stopping games, (b) the truncation
    residual drops to ``epsilon`` or below, where the residual after sweep n
    is min(tail_bound(g, n), tail_bound(g, 0) * max survival probability at
    depth n) — sound because n sweeps propagate information at least n steps
    deep, so the returned curves differ from the true ones by at most the
    expected reward collected after depth n; or (c) ``max_iters`` sweeps ran
    (converged = False; for non-stopping games the result is then only an
    iterate, not the least fixpoint).
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be > 0, got {epsilon}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    require_valid(g)
    stopping = check_stopping(g).stopping
    ceiling = tail_bound(g, 0) if stopping else None

    curves = initial_curves(g)
    history: list[CurveMap] = [dict(curves)] if keep_history else []
    alive: dict[str, Fraction] = {
        s.id: Fraction(0 if s.kind is Kind.TERMINAL else 1) for s in g.states
    }
    iterations = 0
    residual: Fraction | None = None

    while iterations < max_iters:
        changed = False
        for s in g.states:  # in-place: later states see updated earlier ones
            new = _state_update(s, curves)
            if new != curves[s.id]:
                curves[s.id] = new
                changed = True
        iterations += 1
        if keep_history:
            history.append(dict(curves))
        if not changed:
            return IterationResult(
                curves=curves,
                iterations=iterations,
                residual_bound=Fraction(0),
                converged=True,
                fixpoint_reached=True,
                history=tuple(history),
            )
        if stopping:
            if ceiling is None:
                raise InvariantBroken("stopping game without a tail ceiling")
            alive = _alive_step(g, alive)
            residual = min(
                tail_bound(g, iterations),
                ceiling * max(alive.values(), default=Fraction(0)),
            )
            if residual <= epsilon:
                return IterationResult(
                    curves=curves,
                    iterations=iterations,
                    residual_bound=residual,
                    converged=True,
                    fixpoint_reached=False,
                    history=tuple(history),
                )
    return IterationResult(
        curves=curves,
        iterations=iterations,
        residual_bound=residual,
        converged=False,
        fixpoint_reached=False,
        note="" if stopping else "iterate, not least fixpoint",
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Achievability


def achievable(
    g: Game,
    s: str,
    z: tuple[RationalLike, RationalLike],
    curves: Mapping[str, Frontier],
) -> bool:
    """Whether the target vector z is dominated by the curve at state s."""
    _require_complete(g, curves)
    g.state(s)
    return contains(curves[s], as_point(z))


def achievable_within(
    g: Game,
    s: str,
    z: tuple[RationalLike, RationalLike],
    curves: Mapping[str, Frontier],
    epsilon: RationalLike,
) -> str:
    """Three-valued query for curves known only up to a residual epsilon:
    "yes" when even z + (eps, eps) is dominated, "no" when z itself is not,
    "unknown" in the eps-wide band between."""
    _require_complete(g, curves)
    g.state(s)
    eps = as_fraction(epsilon)
    if eps < 0:
        raise NonPositiveEpsilon(f"epsilon must be >= 0, got {eps}")
    zx, zy = as_point(z)
    if contains(curves[s], (zx + eps, zy + eps)):
        return "yes"
    if not contains(curves[s], (zx, zy)):
        return "no"
    return "unknown"
