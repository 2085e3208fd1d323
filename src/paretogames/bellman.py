"""One-step curve operator, value iteration, fixpoint checking, residual
bounds, and achievability queries.

The per-state operator maps a family of frontiers (one per state) to a new
family: terminals pin to [(0,0)]; a Player-1 state takes the convex union of
its successors; a Player-2 state the intersection (pointwise minimum); a
chance state the probability-weighted Minkowski sum — each followed by a
translation by the state's reward vector.  Rewards are honored on every
state kind; games whose rewards all sit on Player-2 states are the special
case.  Each entry point validates the game once; the update then reads the
transitions directly and adds the reward inside the operation's kernel, so
it builds one checked curve per state.

``bellman_step`` applies the operator simultaneously (reads only the given
map).  ``iterates`` yields X0 and then the result of each in-place sweep in
listed state order — later states see the already-updated curves of earlier
ones — which reaches tight iterates faster and is what the iterate-shape
guarantees below are stated for.  A sweep that changes nothing certifies a
fixpoint of the simultaneous operator as well, since the first unchanged
state leaves every input unchanged in turn.

``value_iterate`` consumes ``iterates`` and is the one place that applies
the stopping rules; its result carries the certified residual of every sweep
(``IterationResult.residuals``), so callers report a run without replaying
it.  That residual is a constant times A_n, the largest worst-case survival
probability after n steps, which ``_survival`` steps on integers: one
numerator per state over L^n, L the lcm of the chance denominators.

On a stopping game ``value_iterate`` also stops at the exact answer: the
Pareto curves have finitely many vertices with small-denominator rational
coordinates, so after sweeps 1, 2, 4, 8, ... it rounds the iterate to
denominators 10, 100, ... and returns the first rounding that the fixpoint
check accepts.  The curve operator of a stopping game has exactly one
fixpoint, so an accepted rounding is the Pareto-curve family itself.  Each
rounding is first screened on one corner per state (``_snap``); only a
rounding that passes is made in full and checked.

``_state_update`` is the one statement of the operator: the sweeps, the
fixpoint check, the snap screen and ``audit.audit_game`` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Callable, Iterator, Mapping

from .errors import InvalidArgument, InvariantBroken
from .frontier import (
    Frontier,
    RationalLike,
    _intersect,
    _text,
    _union,
    _weighted_sum,
    as_fraction,
    as_point,
    canonicalize,
    contains,
    translate,
)
from .games import (
    Game,
    Kind,
    StateRecord,
    check_stopping,
    require_stopping,
    require_valid,
)

CurveMap = dict[str, Frontier]

_ZERO = canonicalize([(0, 0)])


@dataclass(frozen=True)
class IterationResult:
    """What ``value_iterate`` returns.

    Exactness is one fact, ``residual_bound == 0`` (``fixpoint_reached``):
    a sweep changed nothing, a rounded iterate passed the fixpoint check or
    the survival residual reached 0, so the curves are an exact fixpoint, on
    a stopping game the Pareto curves.  A run that certifies nothing has
    ``residual_bound`` None and a ``note``.  ``residuals`` holds the
    survival bound of every sweep that ran (empty for non-stopping games).
    """

    curves: CurveMap
    iterations: int
    residual_bound: Fraction | None
    converged: bool
    residuals: tuple[Fraction, ...] = field(default=(), repr=False)

    @property
    def fixpoint_reached(self) -> bool:
        return self.residual_bound == 0

    @property
    def note(self) -> str:
        return "" if self.residual_bound is not None else "iterate, not least fixpoint"

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
        raise InvalidArgument(f"curve map missing states: {missing}")


def _state_update(s: StateRecord, x: Mapping[str, Frontier]) -> Frontier:
    """The operator at ``s``, the reward added inside the operation.  The
    kernels skip the weight checks: every caller (``iterates``,
    ``bellman_step``, ``check_fixpoint``, ``value_iterate`` through
    ``check_stopping``, ``audit.audit_game`` through ``validate_game``) has
    proved the game valid: at most two successors, and chance probabilities
    positive and summing to 1."""
    if s.kind is Kind.TERMINAL:
        return _ZERO
    if len(s.transitions) == 1:
        f = x[s.transitions[0][0]]
        return f if s.reward == (0, 0) else translate(f, s.reward)
    (t1, p1), (t2, p2) = s.transitions
    if s.kind is Kind.P1:
        return _union(x[t1], x[t2], s.reward)
    if s.kind is Kind.P2:
        return _intersect(x[t1], x[t2], s.reward)
    return _weighted_sum(p1, x[t1], p2, x[t2], s.reward)


def bellman_step(g: Game, x: Mapping[str, Frontier]) -> CurveMap:
    """Apply the operator simultaneously: every state reads only ``x``."""
    require_valid(g)
    _require_complete(g, x)
    return {s.id: _state_update(s, x) for s in g.states}


def _fixed_at_every_state(
    g: Game, v: Mapping[str, Frontier], key: Callable = lambda f: f
) -> bool:
    """True iff every state's update reproduces ``key`` of its curve in
    ``v``; stops at the first state, in listed order, where it does not."""
    return all(key(_state_update(s, v)) == key(v[s.id]) for s in g.states)


def check_fixpoint(g: Game, v: Mapping[str, Frontier]) -> bool:
    """True iff one simultaneous step reproduces ``v`` exactly.  ``g`` and
    the completeness of ``v`` are checked once; the states are then compared
    in listed order, up to the first one that differs."""
    require_valid(g)
    _require_complete(g, v)
    return _fixed_at_every_state(g, v)


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


def _tail_terms(g: Game) -> tuple[Fraction, Fraction]:
    """(ceiling, decay) of a game already known to be stopping, such that
    tail_bound(g, n) = ceiling * decay ** floor(n / |S|).

    q = p_min^|S| bounds from below the probability that any window of |S|
    steps ends in a terminal, whatever both players do; ceiling = |S|·R/q
    and decay = 1 - q."""
    q = _min_probability(g) ** len(g.states)
    return len(g.states) * _reward_magnitude(g) / q, 1 - q


def tail_bound(g: Game, n: int) -> Fraction:
    """Sound bound on the total |reward| accumulated after step n.

    With q the probability that any window of |S| steps ends in a terminal
    (at least p_min^|S| for a stopping game) and R the largest |reward|
    component, the tail is at most sum over k >= floor(n/|S|) of
    (1-q)^k * |S| * R — a closed-form geometric sum.
    """
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {_text(n)}")
    require_stopping(g, "tail bound requires a stopping game")
    ceiling, decay = _tail_terms(g)
    return ceiling * decay ** (n // len(g.states))


def _survival(g: Game) -> Iterator[Fraction]:
    """A_1, A_2, ...: A_n the largest probability, over the states and both
    players' choices, of surviving n steps in a valid game.  Each state's
    survival is one integer N over L^n, L the lcm of the probabilities'
    denominators: a two-way chance state's N is (p1·L)·N[t1] + (p2·L)·N[t2],
    any other non-terminal state's L·max of its successors', a terminal's 0.
    """
    index = {s.id: i for i, s in enumerate(g.states)}
    lcd = lcm(*(p.denominator for s in g.states for _, p in s.transitions))
    sums, maxes = [], []
    for i, s in enumerate(g.states):
        if s.kind is Kind.TERMINAL:
            continue
        (t1, p1), (t2, p2) = s.transitions[0], s.transitions[-1]
        if s.kind is Kind.CHANCE and len(s.transitions) == 2:
            sums.append((i, index[t1], int(p1 * lcd), index[t2], int(p2 * lcd)))
        else:  # a single successor is read twice
            maxes.append((i, index[t1], index[t2]))
    alive = [0 if s.kind is Kind.TERMINAL else 1 for s in g.states]
    scale = 1
    while True:
        nxt = [0] * len(alive)
        for i, j1, w1, j2, w2 in sums:
            nxt[i] = w1 * alive[j1] + w2 * alive[j2]
        for i, j1, j2 in maxes:
            a, b = alive[j1], alive[j2]
            nxt[i] = lcd * (a if a >= b else b)
        alive, scale = nxt, scale * lcd
        yield Fraction(max(alive, default=0), scale)


# ---------------------------------------------------------------------------
# Value iteration


def iterates(g: Game) -> Iterator[CurveMap]:
    """X0, then the curve map after each in-place sweep in listed order.

    ``g`` is validated once, before X0.  Each yielded map is a fresh dict,
    so holding on to one is safe; the generator never ends on its own.
    """
    require_valid(g)
    curves = initial_curves(g)
    while True:
        yield dict(curves)
        for s in g.states:  # in-place: later states see updated earlier ones
            curves[s.id] = _state_update(s, curves)


class _Snapped(dict):
    """``curves`` with every vertex rounded to a denominator of at most
    ``d`` and canonicalized, each state rounded when it is first read."""

    def __init__(self, curves: Mapping[str, Frontier], d: int) -> None:
        super().__init__()
        self.curves = curves
        self.d = d

    def __missing__(self, sid: str) -> Frontier:
        f = self[sid] = canonicalize(
            [
                (x.limit_denominator(self.d), y.limit_denominator(self.d))
                for x, y in self.curves[sid].vertices
            ]
        )
        return f


class _SnappedEnds(_Snapped):
    """Each state's curve in ``curves`` as one corner at its right x and top
    y, the two alone rounded to a denominator of at most ``d`` when first
    read."""

    def __missing__(self, sid: str) -> Frontier:
        f, d = self.curves[sid], self.d
        x, y = f.x_last.limit_denominator(d), f.y_first.limit_denominator(d)
        corner = self[sid] = Frontier(((x, y),))
        return corner


def _ends_fixed(g: Game, ends: Mapping[str, Frontier]) -> bool:
    """``_fixed_at_every_state`` on the right x and top y alone."""
    return _fixed_at_every_state(g, ends, lambda f: (f.x_last, f.y_first))


def _snap(g: Game, curves: CurveMap, n: int) -> CurveMap | None:
    """The first rounding of ``curves`` to denominators d = 10, 100, ...,
    10^t (t the bit length of the sweep count n) that one simultaneous step
    reproduces at every state, or None.

    A candidate is first screened on one corner per state: the update runs
    on ``_SnappedEnds`` and must reproduce each state's right x and top y
    (``_ends_fixed``).  The screen never drops a candidate that the full
    check accepts.  ``limit_denominator(d)`` returns a closest fraction
    with denominator at most d, so rounding is monotone and a rounded
    curve's corner is its curve's corner, rounded.  The operator makes its
    output's right x and top y from its inputs' alone, so on corners it
    makes the same two numbers as on the rounded curves: a union of corners
    has their maxima, an intersection of corners is the corner of their
    minima, and a weighted sum or a translation of corners is one corner.
    A rounding that the update reproduces therefore passes.  Only a
    candidate that passes is rounded in full, lazily, and dropped at its
    first mismatching state, so a failing one costs a few states rather
    than a sweep."""
    for k in range(1, n.bit_length() + 1):
        if not _ends_fixed(g, _SnappedEnds(curves, 10**k)):
            continue
        candidate = _Snapped(curves, 10**k)
        if _fixed_at_every_state(g, candidate):
            return {s.id: candidate[s.id] for s in g.states}
    return None


def value_iterate(
    g: Game, epsilon: RationalLike, max_iters: int
) -> IterationResult:
    """Consume ``iterates(g)`` until one of four rules fires.

    (a) A sweep changes nothing: an exact fixpoint, also of the simultaneous
    operator, reported with ``residual_bound`` 0.  (a') For stopping games,
    after sweep n when n is a power of two (1, 2, 4, 8, ...), a rounding of
    the iterate is a fixpoint (``_snap``): for d = 10, 100, ..., 10^t with
    t the bit length of n, every vertex is rounded with
    ``Fraction.limit_denominator(d)`` and each state canonicalized, and the
    first candidate that ``check_fixpoint`` accepts is returned like (a),
    with ``iterations`` n.  It is exact: in a stopping game the operator
    has exactly one fixpoint among nonempty curve families (k steps, k the
    depth of the stopping attractor, contract the (c,c)-shift distance
    between any two families by a factor below 1, so two fixpoints are at
    distance 0), and the Pareto-curve family is that fixpoint; so an
    accepted candidate *is* the family, however it was obtained.  A
    candidate is rounded in full only if it passes a sound screen on one
    corner per state (``_snap``).  Non-stopping games never snap, since
    their fixpoint is not unique.
    (b) For stopping games, the certified residual drops to ``epsilon`` >= 0
    or below (at 0, only an exact stop).  The residual after sweep n is
    tail_bound(g, 0) * A_n, with A_n the largest worst-case probability of
    surviving n steps; it is sound because n sweeps propagate information
    at least n steps deep, so the returned curves differ from the true ones
    by at most the expected reward collected after depth n (a residual of 0
    is an exact stop).  A_n comes from ``_survival``, exactly, on integers.
    (c) ``max_iters`` sweeps ran (converged = False; for non-stopping
    games the result is then only an iterate, not the least fixpoint).

    The residual is never above tail_bound(g, n) = ceiling *
    decay^floor(n/|S|).  Every state of a stopping game reaches a terminal
    within |S| steps with probability at least p_min^|S| whatever both
    players do (its rank in the stopping attractor is below |S|), so
    A_|S| <= 1 - p_min^|S| = decay.  Survival is submultiplicative,
    A_(m+n) <= A_m * A_n, hence A_n <= decay^floor(n/|S|).

    ``residuals`` holds that residual for every sweep that ran, the
    fixpoint or snapping sweep included (it is empty for non-stopping
    games).  The game is checked for stopping once, and ceiling =
    tail_bound(g, 0) comes once from the helper behind ``tail_bound``.
    """
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise InvalidArgument(f"epsilon must be >= 0, got {_text(epsilon)}")
    if max_iters < 0:
        raise InvalidArgument(f"max_iters must be >= 0, got {_text(max_iters)}")
    stopping = check_stopping(g).stopping
    if stopping:
        ceiling, _ = _tail_terms(g)
        survival = _survival(g)
    residuals: list[Fraction] = []

    sweeps = iterates(g)
    curves = next(sweeps)
    for n, nxt in enumerate(islice(sweeps, max_iters), start=1):
        fixpoint = nxt == curves
        curves = nxt
        if stopping:
            residuals.append(ceiling * next(survival))
            if not fixpoint and n & (n - 1) == 0:
                snapped = _snap(g, curves, n)
                if snapped is not None:
                    curves, fixpoint = snapped, True
        if fixpoint or (stopping and residuals[-1] <= epsilon):
            return IterationResult(
                curves=curves,
                iterations=n,
                residual_bound=Fraction(0) if fixpoint else residuals[-1],
                converged=True,
                residuals=tuple(residuals),
            )
    return IterationResult(
        curves=curves,
        iterations=max_iters,
        residual_bound=residuals[-1] if residuals else None,
        converged=False,
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# Achievability


def achievable_within(
    g: Game,
    s: str,
    z: tuple[RationalLike, RationalLike],
    curves: Mapping[str, Frontier],
    epsilon: RationalLike,
) -> str:
    """Three-valued query for curves within a residual epsilon of the true
    ones, on either side: "yes" when even z + (eps, eps) is dominated, "no"
    when even z - (eps, eps) is not, "unknown" in the band between."""
    _require_complete(g, curves)
    g.state(s)
    eps = as_fraction(epsilon)
    if eps < 0:
        raise InvalidArgument(f"epsilon must be >= 0, got {_text(eps)}")
    zx, zy = as_point(z)
    if contains(curves[s], (zx + eps, zy + eps)):
        return "yes"
    if not contains(curves[s], (zx - eps, zy - eps)):
        return "no"
    return "unknown"
