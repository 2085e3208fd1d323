"""Exact Pareto curves for one-player stochastic decision processes.

Fixing the minimizer's choices in a game leaves a maximizer-only process
("MDP" below).  The solvers work on a game g with a fixed minimizer
strategy sigma instead of building that process: a strategy profile, sigma
together with a maximizer policy, sends every controlled state to one
successor.  The public functions take a process and pass its forced
Player-2 moves as sigma.  Profiles are evaluated by exact sparse rational
elimination (each row holds at most three nonzeros, and I - P is an
M-matrix, so no pivoting is needed), scalarized-optimal policies are found
by policy iteration, and the exact Pareto frontier at a state is
enumerated by dichotomic weight refinement: expose the two lexicographic
extreme vertices, then recursively probe each candidate edge with its
facet-normal direction until every edge is confirmed.  One sweep serves
every state, since each direction's optimal policy is optimal from all
states at once.  Every returned vertex is realized by a concrete policy,
so the frontier is achievable by construction.

Each probed direction w gets one policy-iteration loop that ranks
successors by (w . v, u . v) lexicographically, u the other axis.  For
every small enough eps > 0 this is policy iteration for w + eps*u, so it
stops at a policy that maximizes w . v and, among those, u . v.  The value
of that optimum is unique: two such policies agree on w . v and u . v, and
w and u are linearly independent.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    BadDirection,
    InvalidGame,
    InvalidStrategy,
    InvariantBroken,
    NotStoppingUnderPolicy,
)
from .frontier import Frontier, Point, RationalLike, as_point, canonicalize
from .games import Game, Kind, StateRecord, require_stopping, require_valid

MDStrategy = dict[str, str]  # Player-2 state id -> chosen successor id
MDPolicy = dict[str, str]  # Player-1 state id -> chosen successor id


def induce_mdp(g: Game, sigma: Mapping[str, str]) -> Game:
    """Fix Player-2's choices: every Player-2 state becomes a chance state
    moving with probability 1 to sigma(s)."""
    require_valid(g)
    p2_ids = {s.id for s in g.states if s.kind is Kind.P2}
    if set(sigma) != p2_ids:
        raise InvalidStrategy(
            f"strategy domain {sorted(sigma)} != Player-2 states {sorted(p2_ids)}"
        )
    out = []
    for s in g.states:
        if s.kind is Kind.P2:
            choice = sigma[s.id]
            if choice not in s.successors:
                raise InvalidStrategy(
                    f"{s.id}: chosen successor {choice!r} is not a successor"
                )
            out.append(
                StateRecord(s.id, Kind.CHANCE, s.reward, ((choice, Fraction(1)),))
            )
        else:
            out.append(s)
    return Game(g.initial, tuple(out))


def _forced_moves(mdp: Game) -> MDStrategy:
    """The minimizer strategy of a process: each Player-2 state's only
    successor."""
    bad = [
        s.id
        for s in mdp.states
        if s.kind is Kind.P2 and len(s.transitions) > 1
    ]
    if bad:
        raise InvalidGame(
            f"process has Player-2 choice at {bad}; fix a strategy first",
            violations=tuple(bad),
        )
    return {s.id: s.successors[0] for s in mdp.states if s.kind is Kind.P2}


def _policy_domain(mdp: Game) -> set[str]:
    return {s.id for s in mdp.states if s.kind is Kind.P1}


def _require_policy(mdp: Game, pol: Mapping[str, str]) -> None:
    dom = _policy_domain(mdp)
    if set(pol) != dom:
        raise InvalidStrategy(
            f"policy domain {sorted(pol)} != Player-1 states {sorted(dom)}"
        )
    for sid, choice in pol.items():
        if choice not in mdp.state(sid).successors:
            raise InvalidStrategy(
                f"{sid}: chosen successor {choice!r} is not a successor"
            )


def policy_evaluate(mdp: Game, pol: Mapping[str, str]) -> dict[str, Point]:
    """Expected total reward pair from every state under the policy.

    Solves v(s) = reward(s) + sum_t P(s,t) v(t) with v = (0,0) on terminals
    exactly, by sparse elimination without pivoting (see ``_policy_values``);
    a zero pivot means the policy's chain keeps some states away from the
    terminals forever."""
    require_valid(mdp)
    sigma = _forced_moves(mdp)
    _require_policy(mdp, pol)
    return _policy_values(mdp, {**sigma, **pol})


def _policy_values(g: Game, choice: Mapping[str, str]) -> dict[str, Point]:
    """``policy_evaluate`` of the strategy profile ``choice``, which sends
    every controlled state of g to one of its successors; both already
    known valid.

    Sparse elimination of (I - P) v = r over the non-terminal states, in
    listed order and without pivoting: a row holds only its nonzeros (the
    diagonal and at most two successors) and is reduced against the rows
    above it; back-substitution then gives the values.  P is substochastic,
    so A = I - P is a Z-matrix with rho(P) <= 1, an M-matrix, and an
    M-matrix is nonsingular iff all its principal minors are positive.
    The k-th pivot is det(A_k)/det(A_k-1), so a pivot is zero iff A is
    singular, iff the profile's chain misses the terminals from some state.
    Otherwise the solution is unique, whatever the elimination order."""
    non_term = [s for s in g.states if s.kind is not Kind.TERMINAL]
    index = {s.id: i for i, s in enumerate(non_term)}
    # reduced row i: v_i + sum_c upper[i][c] v_c = rhs[i], c > i; later rhs[i] = v_i
    upper: list[dict[int, Fraction]] = []
    rhs: list[Point] = []
    for i, s in enumerate(non_term):
        row = {i: Fraction(1)}
        moves = s.transitions if s.kind is Kind.CHANCE else ((choice[s.id], 1),)
        for t, p in moves:
            j = index.get(t)
            if j is not None:
                row[j] = row.get(j, 0) - p
        x, y = s.reward
        below = [j for j in row if j < i]
        heapq.heapify(below)
        while below:
            j = heapq.heappop(below)
            f = row.pop(j)
            for c, a in upper[j].items():
                if c < i and c not in row:
                    heapq.heappush(below, c)
                row[c] = row.get(c, 0) - f * a
            x, y = x - f * rhs[j][0], y - f * rhs[j][1]
        pivot = row.pop(i)
        if not pivot:
            raise NotStoppingUnderPolicy(
                "the policy's chain does not reach a terminal from every state"
            )
        upper.append({c: a / pivot for c, a in row.items() if a})
        rhs.append((x / pivot, y / pivot))
    for i in reversed(range(len(non_term))):
        x, y = rhs[i]
        for c, a in upper[i].items():
            x, y = x - a * rhs[c][0], y - a * rhs[c][1]
        rhs[i] = (x, y)
    values = {s.id: rhs[i] for i, s in enumerate(non_term)}
    for s in g.states:
        if s.kind is Kind.TERMINAL:
            values[s.id] = (Fraction(0), Fraction(0))
    return values


# ---------------------------------------------------------------------------
# Policy iteration


_Evaluator = Callable[[MDPolicy], dict[str, Point]]


def _memo_evaluate(g: Game, sigma: Mapping[str, str]) -> _Evaluator:
    """Values of g under sigma and a maximizer policy, each distinct policy
    solved once.

    The memo lives as long as the returned function (one sweep, or one
    ``optimal_policy`` call), whose caller has validated g and sigma; policy
    iteration only builds policies that choose a successor at every
    Player-1 state, so neither is checked again."""
    memo: dict[tuple[tuple[str, str], ...], dict[str, Point]] = {}

    def evaluate(pol: MDPolicy) -> dict[str, Point]:
        key = tuple(sorted(pol.items()))
        values = memo.get(key)
        if values is None:
            values = memo[key] = _policy_values(g, {**sigma, **pol})
        return values

    return evaluate


def _dot(w: Point, v: Point) -> Fraction:
    return w[0] * v[0] + w[1] * v[1]


def _policy_iterate(
    g: Game, evaluate: _Evaluator, directions: Sequence[Point]
) -> tuple[MDPolicy, dict[str, Point]]:
    """Greedy policy iteration from the first-successor policy, ranking
    successors by their values' dot products with ``directions``, compared
    lexicographically; returns the stable policy and its exact values.

    Ranking by (w, u) is policy iteration for w + eps*u for every small
    enough eps > 0, as only finitely many comparisons occur, so the loop
    stops at a policy that maximizes w . v and, among those, u . v from
    every state.  With w and u linearly independent the value of that
    optimum is unique, since w . v and u . v determine v."""
    choices = {s.id: s.successors for s in g.states if s.kind is Kind.P1}
    pol = {sid: succ[0] for sid, succ in choices.items()}
    while True:
        values = evaluate(pol)
        improved = False
        for sid, succ in choices.items():
            rank = {t: tuple(_dot(d, values[t]) for d in directions) for t in succ}
            best = max(succ, key=rank.__getitem__)
            if rank[best] > rank[pol[sid]]:
                pol[sid] = best
                improved = True
        if not improved:
            return pol, values


def _secondary_axis(w: Point) -> Point:
    # tie-break along x unless the primary direction is the x axis itself
    if w[1] == 0:
        return (Fraction(0), Fraction(1))
    return (Fraction(1), Fraction(0))


def optimal_policy(
    mdp: Game,
    w: Sequence[RationalLike],
    lexicographic: bool = False,
) -> tuple[MDPolicy, dict[str, Point]]:
    """Policy maximizing w . E[total reward], by policy iteration.

    With ``lexicographic`` set (axis-aligned w only), ties in the primary
    objective are broken by maximizing the other reward component among
    primary-optimal actions."""
    sigma = _checked_process(mdp, "optimal_policy requires a stopping process")
    w = as_point(w)
    if w[0] < 0 or w[1] < 0 or w == (0, 0):
        raise BadDirection(f"direction must be >= 0 and nonzero, got {w}")
    if lexicographic and w[0] != 0 and w[1] != 0:
        raise BadDirection(
            "lexicographic tie-breaking is defined for axis-aligned directions"
        )
    directions = (w, _secondary_axis(w)) if lexicographic else (w,)
    return _policy_iterate(mdp, _memo_evaluate(mdp, sigma), directions)


# ---------------------------------------------------------------------------
# Pareto curves by dichotomic refinement


def _checked_process(
    mdp: Game, message: str = "pareto curve requires a stopping process"
) -> MDStrategy:
    """Validate a stopping process; returns its forced Player-2 moves."""
    require_valid(mdp)
    sigma = _forced_moves(mdp)
    require_stopping(mdp, message)
    return sigma


def _pareto_witnesses(
    g: Game, sigma: Mapping[str, str], states: Iterable[str]
) -> dict[str, dict[Point, MDPolicy]]:
    """Frontier vertex -> realizing policy, at each of the states of the
    process that sigma leaves of g.

    Finds the two lexicographic extreme vertices, then refines each edge
    (A, B) with the facet normal (A_y - B_y, B_x - A_x): when the optimum in
    that direction strictly beats the edge, a new vertex lies between and
    both halves are probed again.  Terminates because each insertion is a
    distinct frontier vertex and each vertex is realized by one of finitely
    many policies.  One optimal policy per direction serves every state
    (Forejt, Kwiatkowska & Parker, ATVA 2012), so each direction's policy
    iteration runs once for all states, and each distinct policy is
    evaluated once; the optimum is a deterministic function of the
    direction, so sharing changes no result."""
    evaluate = _memo_evaluate(g, sigma)
    optima: dict[Point, tuple[MDPolicy, dict[str, Point]]] = {}

    def optimum(w: Point) -> tuple[MDPolicy, dict[str, Point]]:
        if w not in optima:
            optima[w] = _policy_iterate(g, evaluate, (w, _secondary_axis(w)))
        return optima[w]

    one = Fraction(1)
    zero = Fraction(0)
    out: dict[str, dict[Point, MDPolicy]] = {}
    for s in states:
        pol_a, vals_a = optimum((zero, one))  # top-left extreme
        pol_b, vals_b = optimum((one, zero))  # bottom-right extreme
        a, b = vals_a[s], vals_b[s]
        witnesses: dict[Point, MDPolicy] = {a: pol_a, b: pol_b}
        stack = [(a, b)] if a != b else []
        while stack:
            left, right = stack.pop()
            w = (left[1] - right[1], right[0] - left[0])
            if not (w[0] > 0 and w[1] > 0):
                raise InvariantBroken(
                    f"{s}: edge {left}-{right} has no strictly positive normal"
                )
            pol, vals = optimum(w)
            z = vals[s]
            if _dot(w, z) > _dot(w, left):
                witnesses[z] = pol
                stack.append((left, z))
                stack.append((z, right))
        out[s] = witnesses
    return out


def mdp_pareto_curves(mdp: Game) -> dict[str, Frontier]:
    """Exact Pareto frontier of the achievable set at every state.

    One dichotomic weight sweep serves all states: the process is
    validated and checked for stopping once, each probed direction's
    optimal policy is computed once, and each distinct policy is evaluated
    once.  Each curve equals ``mdp_pareto_curve(mdp, s)``."""
    return _pareto_curves(mdp, _checked_process(mdp))


def _pareto_curves(g: Game, sigma: Mapping[str, str]) -> dict[str, Frontier]:
    """``mdp_pareto_curves`` of the process that sigma leaves of g, for a
    valid stopping g and a total minimizer strategy sigma."""
    return {
        s: canonicalize(list(witnesses))
        for s, witnesses in _pareto_witnesses(g, sigma, g.state_ids).items()
    }


def mdp_pareto_curve(
    mdp: Game,
    s: str,
    *,
    with_witnesses: bool = False,
) -> Frontier | tuple[Frontier, dict[Point, MDPolicy]]:
    """Exact Pareto frontier of the achievable set at state s.

    The same weight sweep as ``mdp_pareto_curves``, restricted to s: the
    two lexicographic extreme vertices, then facet-normal probes of every
    edge until each is confirmed, every direction's policy iteration run
    once.  With ``with_witnesses`` set, also returns one realizing policy
    per frontier vertex."""
    sigma = _checked_process(mdp)
    mdp.state(s)
    witnesses = _pareto_witnesses(mdp, sigma, (s,))[s]
    frontier = canonicalize(list(witnesses))
    if not with_witnesses:
        return frontier
    kept = {v: witnesses[v] for v in frontier.vertices}
    return frontier, kept
