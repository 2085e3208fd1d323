"""Exact Pareto curves for one-player stochastic decision processes.

Fixing the minimizer's choices in a game leaves a maximizer-only process
("MDP" below).  This module evaluates memoryless deterministic policies by
exact rational linear solves, finds scalarized-optimal policies by policy
iteration, and enumerates the exact Pareto frontier at a state by dichotomic
weight refinement: expose the two lexicographic extreme vertices, then
recursively probe each candidate edge with its facet-normal direction until
every edge is confirmed.  One sweep serves every state of a process, since
each direction's optimal policy is optimal from all states at once.  Every
returned vertex is realized by a concrete policy, so the frontier is
achievable by construction.
"""

from __future__ import annotations

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


def _require_no_p2_choice(mdp: Game) -> None:
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


def _solve_linear(
    rows: list[list[Fraction]], rhs: list[list[Fraction]]
) -> list[list[Fraction]] | None:
    """Solve A x = b for several right-hand sides by exact Gaussian
    elimination; None when A is singular."""
    n = len(rows)
    m = [row[:] + r[:] for row, r in zip(rows, rhs)]
    width = len(m[0]) if m else 0
    for col in range(n):
        pivot = max(
            range(col, n), key=lambda r: abs(m[r][col]), default=col
        )
        if n and m[pivot][col] == 0:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:width] for row in m]


def policy_evaluate(mdp: Game, pol: Mapping[str, str]) -> dict[str, Point]:
    """Expected total reward pair from every state under the policy.

    Solves v(s) = reward(s) + sum_t P(s,t) v(t) with v = (0,0) on terminals
    exactly; a singular system means the policy's chain keeps some states
    away from the terminals forever."""
    require_valid(mdp)
    _require_no_p2_choice(mdp)
    _require_policy(mdp, pol)
    return _policy_values(mdp, pol)


def _policy_values(mdp: Game, pol: Mapping[str, str]) -> dict[str, Point]:
    """``policy_evaluate`` on a process and a policy already known valid."""
    non_term = [s for s in mdp.states if s.kind is not Kind.TERMINAL]
    index = {s.id: i for i, s in enumerate(non_term)}
    n = len(non_term)
    rows = [[Fraction(0)] * n for _ in range(n)]
    rhs = [[s.reward[0], s.reward[1]] for s in non_term]
    for s in non_term:
        i = index[s.id]
        rows[i][i] += 1
        if s.kind is Kind.CHANCE:
            moves: Sequence[tuple[str, Fraction]] = s.transitions
        elif s.kind is Kind.P1:
            moves = ((pol[s.id], Fraction(1)),)
        else:  # single-choice Player-2
            moves = ((s.successors[0], Fraction(1)),)
        for t, p in moves:
            j = index.get(t)
            if j is not None:
                rows[i][j] -= p
    solution = _solve_linear(rows, rhs)
    if solution is None:
        raise NotStoppingUnderPolicy(
            "the policy's chain does not reach a terminal from every state"
        )
    values: dict[str, Point] = {
        s.id: (solution[index[s.id]][0], solution[index[s.id]][1])
        for s in non_term
    }
    for s in mdp.states:
        if s.kind is Kind.TERMINAL:
            values[s.id] = (Fraction(0), Fraction(0))
    return values


# ---------------------------------------------------------------------------
# Policy iteration


_Evaluator = Callable[[MDPolicy], dict[str, Point]]


def _memo_evaluate(mdp: Game) -> _Evaluator:
    """policy_evaluate on one process, each distinct policy solved once.

    The memo lives as long as the returned function, i.e. one public call,
    which has validated the process; policy iteration only builds policies
    that choose a successor at every Player-1 state, so neither is checked
    again."""
    memo: dict[tuple[tuple[str, str], ...], dict[str, Point]] = {}

    def evaluate(pol: MDPolicy) -> dict[str, Point]:
        key = tuple(sorted(pol.items()))
        values = memo.get(key)
        if values is None:
            values = memo[key] = _policy_values(mdp, pol)
        return values

    return evaluate


def _initial_policy(mdp: Game) -> MDPolicy:
    return {
        s.id: s.successors[0] for s in mdp.states if s.kind is Kind.P1
    }


def _dot(w: Point, v: Point) -> Fraction:
    return w[0] * v[0] + w[1] * v[1]


def _policy_iterate(
    evaluate: _Evaluator,
    direction: Point,
    actions: Mapping[str, tuple[str, ...]],
    pol: MDPolicy,
) -> tuple[MDPolicy, dict[str, Point]]:
    """Greedy policy iteration maximizing direction . v within the allowed
    action sets; returns the stable policy and its exact values."""
    pol = dict(pol)
    while True:
        values = evaluate(pol)
        improved = False
        for sid, choices in actions.items():
            current = _dot(direction, values[pol[sid]])
            best_choice, best = pol[sid], current
            for t in choices:
                cand = _dot(direction, values[t])
                if cand > best:
                    best_choice, best = t, cand
            if best > current:
                pol[sid] = best_choice
                improved = True
        if not improved:
            return pol, values


def _secondary_axis(w: Point) -> Point:
    # tie-break along x unless the primary direction is the x axis itself
    if w[1] == 0:
        return (Fraction(0), Fraction(1))
    return (Fraction(1), Fraction(0))


def _optimal_vertex(
    mdp: Game,
    evaluate: _Evaluator,
    w: Point,
) -> tuple[MDPolicy, dict[str, Point]]:
    """Maximize w . v, then break ties toward a vertex of the optimal face
    by a second, restricted policy-iteration pass along an axis."""
    full_actions = {
        s.id: s.successors for s in mdp.states if s.kind is Kind.P1
    }
    pol, values = _policy_iterate(evaluate, w, full_actions, _initial_policy(mdp))
    # restrict every state to its primary-optimal actions; any policy inside
    # this restriction attains the same primary value (the restricted
    # operator has the primary value as its unique fixed point)
    tight_actions = {
        sid: tuple(
            t
            for t in choices
            if _dot(w, values[t]) == _dot(w, values[pol[sid]])
        )
        for sid, choices in full_actions.items()
    }
    pol2, values2 = _policy_iterate(evaluate, _secondary_axis(w), tight_actions, pol)
    return pol2, values2


def optimal_policy(
    mdp: Game,
    w: Sequence[RationalLike],
    lexicographic: bool = False,
) -> tuple[MDPolicy, dict[str, Point]]:
    """Policy maximizing w . E[total reward], by policy iteration.

    With ``lexicographic`` set (axis-aligned w only), ties in the primary
    objective are broken by maximizing the other reward component among
    primary-optimal actions."""
    _require_stopping_process(
        mdp, "optimal_policy requires a stopping process"
    )
    w = as_point(w)
    if w[0] < 0 or w[1] < 0 or w == (0, 0):
        raise BadDirection(f"direction must be >= 0 and nonzero, got {w}")
    evaluate = _memo_evaluate(mdp)
    if not lexicographic:
        full_actions = {
            s.id: s.successors for s in mdp.states if s.kind is Kind.P1
        }
        return _policy_iterate(evaluate, w, full_actions, _initial_policy(mdp))
    if w[0] != 0 and w[1] != 0:
        raise BadDirection(
            "lexicographic tie-breaking is defined for axis-aligned directions"
        )
    return _optimal_vertex(mdp, evaluate, w)


# ---------------------------------------------------------------------------
# Pareto curves by dichotomic refinement


def _require_stopping_process(
    mdp: Game, message: str = "pareto curve requires a stopping process"
) -> None:
    require_valid(mdp)
    _require_no_p2_choice(mdp)
    require_stopping(mdp, message)


def _pareto_witnesses(
    mdp: Game, states: Iterable[str]
) -> dict[str, dict[Point, MDPolicy]]:
    """Frontier vertex -> realizing policy, at each of the states.

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
    evaluate = _memo_evaluate(mdp)
    optima: dict[Point, tuple[MDPolicy, dict[str, Point]]] = {}

    def optimum(w: Point) -> tuple[MDPolicy, dict[str, Point]]:
        if w not in optima:
            optima[w] = _optimal_vertex(mdp, evaluate, w)
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
    _require_stopping_process(mdp)
    return _pareto_curves(mdp)


def _pareto_curves(mdp: Game) -> dict[str, Frontier]:
    """``mdp_pareto_curves`` of a process already known to be a valid
    stopping process without Player-2 choice."""
    return {
        s: canonicalize(list(witnesses))
        for s, witnesses in _pareto_witnesses(mdp, mdp.state_ids).items()
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
    _require_stopping_process(mdp)
    mdp.state(s)
    witnesses = _pareto_witnesses(mdp, (s,))[s]
    frontier = canonicalize(list(witnesses))
    if not with_witnesses:
        return frontier
    kept = {v: witnesses[v] for v in frontier.vertices}
    return frontier, kept
