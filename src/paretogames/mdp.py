"""Exact Pareto curves for one-player stochastic decision processes, and
the strategy iteration loop that both players share.

Fixing the minimizer's choices in a game leaves a maximizer-only process
("MDP" below).  The solvers work on a game g with a fixed minimizer
strategy sigma instead of building that process, through one
``_BestResponse`` per sigma that evaluates each strategy profile (sigma
together with a maximizer policy) once and solves each direction once.
The public functions take a process and pass its forced Player-2 moves as
sigma.  Profiles are evaluated by exact sparse rational elimination (each
row holds at most three nonzeros, and I - P is an M-matrix, so no pivoting
is needed).  ``_policy_iterate`` is the one strategy-iteration loop: policy
iteration for the maximizer, ranking successors by (w . v, u . v)
lexicographically, u the other axis, and Hoffman-Karp strategy iteration
for the minimizer (``_minimizer_optimum``).  Every optimum, that of
``optimal_policy`` included, breaks ties by u this way, so its value is
unique for every direction.  The exact Pareto frontier at a state is
enumerated by dichotomic weight refinement: expose the two lexicographic
extreme vertices, then recursively probe each candidate edge with its
facet-normal direction until every edge is confirmed.  One sweep serves
every state, since each direction's optimal policy is optimal from all
states at once.  The sweep keeps vertices only; every one of them is the
value of a concrete policy that ``_BestResponse`` memoizes, so the frontier
is achievable by construction.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import InvalidArgument, InvalidGame, InvariantBroken, NotStopping
from .frontier import Frontier, Point, RationalLike, _direction, canonicalize
from .games import Game, Kind, StateRecord, require_stopping, require_valid

MDStrategy = dict[str, str]  # Player-2 state id -> chosen successor id
MDPolicy = dict[str, str]  # Player-1 state id -> chosen successor id


def _require_choices(g: Game, kind: Kind, chosen: Mapping[str, str], what: str) -> None:
    """Raise InvalidArgument unless ``chosen`` sends each state of ``kind``,
    and nothing else, to one of its successors (checked in listed order)."""
    owned = [s for s in g.states if s.kind is kind]
    if set(chosen) != {s.id for s in owned}:
        player = "Player-1" if kind is Kind.P1 else "Player-2"
        raise InvalidArgument(
            f"{what} domain {sorted(chosen)} != {player} states "
            f"{sorted(s.id for s in owned)}"
        )
    for s in owned:
        if chosen[s.id] not in s.successors:
            raise InvalidArgument(
                f"{s.id}: chosen successor {chosen[s.id]!r} is not a successor"
            )


def induce_mdp(g: Game, sigma: Mapping[str, str]) -> Game:
    """Fix Player-2's choices: every Player-2 state becomes a chance state
    moving with probability 1 to sigma(s)."""
    require_valid(g)
    _require_choices(g, Kind.P2, sigma, "strategy")
    return Game(
        g.initial,
        tuple(
            StateRecord(s.id, Kind.CHANCE, s.reward, ((sigma[s.id], Fraction(1)),))
            if s.kind is Kind.P2
            else s
            for s in g.states
        ),
    )


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


def policy_evaluate(mdp: Game, pol: Mapping[str, str]) -> dict[str, Point]:
    """Expected total reward pair from every state under the policy.

    Solves v(s) = reward(s) + sum_t P(s,t) v(t) with v = (0,0) on terminals
    exactly, by sparse elimination without pivoting (see ``_policy_values``);
    a zero pivot means the policy's chain keeps some states away from the
    terminals forever, so the process is not stopping: NotStopping, with
    an empty witness."""
    require_valid(mdp)
    sigma = _forced_moves(mdp)
    _require_choices(mdp, Kind.P1, pol, "policy")
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
            raise NotStopping(
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
# Strategy iteration

_Key = frozenset[tuple[str, str]]  # a strategy's choices, in any order


def _dot(w: Point, v: Point) -> Fraction:
    return w[0] * v[0] + w[1] * v[1]


def _policy_iterate(
    choices: Mapping[str, Sequence[str]],
    start: Mapping[str, str],
    evaluate: Callable[[Mapping[str, str]], dict[str, Point]],
    directions: Sequence[Point],
) -> tuple[dict[str, str], dict[str, Point]]:
    """Greedy strategy iteration for the player whose states map to their
    successors in ``choices``, from ``start``: value the choices with
    ``evaluate``, switch every state whose best successor (by the values'
    dot products with ``directions``, lexicographically; the first on ties)
    ranks strictly above its choice, and stop when none does.  Returns the
    stable choices and their values.

    For the maximizer, ranking by (w, u) is policy iteration for w + eps*u
    for every small enough eps > 0, as only finitely many comparisons
    occur, so it stops at a policy maximizing w . v and, among those, u . v
    from every state; that value is unique, as w . v and u . v determine v."""
    pol = dict(start)
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


class _BestResponse:
    """The maximizer's side of g against the total minimizer strategy
    sigma, g valid and stopping: each maximizer policy is evaluated once and
    each direction solved once, for as long as the object lives (one public
    call, or one ``check_determinacy``).  Policy iteration only builds
    policies that choose a successor at every Player-1 state, so neither g
    nor sigma is checked again."""

    def __init__(self, g: Game, sigma: Mapping[str, str]):
        self.g = g
        self.sigma = dict(sigma)
        self._choices = {s.id: s.successors for s in g.states if s.kind is Kind.P1}
        self._values: dict[tuple[tuple[str, str], ...], dict[str, Point]] = {}
        self._optima: dict[Point, tuple[MDPolicy, dict[str, Point]]] = {}

    def evaluate(self, pol: Mapping[str, str]) -> dict[str, Point]:
        key = tuple(sorted(pol.items()))
        values = self._values.get(key)
        if values is None:
            values = self._values[key] = _policy_values(self.g, {**self.sigma, **pol})
        return values

    def optimum(self, w: Point) -> tuple[MDPolicy, dict[str, Point]]:
        """The policy maximizing w . v and, among those, u . v, u =
        ``_secondary_axis(w)``, and its values: ``_policy_iterate`` from the
        first-successor policy."""
        if w not in self._optima:
            start = {sid: succ[0] for sid, succ in self._choices.items()}
            self._optima[w] = _policy_iterate(
                self._choices, start, self.evaluate, (w, _secondary_axis(w))
            )
        return self._optima[w]


def _minimizer_optimum(
    g: Game, w: Point, sigma: Mapping[str, str], responses: dict[_Key, _BestResponse]
) -> _BestResponse:
    """The best response to a minimizer strategy optimal in the game
    scalarized by (w, u), u = ``_secondary_axis(w)``, by Hoffman-Karp
    strategy iteration from ``sigma``: ``_policy_iterate`` over the Player-2
    states, each strategy valued by its best response, both directions
    negated so that max picks what min would, the first on ties.  A switch
    strictly lowers the best-response value, so on a stopping game no
    strategy repeats and the loop ends.  ``responses`` keeps one
    ``_BestResponse`` per strategy visited."""

    def best_response_values(s: Mapping[str, str]) -> dict[str, Point]:
        key = frozenset(s.items())
        if key not in responses:
            responses[key] = _BestResponse(g, s)
        return responses[key].optimum(w)[1]

    u = _secondary_axis(w)
    choices = {s.id: s.successors for s in g.states if s.kind is Kind.P2}
    negated = ((-w[0], -w[1]), (-u[0], -u[1]))
    sigma, _ = _policy_iterate(choices, sigma, best_response_values, negated)
    return responses[frozenset(sigma.items())]


def optimal_policy(
    mdp: Game, w: Sequence[RationalLike]
) -> tuple[MDPolicy, dict[str, Point]]:
    """Policy maximizing w . E[total reward] from every state, by policy
    iteration, and its values.  Ties are broken by maximizing the other
    reward component (y when w is the x axis, else x) among w-optimal
    actions, so the values are unique for every direction."""
    sigma = _checked_process(mdp, "optimal_policy requires a stopping process")
    return _BestResponse(mdp, sigma).optimum(_direction(w))


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


def _edge_normal(a: Point, b: Point) -> Point:
    """The normal (a_y - b_y, b_x - a_x) of the edge from a to b, scaled to
    coordinate sum 1, so every caller probes an edge under one memo key;
    a positive factor changes no comparison."""
    nx, ny = a[1] - b[1], b[0] - a[0]
    return nx / (nx + ny), ny / (nx + ny)


def _pareto_curves(r: _BestResponse) -> dict[str, Frontier]:
    """``mdp_pareto_curves`` of the process that r.sigma leaves of r.g.

    At each state, finds the two lexicographic extreme vertices, then
    refines each edge (A, B) with its normal ``_edge_normal(A, B)``: when
    the optimum in that direction strictly beats the edge, a new vertex
    lies between and both halves are probed again.  Terminates because
    each insertion is a distinct frontier vertex and each vertex is
    realized by one of finitely many policies.  One optimal policy per
    direction serves every state (Forejt, Kwiatkowska & Parker, ATVA
    2012), so r solves each direction once for all states."""
    one = Fraction(1)
    zero = Fraction(0)
    top_left = r.optimum((zero, one))[1]
    bottom_right = r.optimum((one, zero))[1]
    out: dict[str, Frontier] = {}
    for s in r.g.state_ids:
        a, b = top_left[s], bottom_right[s]
        vertices = {a, b}
        stack = [(a, b)] if a != b else []
        while stack:
            left, right = stack.pop()
            if not (left[1] > right[1] and right[0] > left[0]):
                raise InvariantBroken(
                    f"{s}: edge {left}-{right} has no strictly positive normal"
                )
            w = _edge_normal(left, right)
            z = r.optimum(w)[1][s]
            if _dot(w, z) > _dot(w, left):
                vertices.add(z)
                stack.append((left, z))
                stack.append((z, right))
        out[s] = canonicalize(list(vertices))
    return out


def mdp_pareto_curves(mdp: Game) -> dict[str, Frontier]:
    """Exact Pareto frontier of the achievable set at every state.

    One dichotomic weight sweep serves all states: the process is
    validated and checked for stopping once, each probed direction's
    optimal policy is computed once, and each distinct policy is evaluated
    once."""
    return _pareto_curves(_BestResponse(mdp, _checked_process(mdp)))


def mdp_pareto_curve(mdp: Game, s: str) -> Frontier:
    """Exact Pareto frontier of the achievable set at state s: the s entry
    of ``mdp_pareto_curves``."""
    sigma = _checked_process(mdp)
    mdp.state(s)
    return _pareto_curves(_BestResponse(mdp, sigma))[s]
