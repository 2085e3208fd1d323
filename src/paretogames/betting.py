"""Inverse betting games: arena, attractor, the potential-guided bettor
strategy, and a simulation harness.

Two players share one pot of credit on a finite graph where every vertex has
exactly two outgoing edges with positive weights summing to one.  At an Eve
vertex the opponent (Adam) must split the current credit c into a valuation
(d1, d2) with w1*d1 + w2*d2 = c, then Eve picks a successor i and the credit
becomes d_i; at an Adam vertex Adam picks the successor and the credit is
unchanged.  Eve tries to reach a target vertex without losing credit, or to
grow the credit beyond any bound.

Eve's strategy maximizes the potential p(v, c) = c + W^a(v) - W^|V|, where W
is the minimum edge weight and a(v) the length of the longest target-avoiding
path compatible with the attractor strategy.  From any non-target
configuration each step raises p by at least W^|V| - W^(|V|+1) exactly — at
Eve vertices because the best successor beats the weight-average, at Adam
vertices because every successor strictly descends a — which yields the
step-bounded reachability guarantee that the simulator checks per step.

Every fact of an arena is derived once and cached on it: for W = n/d in
lowest terms, the integers S * W^k (k = 0 ... |V|+1) over one scale S =
d^(|V|+1); per target set, the attractor with the offsets W^a(v) - W^|V|,
so ``potential`` is one addition.  An arena is validated once per target
set, when ``attractor`` first computes it, then trusted by every play,
which shares the read-only result.  A step computes each potential once,
for the trace, in the pick that ``eve_move`` also makes or by one addition
at an Adam vertex.  Its checks (the valuation, Adam's successor, the
potential increment) run on integers over S: a sign is its numerator's,
and the split, p' - p >= delta and the tests against B and the initial
credit are cross-multiplied by positive denominators, so traces and
messages are those of Fractions.

An adversary (``Adversary``) gets what it reads and nothing more: the
attractor once per play, through ``prepare(attr)``, then
``valuation(v, credit)`` at each Eve vertex and ``choose(v)`` at each of
its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    AdamCheated,
    HypothesisViolated,
    InvalidArgument,
    InvalidBettingGame,
    InvariantBroken,
    StepBoundExceeded,
    UnknownState,
)
from .frontier import (
    RationalLike,
    _fields_repr,
    _points_text,
    _text,
    as_fraction,
    fraction_str,
)
from .games import _read_json, _string_id, _write_json

_ZERO = Fraction(0)  # the zero bet; shared, as a Fraction is immutable


class BetKind:
    EVE = "eve"
    ADAM = "adam"


@dataclass(frozen=True)
class BetVertex:
    id: str
    kind: str
    edges: tuple[tuple[str, Fraction], ...]

    __repr__ = _fields_repr

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "edges",
            tuple((t, as_fraction(w)) for t, w in self.edges),
        )

    @cached_property
    def successors(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.edges)


@dataclass(frozen=True)
class BettingConfig:
    vertex: str
    credit: Fraction

    __repr__ = _fields_repr

    def __post_init__(self) -> None:
        object.__setattr__(self, "credit", as_fraction(self.credit))


@dataclass(frozen=True)
class BettingGame:
    vertices: tuple[BetVertex, ...]
    initial: BettingConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "_by_id", {v.id: v for v in self.vertices})

    def vertex(self, vid: str) -> BetVertex:
        try:
            return self._by_id[vid]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownState(f"no betting vertex with id {vid!r}") from None

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def min_weight(self) -> Fraction:
        return min(w for v in self.vertices for _, w in v.edges)

    @cached_property
    def _id_set(self) -> frozenset[str]:
        return frozenset(self._by_id)  # type: ignore[attr-defined]

    @cached_property
    def _scaled_powers(self) -> tuple[int, ...]:
        """S * W^k = n^k * d^(|V|+1-k) for k = 0 ... |V|+1, W = n/d: the first
        is S, the last two differ by S * (W^|V| - W^(|V|+1))."""
        n, d = self.min_weight.numerator, self.min_weight.denominator
        top = len(self.vertices) + 1
        return tuple(n**k * d ** (top - k) for k in range(top + 1))

    @cached_property
    def _attractors(self) -> dict[frozenset[str], AttractorResult]:
        """``attractor``'s results by target set."""
        return {}


def validate_betting(bg: BettingGame) -> tuple[str, ...]:
    out: list[str] = []
    seen: set[str] = set()
    for v in bg.vertices:
        if v.id in seen:
            out.append(f"{v.id}: duplicate vertex id")
        seen.add(v.id)
        if v.kind not in (BetKind.EVE, BetKind.ADAM):
            out.append(f"{v.id}: kind must be eve or adam, got {v.kind!r}")
    for v in bg.vertices:
        if len(v.edges) != 2:
            out.append(f"{v.id}: needs exactly two outgoing edges")
            continue
        (t1, w1), (t2, w2) = v.edges
        if t1 == t2:
            out.append(f"{v.id}: successors must be distinct")
        for t, w in v.edges:
            if t not in seen:
                out.append(f"{v.id}: edge to unknown vertex {t!r}")
            if not 0 < w <= 1:
                out.append(f"{v.id}: weight {_text(w)} outside (0,1]")
        if w1 + w2 != 1:
            out.append(f"{v.id}: weights sum to {_text(w1 + w2)} != 1")
    if bg.initial.vertex not in seen:
        out.append(f"initial vertex {bg.initial.vertex!r} does not exist")
    return tuple(out)


# ---------------------------------------------------------------------------
# Attractor


@dataclass(frozen=True)
class AttractorResult:
    """Shared by every play on its arena, so its mappings are read-only."""

    winning: frozenset[str]
    sigma: Mapping[str, str]  # Eve vertex in winning minus T -> successor
    a: Mapping[str, int]  # winning vertex -> longest guided target-avoiding path
    offsets: Mapping[str, Fraction]  # winning vertex -> W^a(v) - W^|V|


def attractor(bg: BettingGame, T: Iterable[str]) -> AttractorResult:
    """Classic two-player reachability attractor with its memoryless
    strategy and the guided escape-length a(v).

    winning is the least set containing T and closed under "Eve vertex with
    some successor inside" / "Adam vertex with all successors inside"; sigma
    sends each winning Eve vertex to a successor one layer closer to T;
    a(v) = 0 on T, 1 + a(sigma(v)) at Eve vertices, 1 + max over successors
    at Adam vertices — bounded by the vertex count.

    Computed once per arena and target set, and cached on the arena.  Only
    a result is cached: an invalid arena or an unknown target raises on
    every call."""
    key = frozenset(T)
    res = bg._attractors.get(key)
    if res is None:
        res = bg._attractors[key] = _compute_attractor(bg, key)
    return res


def _compute_attractor(bg: BettingGame, targets: frozenset[str]) -> AttractorResult:
    violations = validate_betting(bg)
    if violations:
        raise InvalidBettingGame("invalid betting game: " + "; ".join(violations))
    for t in targets:
        bg.vertex(t)
    layer: dict[str, int] = {t: 0 for t in targets}
    # a vertex's a-value follows from successors that joined before it
    a: dict[str, int] = dict(layer)
    sigma: dict[str, str] = {}
    frontier_new = True
    k = 0
    while frontier_new:
        frontier_new = False
        k += 1
        for v in bg.vertices:
            if v.id in layer:
                continue
            inside = [t for t in v.successors if t in layer]
            if v.kind == BetKind.EVE and inside:
                sigma[v.id] = min(inside, key=lambda t: layer[t])
                a[v.id] = 1 + a[sigma[v.id]]
            elif v.kind == BetKind.ADAM and len(inside) == 2:
                a[v.id] = 1 + max(a[t] for t in inside)
            else:
                continue
            layer[v.id] = k
            frontier_new = True
    powers = bg._scaled_powers
    offsets = {vid: Fraction(powers[k] - powers[-2], powers[0]) for vid, k in a.items()}
    return AttractorResult(
        winning=frozenset(layer),
        sigma=MappingProxyType(sigma),
        a=MappingProxyType(a),
        offsets=MappingProxyType(offsets),
    )


# ---------------------------------------------------------------------------
# Potential and Eve's move


def potential(attr: AttractorResult, config: BettingConfig) -> Fraction:
    """p(v, c) = c + W^a(v) - W^|V|, with the offset W^a(v) - W^|V| read
    from ``attr``; a vertex outside its winning set raises InvalidArgument."""
    try:
        return config.credit + attr.offsets[config.vertex]
    except KeyError:
        raise InvalidArgument(f"{config.vertex} is outside the winning set") from None


def _check_valuation(
    v: BetVertex, credit: Fraction, d: Sequence[RationalLike]
) -> tuple[Fraction, Fraction]:
    """The valuation d as two Fractions, once it is checked to be two bets
    >= 0 that split ``credit`` exactly along v's weights: w1*d1 + w2*d2 =
    credit, tested on numerators and denominators.  A fault raises
    InvalidArgument."""
    if len(d) != 2:
        raise InvalidArgument(f"valuation needs two entries, got {len(d)}")
    d1, d2 = as_fraction(d[0]), as_fraction(d[1])
    x1, x2 = d1.numerator, d2.numerator
    if x1 < 0 or x2 < 0:
        raise InvalidArgument(f"bets must be >= 0, got {_points_text((d1, d2))}")
    (_, w1), (_, w2) = v.edges
    q1, q2 = w1.denominator * d1.denominator, w2.denominator * d2.denominator
    split = (w1.numerator * x1 * q2 + w2.numerator * x2 * q1) * credit.denominator
    if split != credit.numerator * q1 * q2:
        w1, d1, w2, d2, c = map(_text, (w1, d1, w2, d2, credit))
        raise InvalidArgument(
            f"bets must satisfy w1*d1 + w2*d2 = credit exactly: "
            f"{w1}*{d1} + {w2}*{d2} != {c}"
        )
    return d1, d2


def _eve_pick(
    attr: AttractorResult, v: BetVertex, d: tuple[Fraction, Fraction]
) -> tuple[str, Fraction, Fraction]:
    """Eve's answer to the checked valuation d at the winning Eve vertex v:
    the winning successor t_i whose configuration (t_i, d_i) has the largest
    potential, as ``(t_i, d_i, potential)``.  Each option's potential is
    computed once, read from ``attr.offsets``; a zero bet's is its offset
    alone.  Ties go to the first edge."""
    offsets = attr.offsets
    best = None
    for (t, _), di in zip(v.edges, d):
        offset = offsets.get(t)
        if offset is None:
            continue
        p = di + offset if di else offset
        if best is None or p > best[2]:
            best = (t, di, p)
    if best is None:
        raise InvariantBroken(
            f"{v.id}: winning Eve vertex without a winning successor"
        )
    return best


def eve_move(
    bg: BettingGame,
    T: Iterable[str],
    config: BettingConfig,
    d: Sequence[RationalLike],
) -> BettingConfig:
    """Eve's potential-maximizing answer to the valuation d at an Eve
    vertex: among the successor configurations (t_i, d_i), pick the one of
    maximal potential.  From a non-target configuration the chosen successor
    raises the potential by at least W^|V| - W^(|V|+1).  A configuration
    that is not at a winning Eve vertex, or bets that are negative or do not
    split its credit exactly, raise InvalidArgument."""
    attr = attractor(bg, T)
    v = bg.vertex(config.vertex)
    if v.kind != BetKind.EVE:
        raise InvalidArgument(f"{v.id} is not an Eve vertex")
    if v.id not in attr.winning:
        raise InvalidArgument(f"{v.id} is outside the winning set")
    t, credit, _ = _eve_pick(attr, v, _check_valuation(v, config.credit, d))
    return BettingConfig(t, credit)


# ---------------------------------------------------------------------------
# Adversaries


class Adversary:
    """Adam: supplies valuations at Eve vertices, successors at his own."""

    def prepare(self, attr: AttractorResult) -> None:
        self._attr = attr

    def _a(self, vid: str) -> int:
        return self._attr.a.get(vid, -1)

    def choose(self, v):
        """The successor farthest from the targets, prolonging the walk."""
        return max(v.successors, key=self._a)

    def _stake_all(self, v, credit, on_guided):
        """The valuation that bets the whole credit on one successor of v:
        the guided one (sigma's choice, else the first) if ``on_guided``,
        else the other."""
        guided = self._attr.sigma.get(v.id, v.successors[0])
        (t1, w1), (_, w2) = v.edges
        if (t1 == guided) == on_guided:
            return (credit / w1, _ZERO)
        return (_ZERO, credit / w2)


class RandomAdam(Adversary):
    """Splits the credit at a uniformly random ratio; walks randomly."""

    GRAIN = 16

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def valuation(self, v, credit):
        t = Fraction(self._rng.randint(0, self.GRAIN), self.GRAIN)
        (_, w1), (_, w2) = v.edges
        return (t * credit / w1, (1 - t) * credit / w2)

    def choose(self, v):
        return self._rng.choice(v.successors)


class StarveAdam(Adversary):
    """Puts the whole pot on the non-guided successor, hoping Eve must
    follow her guide into poverty; prolongs the walk at his own vertices."""

    def valuation(self, v, credit):
        return self._stake_all(v, credit, on_guided=False)


class EqualSplitAdam(Adversary):
    """Bets the current credit on both edges, keeping it constant."""

    def valuation(self, v, credit):
        return (credit, credit)


class FundTargetAdam(Adversary):
    """Funds the guided successor fully, conceding growth but racing on."""

    def valuation(self, v, credit):
        return self._stake_all(v, credit, on_guided=True)

    def choose(self, v):
        return min(v.successors, key=self._a)


class MixedAdam(Adversary):
    """Randomly alternates between the other adversaries' behaviors."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._delegates = [
            RandomAdam(self._rng.randint(0, 2**30)),
            StarveAdam(),
            EqualSplitAdam(),
            FundTargetAdam(),
        ]

    def prepare(self, attr):
        super().prepare(attr)
        for d in self._delegates:
            d.prepare(attr)

    def valuation(self, v, credit):
        return self._rng.choice(self._delegates).valuation(v, credit)

    def choose(self, v):
        return self._rng.choice(self._delegates).choose(v)


class ScriptedAdam(Adversary):
    """Replays fixed valuations and choices, for regression tests."""

    def __init__(
        self,
        valuations: Sequence[Sequence[RationalLike]] = (),
        choices: Sequence[str] = (),
    ):
        self._valuations = [tuple(map(as_fraction, d)) for d in valuations]
        self._choices = list(choices)

    def valuation(self, v, credit):
        if not self._valuations:
            raise AdamCheated("scripted adversary ran out of valuations")
        return self._valuations.pop(0)

    def choose(self, v):
        if not self._choices:
            raise AdamCheated("scripted adversary ran out of choices")
        return self._choices.pop(0)


ADAM_FACTORIES = {
    "random": lambda seed: RandomAdam(seed),
    "starve": lambda seed: StarveAdam(),
    "equal": lambda seed: EqualSplitAdam(),
    "fund": lambda seed: FundTargetAdam(),
    "mixed": lambda seed: MixedAdam(seed),
}


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class TraceStep:
    step: int
    vertex: str
    credit: Fraction
    potential: Fraction

    __repr__ = _fields_repr


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    reached_target: bool
    end: str  # "target-credit" | "target-bound" | "max-steps"
    step_bound: int


def step_bound(bg: BettingGame, B: RationalLike) -> int:
    """ceil((B + W^|V|) / (W^|V| - W^(|V|+1))), from the potential growth.
    The credit bound B must be positive; otherwise raises InvalidArgument."""
    B = as_fraction(B)
    if B <= 0:
        raise InvalidArgument(f"credit bound must be positive, got {_text(B)}")
    powers = bg._scaled_powers
    return math.ceil((B * powers[0] + powers[-2]) / (powers[-2] - powers[-1]))


def simulate(
    bg: BettingGame,
    T: Iterable[str],
    B: RationalLike,
    adam: Adversary,
    max_steps: int | None = None,
) -> Trace:
    """Play Eve's potential strategy against the supplied adversary until
    the play sits on a target vertex with at least the initial credit, or
    the credit reaches B, which must be positive (InvalidArgument otherwise).
    Requires Eve to win the reachability game from every vertex.  Checks
    the exact per-step potential increment along the way (raising
    InvariantBroken if it fails) and never runs past the derived step
    bound, nor past ``max_steps`` (None or an int >= 0).  A malformed or
    inexact valuation raises AdamCheated.  Eve's pick is ``_eve_pick``,
    looked up at each call; the checks run on integers over S.

    A credit of 0 can never grow again (every valuation must then be
    (0, 0)), so once the play sits on a target with credit 0 below a
    positive initial credit no target configuration is reachable; the play
    ends there as if the step limit were hit."""
    if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
        raise InvalidArgument(
            f"max_steps must be None or an int >= 0, got {_text(max_steps)}"
        )
    targets = frozenset(T)
    attr = attractor(bg, targets)
    if attr.winning != bg._id_set:
        raise HypothesisViolated(
            "the bettor must win from every vertex; losing: "
            + ", ".join(sorted(bg._id_set - attr.winning))
        )
    B = as_fraction(B)
    bound = step_bound(bg, B)
    limit = bound if max_steps is None else min(bound, max_steps)
    adam.prepare(attr)

    offsets, a, powers = attr.offsets, attr.a, bg._scaled_powers
    scale, gain = powers[0], powers[-2] - powers[-1]  # S and S * delta
    c0 = bg.initial.credit
    vertex, credit = bg.initial.vertex, c0
    num, den = c0n, c0d = c0.numerator, c0.denominator  # the credit
    bn, bd = B.numerator, B.denominator
    p = potential(attr, bg.initial)
    steps = [TraceStep(0, vertex, credit, p)]

    n = 0
    while True:
        if num * bd >= bn * den:  # credit >= B
            return Trace(tuple(steps), True, "target-bound", bound)
        exhausted = False
        at_target = vertex in targets
        if at_target:
            if num * c0d >= c0n * den:  # credit >= c0
                return Trace(tuple(steps), True, "target-credit", bound)
            exhausted = num == 0
        if n >= limit or exhausted:
            if limit < bound:
                return Trace(tuple(steps), False, "max-steps", bound)
            reason = f"no target configuration within {_text(limit)} steps"
            if exhausted:
                reason += (
                    f": credit exhausted at target {vertex} after {n}"
                    f" steps, and 0 never regains the initial credit {_text(c0)}"
                )
            raise StepBoundExceeded(reason)
        v = bg.vertex(vertex)
        if v.kind == BetKind.EVE:
            d = adam.valuation(v, credit)
            try:
                dd = _check_valuation(v, credit, d)
            except (InvalidArgument, TypeError) as exc:
                raise AdamCheated(str(exc)) from exc
            nxt, c_next, p_next = _eve_pick(attr, v, dd)
            num_next, den_next = c_next.numerator, c_next.denominator
        else:
            nxt = adam.choose(v)
            if nxt not in v.successors:
                raise AdamCheated(f"{v.id}: chose {nxt!r}, not a successor")
            c_next, p_next = credit, credit + offsets[nxt]
            num_next, den_next = num, den
        # p_next - p >= delta, times S * den * den_next
        if not at_target and (num_next * den - num * den_next) * scale < (
            gain - powers[a[nxt]] + powers[a[vertex]]
        ) * den * den_next:
            raise InvariantBroken(
                f"potential increment {_text(p_next - p)} below "
                f"{_text(Fraction(gain, scale))} at step {n} from {vertex} "
                f"with credit {_text(credit)}"
            )
        vertex, credit, p, num, den = nxt, c_next, p_next, num_next, den_next
        n += 1
        steps.append(TraceStep(n, vertex, credit, p))


def trace_to_csv(trace: Trace) -> str:
    lines = ["step,vertex,credit,potential"]
    for s in trace.steps:
        lines.append(
            f"{s.step},{s.vertex},"
            f"{fraction_str(s.credit)},{fraction_str(s.potential)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON serialization (mirrors the game format, with weights)


def betting_to_json(bg: BettingGame) -> dict:
    return {
        "initial": {
            "vertex": bg.initial.vertex,
            "credit": fraction_str(bg.initial.credit),
        },
        "states": [
            {
                "id": v.id,
                "kind": v.kind,
                "transitions": [
                    {"to": t, "weight": fraction_str(wt)} for t, wt in v.edges
                ],
            }
            for v in bg.vertices
        ],
    }


def betting_from_json(data: Mapping) -> BettingGame:
    try:
        vertices = tuple(
            BetVertex(
                id=_string_id(rec["id"], "vertex id"),
                kind=rec["kind"],
                edges=tuple(
                    (_string_id(e["to"], "edge target"), e["weight"])
                    for e in rec["transitions"]
                ),
            )
            for rec in data["states"]
        )
        init = data["initial"]
        vertex = _string_id(init["vertex"], "initial vertex")
        return BettingGame(vertices, BettingConfig(vertex, init["credit"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidBettingGame(f"malformed betting game: {exc}") from exc


def load_betting(path) -> BettingGame:
    return betting_from_json(_read_json(path, InvalidBettingGame))


def save_betting(bg: BettingGame, path) -> None:
    _write_json(betting_to_json(bg), path)
