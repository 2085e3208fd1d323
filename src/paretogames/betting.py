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

Every fact of an arena is derived once and cached on it: W, its powers
W^0 ... W^|V| and the gain per step; and, per target set, the attractor
with the offsets W^a(v) - W^|V|, so ``potential`` is one addition.  An
arena is validated once per target set, when ``attractor`` first computes
that set's result, and then trusted by every play; the cached result is
read-only, as every play shares it.  Each play still checks every step
exactly: the valuation, Adam's successor and the potential increment.

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
    InvalidValuation,
    InvariantBroken,
    NotWinningVertex,
    StepBoundExceeded,
    UnknownState,
)
from .frontier import RationalLike, as_fraction, fraction_str
from .games import _read_json, _string_id, _write_json


class BetKind:
    EVE = "eve"
    ADAM = "adam"


@dataclass(frozen=True)
class BetVertex:
    id: str
    kind: str
    edges: tuple[tuple[str, Fraction], ...]

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
    def _w_powers(self) -> tuple[Fraction, ...]:
        """W^0, W^1, ..., W^|V|."""
        w = self.min_weight
        return tuple(w**k for k in range(len(self.vertices) + 1))

    @cached_property
    def _step_gain(self) -> Fraction:
        """W^|V| - W^(|V|+1): the least potential increase per non-target step."""
        return self._w_powers[-1] * (1 - self.min_weight)

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
                out.append(f"{v.id}: weight {w} outside (0,1]")
        if w1 + w2 != 1:
            out.append(f"{v.id}: weights sum to {w1 + w2} != 1")
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
    powers = bg._w_powers
    offsets = {vid: powers[k] - powers[-1] for vid, k in a.items()}
    return AttractorResult(
        winning=frozenset(layer),
        sigma=MappingProxyType(sigma),
        a=MappingProxyType(a),
        offsets=MappingProxyType(offsets),
    )


# ---------------------------------------------------------------------------
# Potential and Eve's move


def potential(bg: BettingGame, attr: AttractorResult, config: BettingConfig) -> Fraction:
    """p(v, c) = c + W^a(v) - W^|V| (requires v in the winning set of
    ``attr``, which holds the offset W^a(v) - W^|V| of ``bg``)."""
    try:
        return config.credit + attr.offsets[config.vertex]
    except KeyError:
        raise NotWinningVertex(f"{config.vertex} is outside the winning set") from None


def _check_valuation(
    v: BetVertex, credit: Fraction, d: Sequence[RationalLike]
) -> tuple[Fraction, Fraction]:
    if len(d) != 2:
        raise InvalidValuation(f"valuation needs two entries, got {len(d)}")
    d1, d2 = as_fraction(d[0]), as_fraction(d[1])
    if d1 < 0 or d2 < 0:
        raise InvalidValuation(f"bets must be >= 0, got ({d1},{d2})")
    (_, w1), (_, w2) = v.edges
    if w1 * d1 + w2 * d2 != credit:
        raise InvalidValuation(
            f"bets must satisfy w1*d1 + w2*d2 = credit exactly: "
            f"{w1}*{d1} + {w2}*{d2} != {credit}"
        )
    return d1, d2


def _eve_pick(
    bg: BettingGame,
    attr: AttractorResult,
    v: BetVertex,
    d: tuple[Fraction, Fraction],
) -> BettingConfig:
    options = [BettingConfig(t, di) for (t, _), di in zip(v.edges, d) if t in attr.a]
    if not options:
        raise InvariantBroken(
            f"{v.id}: winning Eve vertex without a winning successor"
        )
    # max keeps the first of equal potentials, so ties go to the first edge
    return max(options, key=lambda c: potential(bg, attr, c))


def eve_move(
    bg: BettingGame,
    T: Iterable[str],
    config: BettingConfig,
    d: Sequence[RationalLike],
) -> BettingConfig:
    """Eve's potential-maximizing answer to the valuation d at an Eve
    vertex: among the successor configurations (t_i, d_i), pick the one of
    maximal potential.  From a non-target configuration the chosen successor
    raises the potential by at least W^|V| - W^(|V|+1)."""
    attr = attractor(bg, T)
    v = bg.vertex(config.vertex)
    if v.kind != BetKind.EVE:
        raise InvalidArgument(f"{v.id} is not an Eve vertex")
    if v.id not in attr.winning:
        raise NotWinningVertex(f"{v.id} is outside the winning set")
    dd = _check_valuation(v, config.credit, d)
    return _eve_pick(bg, attr, v, dd)


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
            return (credit / w1, Fraction(0))
        return (Fraction(0), credit / w2)


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
        raise InvalidArgument(f"credit bound must be positive, got {B}")
    return math.ceil((B + bg._w_powers[-1]) / bg._step_gain)


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
    Requires Eve to win the reachability game from every vertex.  Checks the exact per-step potential increment along the
    way (raising InvariantBroken if it fails) and never runs past the
    derived step bound.

    A credit of 0 can never grow again (every valuation must then be
    (0, 0)), so once the play sits on a target with credit 0 below a
    positive initial credit no target configuration is reachable; the play
    ends there as if the step limit were hit."""
    targets = frozenset(T)
    attr = attractor(bg, targets)
    if attr.winning != bg._id_set:
        raise HypothesisViolated(
            "the bettor must win from every vertex; losing: "
            + ", ".join(sorted(bg._id_set - attr.winning))
        )
    B = as_fraction(B)
    bound = step_bound(bg, B)
    limit = bound if max_steps is None else max_steps
    adam.prepare(attr)

    delta = bg._step_gain
    c0 = bg.initial.credit
    config = bg.initial
    steps = [TraceStep(0, config.vertex, config.credit, potential(bg, attr, config))]

    n = 0
    while True:
        if config.credit >= B:
            return Trace(tuple(steps), True, "target-bound", bound)
        exhausted = False
        if config.vertex in targets:
            if config.credit >= c0:
                return Trace(tuple(steps), True, "target-credit", bound)
            exhausted = config.credit == 0
        if n >= limit or exhausted:
            if max_steps is not None and max_steps < bound:
                return Trace(tuple(steps), False, "max-steps", bound)
            reason = f"no target configuration within {limit} steps"
            if exhausted:
                reason += (
                    f": credit exhausted at target {config.vertex} after {n}"
                    f" steps, and 0 never regains the initial credit {c0}"
                )
            raise StepBoundExceeded(reason)
        v = bg.vertex(config.vertex)
        if v.kind == BetKind.EVE:
            d = adam.valuation(v, config.credit)
            try:
                dd = _check_valuation(v, config.credit, d)
            except InvalidValuation as exc:
                raise AdamCheated(str(exc)) from exc
            nxt = _eve_pick(bg, attr, v, dd)
        else:
            choice = adam.choose(v)
            if choice not in v.successors:
                raise AdamCheated(
                    f"{v.id}: chose {choice!r}, not a successor"
                )
            nxt = BettingConfig(choice, config.credit)
        p_now = steps[-1].potential
        p_next = potential(bg, attr, nxt)
        if config.vertex not in targets and p_next - p_now < delta:
            raise InvariantBroken(
                f"potential increment {p_next - p_now} below {delta} "
                f"at step {n} from {config}"
            )
        config = nxt
        n += 1
        steps.append(TraceStep(n, config.vertex, config.credit, p_next))


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
