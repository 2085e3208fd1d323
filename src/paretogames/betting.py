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

W and its powers W^0 ... W^|V| are derived once per arena and cached on
it; ``potential`` alone evaluates p, and ``_step_gain`` alone the gain per
step.  A play validates its arena once, in ``attractor``, before any other
work, and then trusts it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import (
    AdamCheated,
    HypothesisViolated,
    InvalidBettingGame,
    InvalidValuation,
    InvariantBroken,
    NotWinningVertex,
    StepBoundExceeded,
    UnknownState,
)
from .frontier import RationalLike, as_fraction, fraction_str


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
            tuple((str(t), as_fraction(w)) for t, w in self.edges),
        )

    @property
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
    def _w_powers(self) -> tuple[Fraction, ...]:
        """W^0, W^1, ..., W^|V|."""
        w = self.min_weight
        return tuple(w**k for k in range(len(self.vertices) + 1))


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


def require_valid_betting(bg: BettingGame) -> None:
    violations = validate_betting(bg)
    if violations:
        raise InvalidBettingGame("invalid betting game: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# Attractor


@dataclass(frozen=True)
class AttractorResult:
    winning: frozenset[str]
    sigma: dict[str, str]  # Eve vertex in winning minus T -> successor
    a: dict[str, int]  # winning vertex -> longest guided target-avoiding path


def attractor(bg: BettingGame, T: Iterable[str]) -> AttractorResult:
    """Classic two-player reachability attractor with its memoryless
    strategy and the guided escape-length a(v).

    winning is the least set containing T and closed under "Eve vertex with
    some successor inside" / "Adam vertex with all successors inside"; sigma
    sends each winning Eve vertex to a successor one layer closer to T;
    a(v) = 0 on T, 1 + a(sigma(v)) at Eve vertices, 1 + max over successors
    at Adam vertices — bounded by the vertex count."""
    require_valid_betting(bg)
    targets = set(T)
    for t in targets:
        bg.vertex(t)
    layer: dict[str, int] = {t: 0 for t in targets}
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
                layer[v.id] = k
                sigma[v.id] = min(inside, key=lambda t: layer[t])
                frontier_new = True
            elif v.kind == BetKind.ADAM and len(inside) == 2:
                layer[v.id] = k
                frontier_new = True
    a: dict[str, int] = {}
    for vid in sorted(layer, key=lambda x: layer[x]):
        if layer[vid] == 0:
            a[vid] = 0
        else:
            v = bg.vertex(vid)
            if v.kind == BetKind.EVE:
                a[vid] = 1 + a[sigma[vid]]
            else:
                a[vid] = 1 + max(a[t] for t in v.successors)
    return AttractorResult(
        winning=frozenset(layer), sigma=sigma, a=a
    )


# ---------------------------------------------------------------------------
# Potential and Eve's move


def potential(bg: BettingGame, attr: AttractorResult, config: BettingConfig) -> Fraction:
    """p(v, c) = c + W^a(v) - W^|V| (requires v in the winning set)."""
    if config.vertex not in attr.a:
        raise NotWinningVertex(f"{config.vertex} is outside the winning set")
    powers = bg._w_powers
    return config.credit + powers[attr.a[config.vertex]] - powers[-1]


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
        raise InvalidValuation(f"{v.id} is not an Eve vertex")
    if v.id not in attr.winning:
        raise NotWinningVertex(f"{v.id} is outside the winning set")
    dd = _check_valuation(v, config.credit, d)
    return _eve_pick(bg, attr, v, dd)


# ---------------------------------------------------------------------------
# Adversaries


class Adversary(Protocol):
    """Adam: supplies valuations at Eve vertices, successors at his own."""

    def prepare(self, bg: BettingGame, T: frozenset[str], attr: AttractorResult) -> None:
        ...

    def valuation(
        self, bg: BettingGame, v: BetVertex, credit: Fraction
    ) -> tuple[Fraction, Fraction]:
        ...

    def choose(self, bg: BettingGame, v: BetVertex, credit: Fraction) -> str:
        ...


class _BaseAdam:
    def prepare(self, bg: BettingGame, T: frozenset[str], attr: AttractorResult) -> None:
        self._attr = attr

    def _a(self, vid: str) -> int:
        return self._attr.a.get(vid, -1)


class RandomAdam(_BaseAdam):
    """Splits the credit at a uniformly random ratio; walks randomly."""

    GRAIN = 16

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def valuation(self, bg, v, credit):
        t = Fraction(self._rng.randint(0, self.GRAIN), self.GRAIN)
        (_, w1), (_, w2) = v.edges
        return (t * credit / w1, (1 - t) * credit / w2)

    def choose(self, bg, v, credit):
        return self._rng.choice(v.successors)


class StarveAdam(_BaseAdam):
    """Puts the whole pot on the non-guided successor, hoping Eve must
    follow her guide into poverty; prolongs the walk at his own vertices."""

    def valuation(self, bg, v, credit):
        guided = self._attr.sigma.get(v.id, v.successors[0])
        (_, w1), (_, w2) = v.edges
        if v.successors[0] == guided:
            return (Fraction(0), credit / w2)
        return (credit / w1, Fraction(0))

    def choose(self, bg, v, credit):
        return max(v.successors, key=self._a)


class EqualSplitAdam(_BaseAdam):
    """Bets the current credit on both edges, keeping it constant."""

    def valuation(self, bg, v, credit):
        return (credit, credit)

    def choose(self, bg, v, credit):
        return max(v.successors, key=self._a)


class FundTargetAdam(_BaseAdam):
    """Funds the guided successor fully, conceding growth but racing on."""

    def valuation(self, bg, v, credit):
        guided = self._attr.sigma.get(v.id, v.successors[0])
        (_, w1), (_, w2) = v.edges
        if v.successors[0] == guided:
            return (credit / w1, Fraction(0))
        return (Fraction(0), credit / w2)

    def choose(self, bg, v, credit):
        return min(v.successors, key=self._a)


class MixedAdam(_BaseAdam):
    """Randomly alternates between the other adversaries' behaviors."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._delegates = [
            RandomAdam(self._rng.randint(0, 2**30)),
            StarveAdam(),
            EqualSplitAdam(),
            FundTargetAdam(),
        ]

    def prepare(self, bg, T, attr):
        super().prepare(bg, T, attr)
        for d in self._delegates:
            d.prepare(bg, T, attr)

    def valuation(self, bg, v, credit):
        return self._rng.choice(self._delegates).valuation(bg, v, credit)

    def choose(self, bg, v, credit):
        return self._rng.choice(self._delegates).choose(bg, v, credit)


class ScriptedAdam(_BaseAdam):
    """Replays fixed valuations and choices, for regression tests."""

    def __init__(
        self,
        valuations: Sequence[Sequence[RationalLike]] = (),
        choices: Sequence[str] = (),
    ):
        self._valuations = [tuple(map(as_fraction, d)) for d in valuations]
        self._choices = list(choices)

    def valuation(self, bg, v, credit):
        if not self._valuations:
            raise AdamCheated("scripted adversary ran out of valuations")
        return self._valuations.pop(0)

    def choose(self, bg, v, credit):
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


def _step_gain(bg: BettingGame) -> Fraction:
    """W^|V| - W^(|V|+1): the least potential increase per non-target step."""
    return bg._w_powers[-1] * (1 - bg.min_weight)


def step_bound(bg: BettingGame, B: RationalLike) -> int:
    """ceil((B + W^|V|) / (W^|V| - W^(|V|+1))), from the potential growth."""
    return math.ceil((as_fraction(B) + bg._w_powers[-1]) / _step_gain(bg))


def simulate(
    bg: BettingGame,
    T: Iterable[str],
    B: RationalLike,
    adam: Adversary,
    max_steps: int | None = None,
) -> Trace:
    """Play Eve's potential strategy against the supplied adversary until
    the play sits on a target vertex with at least the initial credit, or
    the credit reaches B.  Requires Eve to win the reachability game from
    every vertex.  Checks the exact per-step potential increment along the
    way (raising InvariantBroken if it fails) and never runs past the
    derived step bound.

    A credit of 0 can never grow again (every valuation must then be
    (0, 0)), so once the play sits on a target with credit 0 below a
    positive initial credit no target configuration is reachable; the play
    ends there as if the step limit were hit."""
    targets = frozenset(T)
    attr = attractor(bg, targets)
    if attr.winning != set(bg.vertex_ids):
        raise HypothesisViolated(
            "the bettor must win from every vertex; losing: "
            + ", ".join(sorted(set(bg.vertex_ids) - attr.winning))
        )
    B = as_fraction(B)
    bound = step_bound(bg, B)
    limit = bound if max_steps is None else max_steps
    adam.prepare(bg, targets, attr)

    delta = _step_gain(bg)
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
            d = adam.valuation(bg, v, config.credit)
            try:
                dd = _check_valuation(v, config.credit, d)
            except InvalidValuation as exc:
                raise AdamCheated(str(exc)) from exc
            nxt = _eve_pick(bg, attr, v, dd)
        else:
            choice = adam.choose(bg, v, config.credit)
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
                id=rec["id"],
                kind=rec["kind"],
                edges=tuple((e["to"], e["weight"]) for e in rec["transitions"]),
            )
            for rec in data["states"]
        )
        init = data["initial"]
        return BettingGame(
            vertices=vertices,
            initial=BettingConfig(init["vertex"], init["credit"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidBettingGame(f"malformed betting game: {exc}") from exc


def load_betting(path) -> BettingGame:
    with open(path, "r", encoding="utf-8") as fh:
        return betting_from_json(json.load(fh))


def save_betting(bg: BettingGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(betting_to_json(bg), fh, indent=2)
        fh.write("\n")
