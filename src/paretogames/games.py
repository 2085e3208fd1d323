"""Turn-based stochastic game model: representation, validation, stopping
check, normalization, and the discounted-to-total-reward reduction.

A game is a finite directed graph of typed states — Player-1 (maximizer),
Player-2 (minimizer), chance, terminal — with an exact rational reward pair
on every state and exact rational transition probabilities.  Values are
immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from stat import S_ISREG
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidArgument,
    InvalidGame,
    InvariantBroken,
    NotStopping,
    UnknownState,
)
from .frontier import (
    Point,
    RationalLike,
    _fields_repr,
    _text,
    as_fraction,
    as_point,
    fraction_str,
)


class Kind(str, Enum):
    P1 = "p1"
    P2 = "p2"
    CHANCE = "chance"
    TERMINAL = "terminal"


CONTROLLED = (Kind.P1, Kind.P2)


@dataclass(frozen=True)
class StateRecord:
    id: str
    kind: Kind
    reward: Point
    transitions: tuple[tuple[str, Fraction], ...]

    __repr__ = _fields_repr

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "reward", as_point(self.reward))
        object.__setattr__(
            self,
            "transitions",
            tuple((t, as_fraction(p)) for t, p in self.transitions),
        )

    @property
    def successors(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.transitions)


@dataclass(frozen=True)
class Game:
    initial: str
    states: tuple[StateRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "_by_id", {s.id: s for s in self.states})

    def state(self, sid: str) -> StateRecord:
        try:
            return self._by_id[sid]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownState(f"no state with id {sid!r}") from None

    def has_state(self, sid: str) -> bool:
        return sid in self._by_id  # type: ignore[attr-defined]

    @property
    def state_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """The structural violations under the default successor cap, found
        once per game; ``validate_game`` and ``require_valid`` read them."""
        return tuple(_collect_violations(self))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class StoppingReport:
    stopping: bool
    witness_closed_set: frozenset[str] = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# Validation


def _collect_violations(g: Game, max_successors: int | None = 2) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for s in g.states:
        if not s.id:
            out.append("state with empty id")
        if s.id in seen:
            out.append(f"{s.id}: duplicate state id")
        seen.add(s.id)
    if g.initial not in seen:
        out.append(f"initial state {g.initial!r} does not exist")
    for s in g.states:
        targets = [t for t, _ in s.transitions]
        for t in targets:
            if not g.has_state(t):
                out.append(f"{s.id}: transition to unknown state {t!r}")
        if len(set(targets)) != len(targets):
            out.append(f"{s.id}: duplicate transition targets")
        if s.kind is Kind.TERMINAL:
            if s.reward != (0, 0):
                out.append(f"{s.id}: terminal reward nonzero")
            if s.transitions != ((s.id, Fraction(1)),):
                out.append(
                    f"{s.id}: terminal must have a single self-transition "
                    f"with probability 1"
                )
            continue
        if not targets:
            out.append(f"{s.id}: non-terminal state with no successor")
            continue
        if max_successors is not None and len(targets) > max_successors:
            out.append(
                f"{s.id}: more than {max_successors} successors "
                f"({len(targets)})"
            )
        if s.kind in CONTROLLED:
            for t, p in s.transitions:
                if p != 1:
                    out.append(
                        f"{s.id}: controlled transition to {t} has "
                        f"probability {_text(p)} != 1"
                    )
        else:  # chance
            probs = [p for _, p in s.transitions]
            if any(p <= 0 for p in probs):
                out.append(f"{s.id}: non-positive transition probability")
            if sum(probs) != 1:
                out.append(f"{s.id}: probabilities sum != 1")
    return out


def validate_game(g: Game) -> ValidationReport:
    """Structural validation; report-valued, never raises."""
    violations = g._violations
    return ValidationReport(ok=not violations, violations=violations)


def require_valid(g: Game, max_successors: int | None = 2) -> None:
    """Raise InvalidGame when g violates the structural invariants."""
    violations = (
        g._violations
        if max_successors == 2
        else tuple(_collect_violations(g, max_successors))
    )
    if violations:
        raise InvalidGame(
            "invalid game: " + "; ".join(violations), violations=violations
        )


# ---------------------------------------------------------------------------
# Stopping check


def check_stopping(g: Game) -> StoppingReport:
    """Largest closed set of non-terminal states, by iterated removal.

    A state is deleted when it can no longer sustain an infinite play inside
    the candidate set: a controlled state with no remaining successor, or a
    chance state with a deleted-or-terminal successor (chance leaves the set
    with positive probability).  The game is stopping iff nothing survives —
    both players cooperating cannot avoid the terminals.

    Linear in the size of the game: a worklist seeded with the terminals
    visits each transition into a deleted state once, counting down each
    controlled predecessor's remaining successors.  The set that survives
    is the same for any deletion order.
    """
    require_valid(g)
    alive: set[str] = {s.id for s in g.states if s.kind is not Kind.TERMINAL}
    preds: dict[str, list[StateRecord]] = {s.id: [] for s in g.states}
    remaining: dict[str, int] = {}  # controlled state -> successors alive
    for s in g.states:
        for t in s.successors:
            preds[t].append(s)
        if s.kind in CONTROLLED:
            remaining[s.id] = len(s.transitions)
    doomed = [s.id for s in g.states if s.kind is Kind.TERMINAL]
    while doomed:
        t = doomed.pop()
        for s in preds[t]:
            if s.id not in alive:
                continue
            if s.kind in CONTROLLED:
                remaining[s.id] -= 1
                if remaining[s.id]:
                    continue
            alive.discard(s.id)
            doomed.append(s.id)
    return StoppingReport(stopping=not alive, witness_closed_set=frozenset(alive))


def require_stopping(g: Game, message: str) -> None:
    """Raise NotStopping with ``message`` and the sorted witness closed set
    when g is not stopping (InvalidGame when it is not valid)."""
    report = check_stopping(g)
    if not report.stopping:
        raise NotStopping(
            message, witness=tuple(sorted(report.witness_closed_set))
        )


# ---------------------------------------------------------------------------
# Normalization


def _fresh_id(base: str, taken: set[str]) -> str:
    cand = base
    n = 1
    while cand in taken:
        n += 1
        cand = f"{base}{n}"
    taken.add(cand)
    return cand


def _binary_split(g: Game) -> Game:
    """Split every >2-successor state into a chain of 2-successor states."""
    taken = set(g.state_ids)
    out: list[StateRecord] = []
    for s in g.states:
        if s.kind is Kind.TERMINAL or len(s.transitions) <= 2:
            out.append(s)
            continue
        # Chain: s keeps its first edge and defers the rest to fresh
        # same-kind helper states with reward (0,0); the deferred
        # probabilities are renormalized conditionals.
        rest = list(s.transitions)
        head_id = s.id
        reward = s.reward
        while len(rest) > 2:
            (t0, p0), tail = rest[0], rest[1:]
            helper = _fresh_id(f"{s.id}__split", taken)
            # a controlled edge has probability p0 = 1, and so has its link
            remaining = sum(p for _, p in tail) if s.kind is Kind.CHANCE else p0
            out.append(
                StateRecord(head_id, s.kind, reward, ((t0, p0), (helper, remaining)))
            )
            rest = [(t, p / remaining) for t, p in tail]
            head_id = helper
            reward = (Fraction(0), Fraction(0))
        out.append(StateRecord(head_id, s.kind, reward, tuple(rest)))
    return Game(g.initial, tuple(out))


def _built(g: Game) -> Game:
    """g, built by a transform from a valid game: a violation is a bug."""
    if g._violations:
        raise InvariantBroken("built an invalid game: " + "; ".join(g._violations))
    return g


def _reroute(g: Game, via: Mapping[str, str]) -> list[StateRecord]:
    """g's states with every edge into a key of ``via`` sent to its value
    instead; ``via`` names no terminal, so self-loops stay put."""
    return [
        StateRecord(
            s.id, s.kind, s.reward, tuple((via.get(t, t), p) for t, p in s.transitions)
        )
        for s in g.states
    ]


def normalize(g: Game) -> Game:
    """Equivalent game with <=2 successors everywhere and rewards only on
    Player-2 states.

    Nonzero rewards are moved onto a fresh single-successor Player-2 state
    through which every incoming edge of the original carrier is rerouted;
    when the carrier is the initial state the fresh state becomes initial, so
    its curve equals the original carrier's.  Total reward along every path
    is preserved.
    """
    require_valid(g, max_successors=None)
    g = _binary_split(g)
    taken = set(g.state_ids)
    # one relocation state per nonzero-reward carrier
    needs_move = [s for s in g.states if s.reward != (0, 0) and s.kind is not Kind.P2]
    entry_for = {s.id: _fresh_id(f"{s.id}__in", taken) for s in needs_move}
    out = [
        StateRecord(s.id, s.kind, (0, 0), s.transitions) if s.id in entry_for else s
        for s in _reroute(g, entry_for)
    ]
    out += [
        StateRecord(entry_for[s.id], Kind.P2, s.reward, ((s.id, Fraction(1)),))
        for s in needs_move
    ]
    return _built(Game(entry_for.get(g.initial, g.initial), tuple(out)))


# ---------------------------------------------------------------------------
# Discounted -> total reduction


def discount_transform(g: Game, delta: RationalLike) -> Game:
    """Reroute every edge into a non-terminal target through a fresh chance
    state that stops with probability 1-delta, so that total reward in the
    result equals delta-discounted reward in the input.  The initial state is
    entered directly (step 0 is undiscounted)."""
    require_valid(g)
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise InvalidArgument(f"delta must be in (0,1), got {_text(delta)}")
    non_terminal_targets = sorted(
        {
            t
            for s in g.states
            if s.kind is not Kind.TERMINAL
            for t in s.successors
            if g.state(t).kind is not Kind.TERMINAL
        }
    )
    if not non_terminal_targets:
        return g
    taken = set(g.state_ids)
    sink = _fresh_id("__sink", taken)
    gate_for = {t: _fresh_id(f"{t}__disc", taken) for t in non_terminal_targets}
    out = _reroute(g, gate_for)
    out += [
        StateRecord(gate, Kind.CHANCE, (0, 0), ((sink, 1 - delta), (t, delta)))
        for t, gate in gate_for.items()
    ]
    out.append(
        StateRecord(
            sink, Kind.TERMINAL, (Fraction(0), Fraction(0)), ((sink, Fraction(1)),)
        )
    )
    return _built(Game(g.initial, tuple(out)))


# ---------------------------------------------------------------------------
# JSON serialization


def game_to_json(g: Game) -> dict:
    states = []
    for s in g.states:
        rec: dict = {
            "id": s.id,
            "kind": s.kind.value,
            "reward": [fraction_str(s.reward[0]), fraction_str(s.reward[1])],
        }
        if s.kind is Kind.CHANCE:
            rec["transitions"] = [
                {"to": t, "prob": fraction_str(p)} for t, p in s.transitions
            ]
        else:
            rec["transitions"] = [{"to": t} for t, _ in s.transitions]
        states.append(rec)
    return {"initial": g.initial, "states": states}


def _string_id(value: object, what: str) -> str:
    """``value`` itself if it is a string: the loaders take no other id."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def game_from_json(data: Mapping) -> Game:
    try:
        states = []
        for rec in data["states"]:
            transitions = tuple(
                (_string_id(edge["to"], "transition target"), edge.get("prob", 1))
                for edge in rec.get("transitions", ())
            )
            states.append(
                StateRecord(
                    id=_string_id(rec["id"], "state id"),
                    kind=rec["kind"],
                    reward=rec["reward"],
                    transitions=transitions,
                )
            )
        return Game(_string_id(data["initial"], "initial state"), tuple(states))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGame(f"malformed game description: {exc}") from exc


def _read_json(path, error: type[Exception]):
    """The JSON document in the file at ``path``; a document that does not
    decode raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError: JSONDecodeError, UnicodeDecodeError, the int digit limit
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: malformed JSON: {exc}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``: the one writer of the package.

    An existing file is rewritten in place, never emptied first: on ext4, a
    file truncated to zero and then rewritten has its blocks forced out when
    it closes (``auto_da_alloc``), which made rewriting a solve's curve
    directory about ten times slower.  After the write, only a regular file
    longer than ``text`` is cut to the new length, so a pipe or a device
    (``/dev/stdout``, ``os.devnull``) is just written.  ``O_BINARY`` (Windows
    only) keeps the byte count equal to ``len(data)``.

    The file is complete once this returns, but the write is not atomic and
    not synced.  A kill between the write and the cut leaves the new text
    followed by the tail of the old file; after a power loss the file can
    hold old blocks under the new length.  Either can still parse, so after
    a crash rerun into an empty directory rather than trust what is there.
    """
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        st = os.fstat(fd)
        if S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_json(data: dict, path) -> None:
    _write_text(path, json.dumps(data, indent=2) + "\n")


def load_game(path) -> Game:
    return game_from_json(_read_json(path, InvalidGame))


def save_game(g: Game, path) -> None:
    _write_json(game_to_json(g), path)


# ---------------------------------------------------------------------------
# Fixtures


def fixture_game(name: str) -> Game:
    """Load one of the bundled example games ("heating", "fig3")."""
    from importlib.resources import files

    res = files("paretogames.fixtures").joinpath(f"{name}.json")
    return game_from_json(json.loads(res.read_text(encoding="utf-8")))


def make_game(
    initial: str,
    states: Iterable[
        tuple[str, str, Sequence[RationalLike], Sequence[tuple[str, RationalLike]]]
    ],
) -> Game:
    """Compact constructor: (id, kind, reward, [(target, prob), ...])."""
    recs = (StateRecord(sid, kind, reward, ts) for sid, kind, reward, ts in states)
    return Game(initial, tuple(recs))
