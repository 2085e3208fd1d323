"""Shared fixtures: the two bundled example games and their exact curve
families, plus commonly reused helpers."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from paretogames import Frontier, Game, fixture_game, make_game, value_iterate

# Exact fixpoint family of the bundled heating game, computed by hand from
# the curve equations (each entry is the canonical vertex list).
HEATING_EXACT: dict[str, list[tuple[F, F]]] = {
    "HH1": [(F(0), F(0))],
    "D1": [(F(-1), F(0))],
    "HC1": [(F(-1), F(0)), (F(0), F(-1))],
    "HC2": [(F(-1), F(-1)), (F(0), F(-2))],
    "HC3": [(F(-1, 2), F(0)), (F(0), F(-1, 2))],
    "HCS3": [(F(-1, 2), F(-1, 2)), (F(0), F(-1))],
    "CC1": [(F(-2), F(-1)), (F(-1), F(-2))],
    "CH1": [(F(-1), F(0)), (F(-1, 3), F(-4, 3))],
    "CH2": [(F(-3, 2), F(-3, 2)), (F(-1), F(-2)), (F(-2, 3), F(-8, 3))],
    "CH3": [(F(-3, 2), F(-1, 2)), (F(-1), F(-1)), (F(-2, 3), F(-5, 3))],
    "CHS3": [(F(-3, 4), F(-3, 4)), (F(-1, 2), F(-1)), (F(-1, 3), F(-4, 3))],
}

# Exact fixpoint family of the bundled six-state pathology game.
FIG3_EXACT: dict[str, list[tuple[F, F]]] = {
    "s0": [(F(0), F(1)), (F(1), F(0))],
    "s1": [(F(1, 2), F(1, 2)), (F(1), F(0))],
    "s2": [(F(0), F(1)), (F(9, 10), F(1, 10))],
    "s3": [(F(1), F(0))],
    "s4": [(F(0), F(1))],
    "s5": [(F(0), F(0))],
}


def frontier_of(points: list[tuple[F, F]]) -> Frontier:
    return Frontier(tuple(points))


def three_successor_game() -> tuple[Game, dict[str, list[tuple[F, F]]]]:
    """A Player-1 state ``a`` with three successors, which the solvers do
    not accept, and curves that ignore the dominating successor ``d``."""
    g = make_game(
        "a",
        [
            ("a", "p1", (0, 0), [("b", 1), ("c", 1), ("d", 1)]),
            ("b", "p2", (1, 0), [("t", 1)]),
            ("c", "p2", (0, 1), [("t", 1)]),
            ("d", "p2", (2, 2), [("t", 1)]),
            ("t", "terminal", (0, 0), [("t", 1)]),
        ],
    )
    curves = {
        "a": [(F(0), F(1)), (F(1), F(0))],
        "b": [(F(1), F(0))],
        "c": [(F(0), F(1))],
        "d": [(F(2), F(2))],
        "t": [(F(0), F(0))],
    }
    return g, curves


def p2_chain_game(n: int) -> Game:
    """Minimizer states s0..s(n-1), each moving one or two states ahead
    (s(n-1) only to the terminal): 2^(n-1) minimizer strategies, and every
    play ends within n steps."""
    ids = [f"s{i}" for i in range(n)] + ["t"]
    states = [
        (sid, "p2", (i % 3 - 1, 1 - i % 2 * 2), [(t, 1) for t in ids[i + 1 : i + 3]])
        for i, sid in enumerate(ids[: n - 1])
    ]
    states.append((ids[n - 1], "p2", (1, 1), [("t", 1)]))
    states.append(("t", "terminal", (0, 0), [("t", 1)]))
    return make_game("s0", states)


# An 11-state stopping game that is not determined: strategy enumeration
# ends the curve at s0 at (-1/4, -23/12), the true curve at (-1/4, -7/3).
NOT_DETERMINED = {
    "initial": "s0",
    "states": [
        {"id": "s0", "kind": "p1", "reward": ["-2", "0"],
         "transitions": [{"to": "s6"}, {"to": "s4"}]},
        {"id": "s1", "kind": "chance", "reward": ["3", "-3/2"],
         "transitions": [{"to": "s3", "prob": "2/3"},
                         {"to": "s4", "prob": "1/3"}]},
        {"id": "s2", "kind": "p2", "reward": ["5/2", "-2"],
         "transitions": [{"to": "s8"}, {"to": "s7"}]},
        {"id": "s3", "kind": "p2", "reward": ["0", "-3"],
         "transitions": [{"to": "s6"}, {"to": "s4"}]},
        {"id": "s4", "kind": "p2", "reward": ["-3/2", "2"],
         "transitions": [{"to": "s6"}, {"to": "t1"}]},
        {"id": "s5", "kind": "p2", "reward": ["-5/2", "-2"],
         "transitions": [{"to": "s7"}, {"to": "t1"}]},
        {"id": "s6", "kind": "chance", "reward": ["2", "0"],
         "transitions": [{"to": "t1", "prob": "1/3"},
                         {"to": "s2", "prob": "2/3"}]},
        {"id": "s7", "kind": "chance", "reward": ["-3/2", "-3/2"],
         "transitions": [{"to": "t0", "prob": "1/2"},
                         {"to": "t1", "prob": "1/2"}]},
        {"id": "s8", "kind": "chance", "reward": ["-5/2", "-1/2"],
         "transitions": [{"to": "t0", "prob": "3/4"},
                         {"to": "s7", "prob": "1/4"}]},
        {"id": "t0", "kind": "terminal", "reward": ["0", "0"],
         "transitions": [{"to": "t0"}]},
        {"id": "t1", "kind": "terminal", "reward": ["0", "0"],
         "transitions": [{"to": "t1"}]},
    ],
}


@pytest.fixture(scope="session")
def heating():
    return fixture_game("heating")


@pytest.fixture(scope="session")
def fig3():
    return fixture_game("fig3")


@pytest.fixture(scope="session")
def fig3_vi(fig3):
    """Value iteration at epsilon 1/1000, which stops exactly at sweep 32
    by snapping its iterate to the fixpoint; computed once and shared."""
    return value_iterate(fig3, F(1, 1000), 10000)
