"""JSON loaders: any document either loads or raises a package error, and
every id they accept is a string."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paretogames import (
    GameSolverError,
    InvalidBettingGame,
    InvalidGame,
    betting_from_json,
    game_from_json,
    validate_betting,
    validate_game,
)

# Field names of both formats, so that generated documents are often
# shaped like a game or an arena rather than arbitrary JSON.
_KEYS = st.sampled_from(
    [
        "initial", "states", "id", "kind", "reward", "transitions",
        "to", "prob", "weight", "vertex", "credit",
    ]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(
        ["a", "b", "p1", "p2", "chance", "terminal", "eve", "adam", "1/2", "1", "0"]
    )
)
json_like = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=2), kids, max_size=4),
    max_leaves=14,
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(json_like)
@example({"initial": [], "states": []})
@example({"initial": {"vertex": [], "credit": 0}, "states": []})
def test_loaders_load_or_raise_a_package_error(data):
    for load, validate in (
        (game_from_json, validate_game),
        (betting_from_json, validate_betting),
    ):
        try:
            loaded = load(data)
        except GameSolverError:
            continue
        validate(loaded)


def _game(initial="a", sid="a", to="a"):
    return {
        "initial": initial,
        "states": [
            {
                "id": sid,
                "kind": "terminal",
                "reward": [0, 0],
                "transitions": [{"to": to}],
            }
        ],
    }


@pytest.mark.parametrize(
    "data, detail",
    [
        (_game(initial=[]), "initial state must be a string, got []"),
        (_game(sid=1), "state id must be a string, got 1"),
        (_game(to=1), "transition target must be a string, got 1"),
    ],
    ids=["initial", "id", "to"],
)
def test_game_ids_must_be_strings(data, detail):
    with pytest.raises(InvalidGame) as info:
        game_from_json(data)
    assert str(info.value) == f"malformed game description: {detail}"


def _arena(vertex="v", vid="v", to="v"):
    return {
        "initial": {"vertex": vertex, "credit": "0"},
        "states": [
            {
                "id": vid,
                "kind": "eve",
                "transitions": [{"to": to, "weight": "1/2"}],
            }
        ],
    }


@pytest.mark.parametrize(
    "data, detail",
    [
        (_arena(vertex=[]), "initial vertex must be a string, got []"),
        (_arena(vid=1), "vertex id must be a string, got 1"),
        (_arena(to=None), "edge target must be a string, got None"),
    ],
    ids=["vertex", "id", "to"],
)
def test_arena_ids_must_be_strings(data, detail):
    with pytest.raises(InvalidBettingGame) as info:
        betting_from_json(data)
    assert str(info.value) == f"malformed betting game: {detail}"
