"""Game model: validation, stopping check, normalization, discounting."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from paretogames import (
    Game,
    InvalidArgument,
    InvalidGame,
    Kind,
    StateRecord,
    UnknownState,
    check_determinacy,
    check_stopping,
    discount_transform,
    game_from_json,
    game_to_json,
    induce_mdp,
    load_game,
    make_game,
    mdp_pareto_curves,
    normalize,
    policy_evaluate,
    require_valid,
    save_game,
    solve_determined,
    validate_game,
    value_iterate,
)
from randgen import random_game, random_stopping_game

EPS = F(1, 1000)


def term(sid: str) -> StateRecord:
    return StateRecord(sid, Kind.TERMINAL, (F(0), F(0)), ((sid, F(1)),))


# ---------------------------------------------------------------------------
# validate_game


def test_heating_fixture_is_valid(heating):
    assert validate_game(heating).ok


def test_fig3_fixture_is_valid(fig3):
    assert validate_game(fig3).ok


def test_integer_ids_built_in_code_validate_cleanly():
    g = make_game(1, [(1, "terminal", (0, 0), [(1, 1)])])
    assert validate_game(g).violations == ()
    assert g.state(1).successors == (1,)


def test_chance_probabilities_must_sum_to_one():
    g = Game(
        "c",
        (
            StateRecord(
                "c",
                Kind.CHANCE,
                (F(0), F(0)),
                (("t", F(1, 2)), ("c", F(1, 3))),
            ),
            term("t"),
        ),
    )
    rep = validate_game(g)
    assert not rep.ok
    assert any("sum" in v for v in rep.violations)


def test_terminal_reward_must_be_zero():
    g = Game(
        "t",
        (StateRecord("t", Kind.TERMINAL, (F(1), F(0)), (("t", F(1)),)),),
    )
    rep = validate_game(g)
    assert not rep.ok
    assert any("terminal reward nonzero" in v for v in rep.violations)


_T = ("t", "terminal", (0, 0), [("t", 1)])
_U = ("u", "terminal", (0, 0), [("u", 1)])


@pytest.mark.parametrize(
    "states, violation",
    [
        ([("", "terminal", (0, 0), [("", 1)])], "state with empty id"),
        ([_T, _T], "t: duplicate state id"),
        ([_T, ("a", "p1", (0, 0), [("zz", 1)])], "a: transition to unknown state 'zz'"),
        (
            [_T, ("a", "p1", (0, 0), [("t", 1), ("t", 1)])],
            "a: duplicate transition targets",
        ),
        (
            [_T, ("v", "terminal", (0, 0), [("t", 1)])],
            "v: terminal must have a single self-transition with probability 1",
        ),
        ([_T, ("a", "p1", (0, 0), [])], "a: non-terminal state with no successor"),
        (
            [_T, ("a", "p2", (0, 0), [("t", F(1, 2))])],
            "a: controlled transition to t has probability 1/2 != 1",
        ),
        (
            [_T, _U, ("a", "chance", (0, 0), [("t", 0), ("u", 1)])],
            "a: non-positive transition probability",
        ),
    ],
    ids=[
        "empty-id",
        "duplicate-id",
        "unknown-target",
        "duplicate-targets",
        "terminal-without-self-loop",
        "no-successor",
        "controlled-probability",
        "non-positive-probability",
    ],
)
def test_each_structural_violation_is_named(states, violation):
    g = make_game(states[0][0], states)
    assert validate_game(g).violations == (violation,)


def test_require_valid_raises():
    g = Game("missing", (term("t"),))
    with pytest.raises(InvalidGame):
        require_valid(g)


def _fresh(g: Game) -> Game:
    return Game(g.initial, g.states)


@pytest.mark.parametrize(
    "case", ["value_iterate", "check_determinacy", "mdp_pareto_curves"]
)
def test_structural_check_runs_once_per_game(heating, fig3, case, monkeypatch):
    import paretogames.games as games_module

    process = induce_mdp(heating, {"HC2": "HC1", "CH2": "CH1", "D1": "HH1"})
    solve = {
        "value_iterate": lambda: value_iterate(_fresh(fig3), F(1, 1000), 5),
        "check_determinacy": lambda: check_determinacy(_fresh(heating)),
        "mdp_pareto_curves": lambda: mdp_pareto_curves(process),
    }[case]
    checked: list[Game] = []
    original = games_module._collect_violations

    def counting(g, max_successors=2):
        checked.append(g)
        return original(g, max_successors)

    monkeypatch.setattr(games_module, "_collect_violations", counting)
    solve()
    assert len(checked) == 1


def test_unknown_state_lookup(fig3):
    with pytest.raises(UnknownState):
        fig3.state("nope")


# ---------------------------------------------------------------------------
# check_stopping


def test_fig3_is_stopping(fig3):
    rep = check_stopping(fig3)
    assert rep.stopping and not rep.witness_closed_set


def test_two_cycle_is_not_stopping():
    g = Game(
        "a",
        (
            StateRecord("a", Kind.P1, (F(1), F(0)), (("b", F(1)),)),
            StateRecord("b", Kind.P1, (F(0), F(0)), (("a", F(1)), ("t", F(1)))),
            term("t"),
        ),
    )
    rep = check_stopping(g)
    assert not rep.stopping
    assert rep.witness_closed_set == {"a", "b"}


def test_terminal_only_game_is_stopping():
    g = Game("t", (term("t"),))
    assert check_stopping(g).stopping


def _witness_is_closed(g: Game, witness: frozenset[str]) -> bool:
    for sid in witness:
        s = g.state(sid)
        if s.kind is Kind.TERMINAL:
            return False
        succs = set(s.successors)
        if s.kind is Kind.CHANCE:
            if not succs <= witness:
                return False
        else:
            if not succs & witness:
                return False
    return True


def test_witness_sets_are_closed_and_nonterminal():
    found = 0
    for seed in range(300):
        g = random_game(seed)
        rep = check_stopping(g)
        assert rep.stopping == (not rep.witness_closed_set)
        if not rep.stopping:
            found += 1
            assert _witness_is_closed(g, rep.witness_closed_set)
    assert found > 0  # the sweep actually exercised non-stopping games


# ---------------------------------------------------------------------------
# normalize


def test_normalize_keeps_already_normal_game():
    g = Game(
        "p",
        (
            StateRecord("p", Kind.P1, (F(0), F(0)), (("a", F(1)), ("b", F(1)))),
            StateRecord("a", Kind.P2, (F(1), F(2)), (("t", F(1)),)),
            StateRecord("b", Kind.P2, (F(-1), F(0)), (("t", F(1)),)),
            term("t"),
        ),
    )
    assert normalize(g) == g


def test_normalize_splits_three_successors():
    g = Game(
        "s",
        (
            StateRecord(
                "s",
                Kind.P1,
                (F(0), F(0)),
                (("a", F(1)), ("b", F(1)), ("c", F(1))),
            ),
            term("a"),
            term("b"),
            term("c"),
        ),
    )
    out = normalize(g)
    assert validate_game(out).ok
    s = out.state("s")
    assert s.kind is Kind.P1 and len(s.successors) == 2
    assert "a" in s.successors
    rest = next(t for t in s.successors if t != "a")
    assert set(out.state(rest).successors) == {"b", "c"}


def test_normalized_game_is_valid_and_rewards_sit_on_p2():
    for seed in range(60):
        g = random_game(seed)
        out = normalize(g)
        assert validate_game(out).ok
        for s in out.states:
            if s.reward != (F(0), F(0)):
                assert s.kind is Kind.P2
            assert len(s.successors) <= 2


def _entry_state(g: Game, out: Game, sid: str) -> str:
    """Where the curve of original state sid lives in normalize(g): the
    relocated reward-carrying entry state when one was inserted."""
    s = g.state(sid)
    moved = s.reward != (F(0), F(0)) and s.kind is not Kind.P2
    return f"{sid}__in" if moved and out.has_state(f"{sid}__in") else sid


def test_normalize_preserves_curves_on_random_games():
    for seed in range(12):
        g = random_stopping_game(seed, max_states=4)
        out = normalize(g)
        res_g = value_iterate(g, EPS, 10000)
        res_n = value_iterate(out, EPS, 10000)
        tol = (res_g.residual_bound or 0) + (res_n.residual_bound or 0)
        for sid in g.state_ids:
            a = res_g.curves[sid]
            b = res_n.curves[_entry_state(g, out, sid)]
            assert len(a) == len(b)
            for (xa, ya), (xb, yb) in zip(a.vertices, b.vertices):
                assert abs(xa - xb) <= tol and abs(ya - yb) <= tol


def test_normalize_preserves_heating_curve_at_relocated_state(heating):
    out = normalize(heating)
    assert validate_game(out).ok
    res_g = value_iterate(heating, EPS, 10000)
    res_n = value_iterate(out, EPS, 10000)
    tol = (res_g.residual_bound or 0) + (res_n.residual_bound or 0)
    a = res_g.curves["CC1"]
    b = res_n.curves[_entry_state(heating, out, "CC1")]
    assert _entry_state(heating, out, "CC1") == "CC1__in"
    assert len(a) == len(b)
    for (xa, ya), (xb, yb) in zip(a.vertices, b.vertices):
        assert abs(xa - xb) <= tol and abs(ya - yb) <= tol


def test_normalize_splits_a_three_way_chance_state():
    # "a__split" is taken, so the helper is named "a__split2"; a's reward
    # moves to a fresh minimizer entry state, which becomes initial.
    g = make_game(
        "a",
        [
            ("a", "chance", (1, 1), [("b", F(1, 2)), ("c", F(1, 4)), ("d", F(1, 4))]),
            ("b", "p2", (2, 0), [("a__split", 1)]),
            ("c", "p2", (4, 0), [("a__split", 1)]),
            ("d", "p2", (4, 0), [("a__split", 1)]),
            ("a__split", "terminal", (0, 0), [("a__split", 1)]),
        ],
    )
    out = normalize(g)
    assert validate_game(out).ok
    assert out.state("a").transitions == (("b", F(1, 2)), ("a__split2", F(1, 2)))
    assert out.state("a__split2").transitions == (("c", F(1, 2)), ("d", F(1, 2)))
    assert out.initial == "a__in"
    assert solve_determined(out)[out.initial].vertices == ((F(4), F(1)),)


# ---------------------------------------------------------------------------
# discount_transform


def test_discount_self_loop_geometric_series():
    g = Game(
        "s",
        (StateRecord("s", Kind.P1, (F(1), F(0)), (("s", F(1)),)),),
    )
    out = discount_transform(g, F(1, 2))
    assert check_stopping(out).stopping
    pol = {
        s.id: s.successors[0] for s in out.states if s.kind is Kind.P1
    }
    assert policy_evaluate(out, pol)["s"] == (F(2), F(0))


def test_discount_terminal_only_unchanged():
    g = Game("t", (term("t"),))
    assert discount_transform(g, F(9, 10)) == g


def test_discount_fig3_is_stopping(fig3):
    out = discount_transform(fig3, F(9, 10))
    assert validate_game(out).ok
    assert check_stopping(out).stopping


def test_discount_always_stopping_on_random_games():
    for seed in range(40):
        g = random_game(seed)
        for delta in (F(1, 10), F(1, 2), F(99, 100)):
            out = discount_transform(g, delta)
            assert validate_game(out).ok
            assert check_stopping(out).stopping


def test_discount_delta_out_of_range(fig3):
    for delta in (F(0), F(1), F(3, 2), F(-1, 2)):
        with pytest.raises(InvalidArgument):
            discount_transform(fig3, delta)


# ---------------------------------------------------------------------------
# JSON round-trip


def test_json_round_trip(heating, fig3, tmp_path):
    for g in (heating, fig3):
        assert game_from_json(game_to_json(g)) == g
        assert hash(game_from_json(game_to_json(g))) == hash(g)
        p = tmp_path / "g.json"
        save_game(g, p)
        assert load_game(p) == g


def _one_state_json(kind: str = "p1", prob=1) -> dict:
    return {
        "initial": "a",
        "states": [
            {
                "id": "a",
                "kind": kind,
                "reward": [0, 0],
                "transitions": [{"to": "a", "prob": prob}],
            }
        ],
    }


@pytest.mark.parametrize(
    "data, detail",
    [
        (_one_state_json(kind="bogus"), "'bogus' is not a valid Kind"),
        (
            _one_state_json(prob=0.5),
            "float coordinates are not accepted; pass Fraction, int, or 'p/q' string",
        ),
        (_one_state_json(prob="1/0"), "zero denominator in '1/0'"),
        (
            _one_state_json(prob="1e10000000"),
            "exponent notation is not accepted: '1e10000000'",
        ),
    ],
)
def test_malformed_game_json_names_the_fault(data, detail):
    with pytest.raises(InvalidGame) as info:
        game_from_json(data)
    assert str(info.value) == f"malformed game description: {detail}"


@pytest.mark.parametrize(
    "data",
    [
        {"initial": "a", "states": [5]},
        {"initial": "a", "states": ["abc"]},
        {
            "initial": "a",
            "states": [{"id": "a", "kind": "p1", "reward": [0, 0], "transitions": [5]}],
        },
        ["abc"],
    ],
    ids=["int-record", "str-record", "int-edge", "list-document"],
)
def test_non_object_records_are_malformed(data):
    with pytest.raises(InvalidGame, match=r"^malformed game description: "):
        game_from_json(data)


def test_make_game_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=r"^'bogus' is not a valid Kind$"):
        make_game("a", [("a", "bogus", (0, 0), [("a", 1)])])


def test_validate_after_normalize_round_trips_random_games(tmp_path):
    for seed in range(20):
        g = normalize(random_game(seed))
        p = tmp_path / f"g{seed}.json"
        save_game(g, p)
        back = load_game(p)
        assert back == g and validate_game(back).ok
