"""Exact game solving from minimizer strategies: generated, then enumerated."""
from __future__ import annotations

import hashlib
from fractions import Fraction as F

import pytest

import paretogames.determined
from conftest import (
    FIG3_EXACT,
    HEATING_EXACT,
    NOT_DETERMINED,
    frontier_of,
    p2_chain_game,
)
from paretogames import (
    Game,
    InvalidArgument,
    Kind,
    NotStopping,
    StateRecord,
    certified_curves,
    check_determinacy,
    check_fixpoint,
    contains,
    enumerate_md_strategies,
    game_from_json,
    induce_mdp,
    mdp_pareto_curve,
    solve_determined,
    value_iterate,
)
from randgen import random_stopping_game, random_stopping_mdp


def term(sid: str) -> StateRecord:
    return StateRecord(sid, Kind.TERMINAL, (F(0), F(0)), ((sid, F(1)),))


# ---------------------------------------------------------------------------
# enumerate_md_strategies


def test_heating_has_four_strategies(heating):
    sigmas = list(enumerate_md_strategies(heating))
    assert len(sigmas) == 4
    assert len({tuple(sorted(s.items())) for s in sigmas}) == 4
    for s in sigmas:
        assert set(s) == {"HC2", "CH2", "D1"}


def test_fig3_has_one_strategy(fig3):
    assert len(list(enumerate_md_strategies(fig3))) == 1


def test_no_p2_game_has_one_empty_strategy():
    g = Game(
        "p",
        (
            StateRecord("p", Kind.P1, (F(1), F(1)), (("t", F(1)),)),
            term("t"),
        ),
    )
    assert list(enumerate_md_strategies(g)) == [{}]


def test_enumeration_count_matches_formula():
    for seed in range(30):
        g = random_stopping_game(seed)
        expected = 1
        for s in g.states:
            if s.kind is Kind.P2:
                expected *= len(s.successors)
        assert len(list(enumerate_md_strategies(g))) == expected


# ---------------------------------------------------------------------------
# solve_determined


def test_fig3_solved_exactly(fig3):
    v = solve_determined(fig3)
    for sid, pts in FIG3_EXACT.items():
        assert v[sid] == frontier_of(pts)


def test_heating_solved_exactly(heating):
    v = solve_determined(heating)
    for sid, pts in HEATING_EXACT.items():
        assert v[sid] == frontier_of(pts)


def test_no_p2_game_reduces_to_mdp_curves():
    for seed in range(10):
        g = random_stopping_mdp(seed)
        v = solve_determined(g)
        for sid in g.state_ids:
            assert v[sid] == mdp_pareto_curve(g, sid)


def test_each_process_policy_pair_evaluated_once(heating, monkeypatch):
    import paretogames.mdp as mdp_module

    seen: list[tuple[Game, frozenset]] = []
    original = mdp_module._policy_values

    def counting(mdp, pol):
        seen.append((mdp, frozenset(pol.items())))
        return original(mdp, pol)

    monkeypatch.setattr(mdp_module, "_policy_values", counting)
    v = solve_determined(heating)
    for sid, pts in HEATING_EXACT.items():
        assert v[sid] == frontier_of(pts)
    assert seen
    assert len(seen) == len(set(seen))


def test_game_checked_once_and_processes_trusted(heating, monkeypatch):
    import paretogames.games as games_module
    import paretogames.mdp as mdp_module

    calls = {"check_stopping": 0, "policy_evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        games_module,
        "check_stopping",
        counted("check_stopping", games_module.check_stopping),
    )
    monkeypatch.setattr(
        mdp_module,
        "policy_evaluate",
        counted("policy_evaluate", mdp_module.policy_evaluate),
    )
    solve_determined(heating)
    assert calls == {"check_stopping": 1, "policy_evaluate": 0}


def test_strategies_share_the_validated_game(heating, monkeypatch):
    import paretogames.determined as determined_module
    import paretogames.mdp as mdp_module

    calls = []
    original = mdp_module.induce_mdp

    def counting(g, sigma):
        calls.append(sigma)
        return original(g, sigma)

    for module in (mdp_module, determined_module):
        if hasattr(module, "induce_mdp"):
            monkeypatch.setattr(module, "induce_mdp", counting)
    v = solve_determined(heating)
    for sid, pts in HEATING_EXACT.items():
        assert v[sid] == frontier_of(pts)
    assert calls == []


def test_solve_requires_stopping():
    g = Game(
        "a",
        (StateRecord("a", Kind.P1, (F(1), F(0)), (("a", F(1)),)),),
    )
    with pytest.raises(NotStopping):
        solve_determined(g)


def test_value_contained_in_every_strategy_curve():
    for seed in (0, 1, 2, 3, 4):
        g = random_stopping_game(seed, max_states=5)
        v = solve_determined(g)
        for sigma in enumerate_md_strategies(g):
            mdp = induce_mdp(g, sigma)
            for sid in g.state_ids:
                f_sigma = mdp_pareto_curve(mdp, sid)
                for vertex in v[sid].vertices:
                    assert contains(f_sigma, vertex)


# ---------------------------------------------------------------------------
# check_determinacy


def test_heating_is_determined(heating):
    ok, curves = check_determinacy(heating)
    assert ok
    assert check_fixpoint(heating, curves)


def test_fig3_is_determined(fig3):
    ok, _ = check_determinacy(fig3)
    assert ok


def test_single_terminal_is_determined():
    g = Game("t", (term("t"),))
    ok, curves = check_determinacy(g)
    assert ok
    assert curves["t"].vertices == ((F(0), F(0)),)


def test_vi_within_residual_of_enumeration_when_determined():
    checked = 0
    for seed in range(12):
        g = random_stopping_game(seed, max_states=5)
        ok, v = check_determinacy(g)
        if not ok:
            continue
        checked += 1
        res = value_iterate(g, F(1, 1000), 10000)
        assert res.converged
        r = res.residual_bound
        assert r is not None
        for sid in g.state_ids:
            for x, y in res.curves[sid].vertices:
                assert contains(v[sid], (x - r, y - r))
            for x, y in v[sid].vertices:
                assert contains(res.curves[sid], (x - r, y - r))
    assert checked > 0


def test_determinacy_verdicts_and_curves_are_pinned(heating, fig3):
    # digest computed with one induced process per strategy
    digest = hashlib.sha256()
    games = [heating, fig3] + [random_stopping_game(seed) for seed in range(200)]
    for g in games:
        ok, curves = check_determinacy(g)
        digest.update(
            repr((ok, [(sid, f.vertices) for sid, f in curves.items()])).encode()
        )
    assert digest.hexdigest() == (
        "17bbc34b030e1b83adda075a3e54682260c1e32ce04e9cdcf600941e5f6c2b08"
    )


NOT_DETERMINED_PINS = [(8, 0), (8, 29), (12, 85), (12, 144)]


def test_check_determinacy_equals_enumeration_on_random_stopping_games():
    nondetermined = []
    for max_states in (8, 12):
        for seed in range(150):
            g = random_stopping_game(seed, max_states=max_states)
            ok, curves = check_determinacy(g)
            expected = solve_determined(g)
            assert ok == check_fixpoint(g, expected), (max_states, seed)
            assert list(curves.items()) == list(expected.items()), (max_states, seed)
            if not ok:
                nondetermined.append((max_states, seed))
    assert nondetermined == NOT_DETERMINED_PINS


@pytest.mark.parametrize("max_states, seed", NOT_DETERMINED_PINS)
def test_non_determined_pins_fall_back_to_enumeration(monkeypatch, max_states, seed):
    g = random_stopping_game(seed, max_states=max_states)
    enumerated = []
    original = paretogames.determined.enumerate_md_strategies

    def spy(game):
        enumerated.append(game)
        return original(game)

    monkeypatch.setattr(paretogames.determined, "enumerate_md_strategies", spy)
    ok, curves = check_determinacy(g)
    assert enumerated == [g]
    assert not ok and curves == solve_determined(g)


def test_many_minimizer_states_certify_without_enumeration(monkeypatch):
    def no_enumeration(g):
        raise AssertionError("strategies enumerated")

    g = p2_chain_game(16)
    monkeypatch.setattr(
        paretogames.determined, "enumerate_md_strategies", no_enumeration
    )
    ok, curves = check_determinacy(g)
    assert ok and check_fixpoint(g, curves)
    assert list(curves) == list(g.state_ids)


def test_check_determinacy_evaluates_each_profile_once(heating, fig3, monkeypatch):
    import paretogames.mdp as mdp_module

    seen: list[frozenset] = []
    original = mdp_module._policy_values

    def counting(g, profile):
        seen.append(frozenset(profile.items()))
        return original(g, profile)

    monkeypatch.setattr(mdp_module, "_policy_values", counting)
    games = [heating, fig3] + [
        random_stopping_game(seed, max_states=max_states)
        for max_states in (8, 12)
        for seed in range(150)
    ]
    for g in games:
        seen.clear()
        check_determinacy(g)
        assert seen and len(seen) == len(set(seen))


def test_generated_strategies_are_each_folded_once(heating, monkeypatch):
    import paretogames.determined as determined_module

    folded = []
    original = determined_module._pareto_curves

    def counting(response):
        folded.append(frozenset(response.sigma.items()))
        return original(response)

    monkeypatch.setattr(determined_module, "_pareto_curves", counting)
    ok, curves = check_determinacy(heating)
    assert ok and len(folded) == len(set(folded)) < 4
    for sid, pts in HEATING_EXACT.items():
        assert curves[sid] == frontier_of(pts)


# ---------------------------------------------------------------------------
# certified_curves


def test_certified_curves_are_exact_on_random_stopping_games():
    nondetermined = []
    for max_states in (8, 12):
        for seed in range(150):
            g = random_stopping_game(seed, max_states=max_states)
            curves, residual = certified_curves(g, 10000)
            assert residual == 0 and check_fixpoint(g, curves), (max_states, seed)
            determined, enumerated = check_determinacy(g)
            if determined:
                assert curves == enumerated, (max_states, seed)
            else:
                nondetermined.append((max_states, seed))
    assert nondetermined == [(8, 0), (8, 29), (12, 85), (12, 144)]


@pytest.mark.parametrize("name", ["chain-11", "chain-12", "fig3", "not-determined"])
def test_certified_curves_never_enumerate(fig3, monkeypatch, name):
    games = {
        "chain-11": lambda: p2_chain_game(11),
        "chain-12": lambda: p2_chain_game(12),
        "fig3": lambda: fig3,
        "not-determined": lambda: game_from_json(NOT_DETERMINED),
    }
    g = games[name]()

    def no_enumeration(g):
        raise AssertionError("strategies were enumerated")

    ran = []
    monkeypatch.setattr(
        paretogames.determined, "enumerate_md_strategies", no_enumeration
    )
    monkeypatch.setattr(
        paretogames.determined,
        "value_iterate",
        lambda *args: ran.append(args) or value_iterate(*args),
    )
    curves, residual = certified_curves(g, 10000)
    assert residual == 0 and check_fixpoint(g, curves)
    # generation certifies the determined games; value iteration the other
    assert bool(ran) == (name == "not-determined")


@pytest.mark.parametrize("max_iters", [0, -1])
def test_certified_curves_reject_bad_options_before_any_work(
    heating, monkeypatch, max_iters
):
    def no_work(*args):
        raise AssertionError("solver ran")

    monkeypatch.setattr(paretogames.determined, "_generate", no_work)
    with pytest.raises(
        InvalidArgument, match=f"^max_iters must be >= 1, got {max_iters}$"
    ):
        certified_curves(heating, max_iters)
