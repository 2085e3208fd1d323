"""One-player solver: induced processes, exact evaluation, policy
iteration, and the dichotomic Pareto-curve enumeration."""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

import paretogames.mdp as mdp_module
from paretogames import (
    Game,
    InvalidArgument,
    InvalidGame,
    Kind,
    NotStopping,
    NotStoppingUnderPolicy,
    StateRecord,
    check_stopping,
    enumerate_md_strategies,
    induce_mdp,
    mdp_pareto_curve,
    mdp_pareto_curves,
    optimal_policy,
    policy_evaluate,
    support,
)
from randgen import (
    random_game,
    random_positive_direction,
    random_stopping_game,
    random_stopping_mdp,
)


def term(sid: str) -> StateRecord:
    return StateRecord(sid, Kind.TERMINAL, (F(0), F(0)), ((sid, F(1)),))


@pytest.fixture()
def fig3_mdp(fig3):
    (sigma,) = enumerate_md_strategies(fig3)
    return induce_mdp(fig3, sigma)


# ---------------------------------------------------------------------------
# induce_mdp


def test_fig3_has_unique_induced_mdp(fig3, fig3_mdp):
    assert fig3_mdp.state_ids == fig3.state_ids
    for sid in fig3.state_ids:
        orig, ind = fig3.state(sid), fig3_mdp.state(sid)
        assert orig.successors == ind.successors
        assert orig.reward == ind.reward
        if orig.kind is Kind.P2:
            assert ind.kind is Kind.CHANCE
            assert ind.transitions[0][1] == 1
        else:
            assert ind.kind is orig.kind


def test_induced_heating_mdp_is_stopping(heating):
    sigma = {"HC2": "HC3", "CH2": "CH3", "D1": "HH1"}
    mdp = induce_mdp(heating, sigma)
    assert check_stopping(mdp).stopping


def test_induce_without_p2_states_is_identity():
    g = Game(
        "p",
        (
            StateRecord("p", Kind.P1, (F(1), F(1)), (("t", F(1)),)),
            term("t"),
        ),
    )
    assert induce_mdp(g, {}) == g


def test_induce_rejects_bad_strategy(heating):
    with pytest.raises(InvalidArgument, match="is not a successor"):
        # total over HC2, CH2 and D1, but HH1 is not a successor of HC2
        induce_mdp(heating, {"HC2": "HH1", "CH2": "CH3", "D1": "HH1"})
    with pytest.raises(InvalidArgument):
        induce_mdp(heating, {})  # missing choices


# ---------------------------------------------------------------------------
# policy_evaluate


def test_policy_evaluate_single_step():
    g = Game(
        "s",
        (
            StateRecord("s", Kind.P1, (F(1), F(2)), (("t", F(1)),)),
            term("t"),
        ),
    )
    assert policy_evaluate(g, {"s": "t"})["s"] == (F(1), F(2))


def test_policy_evaluate_geometric_loop():
    g = Game(
        "a",
        (
            StateRecord(
                "a",
                Kind.CHANCE,
                (F(1), F(0)),
                (("a", F(1, 2)), ("t", F(1, 2))),
            ),
            term("t"),
        ),
    )
    assert policy_evaluate(g, {})["a"] == (F(2), F(0))


def test_policy_evaluate_fig3_always_s1(fig3_mdp):
    vals = policy_evaluate(fig3_mdp, {"s0": "s1"})
    assert vals["s0"] == (F(1), F(0))


@pytest.mark.parametrize(
    "induced, pol, error, message",
    [
        (
            False,
            {"CC1": "HC2", "HC1": "HCS3", "CH1": "D1"},
            InvalidGame,
            "process has Player-2 choice at ['HC2', 'CH2']; fix a strategy first",
        ),
        (
            True,
            {"CC1": "HC2"},
            InvalidArgument,
            "policy domain ['CC1'] != Player-1 states ['CC1', 'CH1', 'HC1']",
        ),
        (
            True,
            {"CC1": "HH1", "HC1": "HCS3", "CH1": "D1"},
            InvalidArgument,
            "CC1: chosen successor 'HH1' is not a successor",
        ),
    ],
)
def test_policy_evaluate_rejects_bad_input(heating, induced, pol, error, message):
    g = heating
    if induced:
        g = induce_mdp(heating, {"HC2": "HC3", "CH2": "CH3", "D1": "HH1"})
    with pytest.raises(error) as info:
        policy_evaluate(g, pol)
    assert str(info.value) == message


def test_policy_evaluate_detects_non_stopping_policy():
    g = Game(
        "a",
        (
            StateRecord("a", Kind.P1, (F(1), F(0)), (("a", F(1)), ("t", F(1)))),
            term("t"),
        ),
    )
    with pytest.raises(NotStoppingUnderPolicy):
        policy_evaluate(g, {"a": "a"})
    assert policy_evaluate(g, {"a": "t"})["a"] == (F(1), F(0))


def _reaches_terminals(mdp: Game, pol: dict[str, str]) -> bool:
    """Graph oracle: under pol, can every state of mdp reach a terminal?"""
    moves = {
        s.id: [pol[s.id]] if s.kind is Kind.P1 else [t for t, _ in s.transitions]
        for s in mdp.states
        if s.kind is not Kind.TERMINAL
    }
    reach = {s.id for s in mdp.states if s.kind is Kind.TERMINAL}
    grown = True
    while grown:
        new = {sid for sid, ts in moves.items() if any(t in reach for t in ts)}
        grown = not new <= reach
        reach |= new
    return len(reach) == len(mdp.states)


def _assert_zero_residual(mdp: Game, pol: dict[str, str], vals) -> None:
    for s in mdp.states:
        if s.kind is Kind.TERMINAL:
            assert vals[s.id] == (F(0), F(0))
            continue
        succ = [(pol[s.id], F(1))] if s.kind is Kind.P1 else s.transitions
        for k in (0, 1):
            assert vals[s.id][k] - s.reward[k] - sum(
                p * vals[t][k] for t, p in succ
            ) == 0


SELF_LOOPS = Game(
    "c",
    (
        StateRecord("c", Kind.CHANCE, (F(1), F(-1)), (("c", F(1, 2)), ("p", F(1, 2)))),
        StateRecord("p", Kind.P1, (F(0), F(2)), (("p", F(1)), ("q", F(1)))),
        StateRecord("q", Kind.P1, (F(1), F(1)), (("c", F(1)), ("t", F(1)))),
        term("t"),
    ),
)


def test_self_loops_raise_exactly_when_no_terminal_is_reached():
    assert policy_evaluate(SELF_LOOPS, {"p": "q", "q": "t"}) == {
        "c": (F(3), F(1)), "p": (F(1), F(3)), "q": (F(1), F(1)), "t": (F(0), F(0))
    }
    # a Player-1 self-loop, and a cycle through the chance self-loop
    for pol in ({"p": "p", "q": "t"}, {"p": "q", "q": "c"}):
        with pytest.raises(NotStoppingUnderPolicy):
            policy_evaluate(SELF_LOOPS, pol)


def test_singular_profiles_match_a_reachability_oracle():
    """policy_evaluate raises NotStoppingUnderPolicy iff some state of the
    profile's chain cannot reach a terminal, on games that need not be
    stopping; otherwise its values solve the equations exactly."""
    processes = [SELF_LOOPS]
    for seed in range(200):
        g = random_game(seed)
        processes += [induce_mdp(g, sigma) for sigma in enumerate_md_strategies(g)]
    raised = solved = 0
    for mdp in processes:
        p1 = [s for s in mdp.states if s.kind is Kind.P1]
        for combo in itertools.product(*(s.successors for s in p1)):
            pol = {s.id: t for s, t in zip(p1, combo)}
            stops = _reaches_terminals(mdp, pol)
            try:
                vals = policy_evaluate(mdp, pol)
            except NotStoppingUnderPolicy:
                assert not stops, (mdp, pol)
                raised += 1
                continue
            assert stops, (mdp, pol)
            _assert_zero_residual(mdp, pol, vals)
            solved += 1
    assert raised > 100 and solved > 100


def test_policy_evaluate_zero_residual_on_random_mdps():
    rng = random.Random(41)
    for seed in range(30):
        mdp = random_stopping_mdp(seed)
        pol = {
            s.id: rng.choice(s.successors)
            for s in mdp.states
            if s.kind is Kind.P1
        }
        try:
            vals = policy_evaluate(mdp, pol)
        except NotStoppingUnderPolicy:
            # the sampled policy may close a loop, but only a real one
            assert not _reaches_terminals(mdp, pol)
            continue
        _assert_zero_residual(mdp, pol, vals)


# ---------------------------------------------------------------------------
# optimal_policy


def test_optimal_policy_fig3_balanced_direction(fig3_mdp):
    _, vals = optimal_policy(fig3_mdp, (F(1), F(1)))
    assert vals["s0"][0] + vals["s0"][1] == 1
    for choice in ("s1", "s2"):
        v = policy_evaluate(fig3_mdp, {"s0": choice})["s0"]
        assert v[0] + v[1] == 1


def test_optimal_policy_fig3_lexicographic(fig3_mdp):
    pol, vals = optimal_policy(fig3_mdp, (F(1), F(0)))
    assert pol["s0"] == "s1"
    assert vals["s0"] == (F(1), F(0))


def test_optimal_policy_no_choices():
    g = Game(
        "a",
        (
            StateRecord(
                "a",
                Kind.CHANCE,
                (F(3), F(-1)),
                (("a", F(1, 3)), ("t", F(2, 3))),
            ),
            term("t"),
        ),
    )
    pol, vals = optimal_policy(g, (F(1), F(1)))
    assert pol == {}
    assert vals == policy_evaluate(g, {})


def test_optimal_policy_rejects_bad_directions(fig3_mdp):
    with pytest.raises(InvalidArgument):
        optimal_policy(fig3_mdp, (F(-1), F(1)))
    with pytest.raises(InvalidArgument):
        optimal_policy(fig3_mdp, (F(0), F(0)))


def test_optimal_policy_requires_stopping():
    g = Game(
        "a",
        (StateRecord("a", Kind.P1, (F(1), F(0)), (("a", F(1)),)),),
    )
    with pytest.raises(NotStopping):
        optimal_policy(g, (F(1), F(1)))


def test_policy_iteration_never_revisits(monkeypatch):
    # Each round of policy iteration evaluates its policy once, so the
    # policies handed to the evaluator are the rounds' policies.
    history: list[dict[str, str]] = []
    real = mdp_module._BestResponse.evaluate

    def recording(self, pol):
        history.append(dict(pol))
        return real(self, pol)

    monkeypatch.setattr(mdp_module._BestResponse, "evaluate", recording)
    for seed in range(40):
        mdp = random_stopping_mdp(seed)
        rng = random.Random(seed)
        w = random_positive_direction(rng)
        history.clear()
        optimal_policy(mdp, w)
        frozen = [tuple(sorted(p.items())) for p in history]
        assert len(frozen) == len(set(frozen))


# ---------------------------------------------------------------------------
# mdp_pareto_curve


def test_fig3_pareto_curve(fig3_mdp):
    assert mdp_pareto_curve(fig3_mdp, "s0").vertices == (
        (F(0), F(1)),
        (F(1), F(0)),
    )


def test_choice_free_pareto_curve_is_single_point():
    g = Game(
        "a",
        (
            StateRecord(
                "a",
                Kind.CHANCE,
                (F(1), F(-2)),
                (("a", F(1, 2)), ("t", F(1, 2))),
            ),
            term("t"),
        ),
    )
    f = mdp_pareto_curve(g, "a")
    assert f.vertices == ((F(2), F(-4)),)
    assert policy_evaluate(g, {})["a"] == f.vertices[0]


def test_heating_door_closed_curve_matches_scalarization(heating):
    sigma = {"HC2": "HC1", "CH2": "CH1", "D1": "HH1"}
    mdp = induce_mdp(heating, sigma)
    f = mdp_pareto_curve(mdp, "HC1")
    rng = random.Random(43)
    for _ in range(50):
        w = random_positive_direction(rng)
        _, vals = optimal_policy(mdp, w)
        v = vals["HC1"]
        assert support(f, w) == w[0] * v[0] + w[1] * v[1]


def _sample_processes():
    for seed in range(20):
        yield random_stopping_mdp(seed)
    for seed in range(8):
        g = random_stopping_game(seed, max_states=5)
        for sigma in enumerate_md_strategies(g):
            yield induce_mdp(g, sigma)


def test_all_state_curves_match_single_state_curves():
    for mdp in _sample_processes():
        assert list(mdp_pareto_curves(mdp)) == list(mdp.state_ids)


def test_pareto_witnesses_evaluate_to_their_vertices():
    """Every vertex is the value at its state of a memoized optimum, whose
    policy evaluates to it."""
    for mdp in _sample_processes():
        r = mdp_module._BestResponse(mdp, mdp_module._checked_process(mdp))
        curves = mdp_module._pareto_curves(r)
        for sid, f in curves.items():
            for z in f.vertices:
                pols = [pol for pol, vals in r._optima.values() if vals[sid] == z]
                assert pols
                assert all(policy_evaluate(mdp, pol)[sid] == z for pol in pols)


def test_pareto_support_consistency_on_random_mdps():
    rng = random.Random(47)
    for seed in range(10):
        mdp = random_stopping_mdp(seed)
        f = mdp_pareto_curve(mdp, mdp.initial)
        for _ in range(50):
            w = random_positive_direction(rng)
            _, vals = optimal_policy(mdp, w)
            v = vals[mdp.initial]
            assert support(f, w) == w[0] * v[0] + w[1] * v[1]


def test_pareto_requires_stopping():
    g = Game(
        "a",
        (StateRecord("a", Kind.P1, (F(1), F(0)), (("a", F(1)),)),),
    )
    with pytest.raises(NotStopping):
        mdp_pareto_curve(g, "a")
    with pytest.raises(NotStopping):
        mdp_pareto_curves(g)


# ---------------------------------------------------------------------------
# Pinned results (digests computed with the two-pass policy iteration that
# built one induced process per strategy)


def _pinned_processes():
    for seed in range(60):
        yield random_stopping_mdp(seed)
    for seed in range(20):
        g = random_stopping_game(seed)
        for sigma in enumerate_md_strategies(g):
            yield induce_mdp(g, sigma)


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def test_all_state_curves_are_pinned():
    def parts():
        for seed in range(100):
            curves = mdp_pareto_curves(random_stopping_mdp(seed))
            yield [(sid, f.vertices) for sid, f in curves.items()]

    assert _sha256(parts()) == (
        "feb4367e06c510e0c32ff149ec90b3a05015b48a1f99b0c3eb53dc5a23ff817e"
    )


def test_optimal_policies_are_pinned():
    def parts():
        for n, mdp in enumerate(_pinned_processes()):
            rng = random.Random(n)
            for _ in range(5):
                yield optimal_policy(mdp, random_positive_direction(rng))
            for axis in ((F(1), F(0)), (F(0), F(1))):
                yield optimal_policy(mdp, axis)

    assert _sha256(parts()) == (
        "c4c8cbc65ca2121562aad14d9e59841cc061c6464ba324184d9db94d26793f70"
    )
