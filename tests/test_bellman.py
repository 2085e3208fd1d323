"""Curve equations engine: operator, iteration, tail bound, queries."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F
from itertools import islice

import pytest

import floatoracle as fo
from conftest import FIG3_EXACT, HEATING_EXACT, frontier_of
import paretogames.bellman
import paretogames.games
from paretogames import (
    Frontier,
    Game,
    InvalidArgument,
    Kind,
    NotStopping,
    StateRecord,
    achievable_within,
    bellman_step,
    check_determinacy,
    check_fixpoint,
    contains,
    dwc_conv_union,
    evaluate,
    extremal_points,
    initial_curves,
    iterates,
    make_game,
    support,
    tail_bound,
    translate,
    value_iterate,
)
from randgen import DIRECTIONS_32, random_frontier, random_game, \
    random_stopping_game

EPS = F(1, 1000)
TINY = F(1, 10**12)


def term(sid: str) -> StateRecord:
    return StateRecord(sid, Kind.TERMINAL, (F(0), F(0)), ((sid, F(1)),))


def exact_map(exact: dict) -> dict[str, Frontier]:
    return {sid: frontier_of(pts) for sid, pts in exact.items()}


# ---------------------------------------------------------------------------
# bellman_step


def test_step_fixes_heating_family(heating):
    fam = exact_map(HEATING_EXACT)
    assert bellman_step(heating, fam) == fam


def test_step_on_terminal_only_game():
    g = Game("t", (term("t"),))
    out = bellman_step(g, {"t": frontier_of([(F(5), F(5))])})
    assert out["t"].vertices == ((F(0), F(0)),)


def test_first_iterate_of_fig3(fig3):
    x1 = bellman_step(fig3, initial_curves(fig3))
    assert x1["s3"].vertices == ((F(1), F(0)),)
    assert x1["s4"].vertices == ((F(0), F(1)),)


def test_step_requires_complete_map(fig3):
    with pytest.raises(InvalidArgument):
        bellman_step(fig3, {"s0": frontier_of([(F(0), F(0))])})


def test_step_monotone_on_random_games():
    rng = random.Random(31)
    for seed in range(100):
        g = random_game(seed)
        lo = {s: random_frontier(rng) for s in g.state_ids}
        hi = {
            s: dwc_conv_union(lo[s], random_frontier(rng))
            for s in g.state_ids
        }
        out_lo = bellman_step(g, lo)
        out_hi = bellman_step(g, hi)
        for s in g.state_ids:
            for w in DIRECTIONS_32[::4]:
                assert support(out_lo[s], w) <= support(out_hi[s], w)


# ---------------------------------------------------------------------------
# value_iterate


def test_fig3_iterates_have_n_minus_1_extremal_points(fig3):
    hist = list(islice(iterates(fig3), 13))
    for n in range(3, 13):
        assert len(extremal_points(hist[n]["s0"])) == n - 1


def test_heating_converges_to_family_within_residual(heating):
    # The iterates stay dyadic while the fixpoint has thirds, so no sweep
    # reproduces its input; the engine instead rounds an iterate to small
    # denominators and verifies the rounding as the unique fixpoint.
    res = value_iterate(heating, EPS, 10000)
    assert res.converged and res.fixpoint_reached
    assert res.residual_bound is not None and res.residual_bound <= EPS
    exact = exact_map(HEATING_EXACT)
    assert res.curves == exact
    r = res.residual_bound
    for sid, f in res.curves.items():
        # each iterate vertex sits within the residual of the true set,
        # and each true vertex within the residual of the iterate's set
        for x, y in f.vertices:
            assert contains(exact[sid], (x - r, y - r))
        for x, y in exact[sid].vertices:
            assert contains(f, (x - r, y - r))


def test_terminal_only_fixpoint_after_one_sweep():
    g = Game("t", (term("t"),))
    res = value_iterate(g, EPS, 10)
    assert res.fixpoint_reached
    assert res.curves["t"].vertices == ((F(0), F(0)),)
    assert res.iterations <= 1


def test_fig3_vi_terminates_by_tail_bound_within_tolerance(fig3, fig3_vi):
    res = fig3_vi
    assert res.converged and res.fixpoint_reached
    assert res.residual_bound is not None and res.residual_bound <= EPS
    exact = exact_map(FIG3_EXACT)
    assert res.curves == exact
    for sid, f in res.curves.items():
        for x, y in f.vertices:
            truth = evaluate(exact[sid], x)
            assert truth is not None and abs(y - truth) <= EPS


def test_max_iters_hit_reports_not_converged(fig3):
    res = value_iterate(fig3, TINY, 3)
    assert not res.converged and not res.fixpoint_reached
    assert res.iterations == 3


def test_nonpositive_epsilon_rejected(fig3):
    with pytest.raises(InvalidArgument):
        value_iterate(fig3, 0, 10)


def test_negative_max_iters_rejected(fig3):
    with pytest.raises(InvalidArgument, match="^max_iters must be >= 0, got -1$"):
        value_iterate(fig3, EPS, -1)


def test_iterate_coordinates_bounded_by_initial_tail_bound():
    for seed in range(25):
        g = random_stopping_game(seed)
        cap = tail_bound(g, 0)
        res = value_iterate(g, EPS, 60)
        for curves in islice(iterates(g), res.iterations + 1):
            for f in curves.values():
                for x, y in f.vertices:
                    assert abs(x) <= cap and abs(y) <= cap


def test_fixpoint_reported_implies_check_fixpoint():
    hits = 0
    for seed in range(40):
        g = random_stopping_game(seed)
        res = value_iterate(g, EPS, 400)
        if res.fixpoint_reached:
            hits += 1
            assert check_fixpoint(g, res.curves)
            assert res.residual_bound == 0
    assert hits > 0


@pytest.mark.parametrize(
    "case", ["fig3"] + [f"seed{seed}" for seed in range(10)]
)
def test_value_iterate_stops_on_an_iterate(case, fig3):
    # every run of n sweeps returns exactly the n-th yielded map, unless it
    # snapped: then its last sweep changed something and it returns a
    # verified fixpoint after at most n sweeps
    g = fig3 if case == "fig3" else random_stopping_game(int(case[4:]))
    eps, cap = (TINY, 14) if case == "fig3" else (EPS, 40)
    hist = list(islice(iterates(g), cap + 1))
    for n in range(value_iterate(g, eps, cap).iterations + 1):
        res = value_iterate(g, eps, n)
        k = res.iterations
        if res.fixpoint_reached and hist[k] != hist[k - 1]:
            assert k <= n and check_fixpoint(g, res.curves)
        else:
            assert res.curves == hist[n]


def test_iterates_yield_fresh_maps(fig3):
    gen = iterates(fig3)
    x0 = next(gen)
    x0["s0"] = translate(x0["s0"], (1, 1))
    assert next(gen) == bellman_step(fig3, initial_curves(fig3))


def test_residuals_are_the_per_sweep_bounds():
    for seed in range(40):
        g = random_stopping_game(seed)
        res = value_iterate(g, EPS, 60)
        assert len(res.residuals) == res.iterations
        for n, r in enumerate(res.residuals, 1):
            assert 0 <= r <= tail_bound(g, n)
        if res.fixpoint_reached:
            assert res.residual_bound == 0
        elif res.residuals:
            assert res.residual_bound == res.residuals[-1]


def test_fixpoint_sweep_keeps_its_residual():
    res = value_iterate(random_stopping_game(30), EPS, 400)
    assert res.fixpoint_reached and res.residual_bound == 0
    assert res.residuals[-1] > EPS


def _within(a: Frontier, b: Frontier, r: F) -> bool:
    """Every vertex of each curve, shifted down by (r, r), lies in the other."""
    return all(contains(b, (x - r, y - r)) for x, y in a.vertices) and all(
        contains(a, (x - r, y - r)) for x, y in b.vertices
    )


def _iterate_within(g: Game, r: F) -> dict[str, Frontier]:
    """The first iterate whose survival residual, computed as
    ``value_iterate`` does, is at most r."""
    ceiling, _ = paretogames.bellman._tail_terms(g)
    alive = {s.id: F(0 if s.kind is Kind.TERMINAL else 1) for s in g.states}
    sweeps = iterates(g)
    next(sweeps)
    for curves in sweeps:
        alive = paretogames.bellman._alive_step(g, alive)
        if ceiling * max(alive.values()) <= r:
            return curves


def test_exact_stops_are_the_unique_fixpoint():
    snapped, nondetermined = 0, []
    for seed in range(150):
        g = random_stopping_game(seed, max_states=8)
        res = value_iterate(g, EPS, 10000)
        if not res.fixpoint_reached:
            continue
        snapped += 1
        assert res.residual_bound == 0 and check_fixpoint(g, res.curves)
        determined, enumerated = check_determinacy(g)
        if determined:
            assert res.curves == enumerated, seed
        else:
            nondetermined.append(seed)
            close = _iterate_within(g, F(1, 10**6))
            for sid in g.state_ids:
                assert _within(res.curves[sid], close[sid], F(1, 10**6))
    assert snapped >= 149 and nondetermined == [0, 29]


def test_non_stopping_game_never_snaps():
    # the maximizer may loop on a forever; the least fixpoint (2,2) at a
    # and b is approached by dyadic iterates and never reached
    g = make_game(
        "a",
        [
            ("a", "p1", (0, 0), [("a", 1), ("b", 1)]),
            ("b", "chance", (1, 1), [("a", F(1, 2)), ("t", F(1, 2))]),
            ("t", "terminal", (0, 0), [("t", 1)]),
        ],
    )
    two = frontier_of([(F(2), F(2))])
    assert check_fixpoint(g, {"a": two, "b": two, "t": frontier_of([(F(0), F(0))])})
    res = value_iterate(g, EPS, 64)
    assert not res.converged and not res.fixpoint_reached
    assert res.iterations == 64 and res.curves["a"] != two


def test_epsilon_rule_still_stops_runs_that_do_not_snap():
    res = value_iterate(random_stopping_game(106), EPS, 10000)
    assert res.converged and not res.fixpoint_reached
    assert res.iterations == 117
    assert 0 < res.residual_bound <= EPS


@pytest.mark.parametrize("seed", [1, 11, 15, 42, 62])
def test_zero_survival_residual_is_an_exact_stop(seed):
    g = random_stopping_game(seed, max_states=12)
    res = value_iterate(g, EPS, 10000)
    assert res.iterations == 3 and res.residuals[-1] == 0
    assert res.fixpoint_reached and check_fixpoint(g, res.curves)


def test_non_stopping_game_has_no_residuals():
    g = Game("a", (StateRecord("a", Kind.P1, (F(1), F(1)), (("a", F(1)),)),))
    res = value_iterate(g, EPS, 5)
    assert res.residuals == () and res.residual_bound is None
    assert res.iterations == 5 and not res.converged


# SHA-256 of repr(sorted(curves.items())) for iterate 40 of fig3 and
# iterate 33 of random_stopping_game(47) (where the tail-bound rule at
# 1/1000 used to stop), computed with the sort-and-hull curve kernel that
# preceded the linear merges.  Any change to a single bit of any curve
# fails this test.
CURVE_DIGESTS = {
    "fig3": (40, "d7ff0b53740106998643808cd6a3fba47631111b5cb453ecf5a0b35b41367f9a"),
    # 4 states: Player-1, Player-2 and chance states with two successors each
    "random-47": (
        33,
        "970f17713ab2ec88b0bfabde69fb0d25412a844c83cdb6c9aec70caf093a49b2",
    ),
}


@pytest.mark.parametrize("name", sorted(CURVE_DIGESTS))
def test_value_iteration_curves_are_bit_identical(name, fig3):
    g = fig3 if name == "fig3" else random_stopping_game(47)
    n, expected = CURVE_DIGESTS[name]
    curves = list(islice(iterates(g), n + 1))[n]
    digest = hashlib.sha256(repr(sorted(curves.items())).encode()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("sweeps", [1, 5, 12])
def test_stopping_rule_constants_computed_once(fig3, monkeypatch, sweeps):
    calls = {"check_stopping": 0, "tail_bound": 0, "_tail_terms": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    stop = counted("check_stopping", paretogames.games.check_stopping)
    monkeypatch.setattr(paretogames.games, "check_stopping", stop)
    monkeypatch.setattr(paretogames.bellman, "check_stopping", stop)
    for name in ("tail_bound", "_tail_terms"):
        monkeypatch.setattr(
            paretogames.bellman,
            name,
            counted(name, getattr(paretogames.bellman, name)),
        )
    res = value_iterate(fig3, TINY, sweeps)
    assert res.iterations == sweeps
    assert calls == {"check_stopping": 1, "tail_bound": 0, "_tail_terms": 1}


# ---------------------------------------------------------------------------
# check_fixpoint


def test_heating_family_is_fixpoint(heating):
    assert check_fixpoint(heating, exact_map(HEATING_EXACT))


def test_shifted_family_is_not_fixpoint(heating):
    fam = exact_map(HEATING_EXACT)
    fam["CH3"] = translate(fam["CH3"], (1, 0))
    assert not check_fixpoint(heating, fam)


def test_fig3_family_is_fixpoint(fig3):
    assert check_fixpoint(fig3, exact_map(FIG3_EXACT))


def test_check_fixpoint_stops_at_the_first_unmet_state(heating, monkeypatch):
    fam = exact_map(HEATING_EXACT)
    first = heating.states[0].id
    fam[first] = translate(fam[first], (1, 0))
    calls = []
    update = paretogames.bellman._state_update

    def counted(s, x):
        calls.append(s.id)
        return update(s, x)

    monkeypatch.setattr(paretogames.bellman, "_state_update", counted)
    assert not check_fixpoint(heating, fam)
    assert calls == [first]


# ---------------------------------------------------------------------------
# tail_bound


def _coin_game() -> Game:
    return Game(
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


def test_tail_bound_coin_game():
    assert tail_bound(_coin_game(), 0) == 8


def test_tail_bound_zero_rewards():
    g = Game(
        "a",
        (
            StateRecord(
                "a",
                Kind.CHANCE,
                (F(0), F(0)),
                (("a", F(1, 2)), ("t", F(1, 2))),
            ),
            term("t"),
        ),
    )
    for n in (0, 1, 5, 50):
        assert tail_bound(g, n) == 0


def test_tail_bound_geometric_shift():
    g = _coin_game()
    size = len(g.states)
    q = F(1, 2) ** size
    for n in (0, 1, 3, 10):
        assert tail_bound(g, n + size) == tail_bound(g, n) * (1 - q)


def test_tail_bound_monotone_nonincreasing():
    g = _coin_game()
    vals = [tail_bound(g, n) for n in range(12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tail_bound_requires_stopping():
    g = Game(
        "a",
        (
            StateRecord("a", Kind.P1, (F(1), F(1)), (("a", F(1)),)),
        ),
    )
    with pytest.raises(NotStopping):
        tail_bound(g, 0)


def test_tail_bound_rejects_a_negative_step():
    with pytest.raises(InvalidArgument, match="^n must be >= 0, got -1$"):
        tail_bound(_coin_game(), -1)


# ---------------------------------------------------------------------------
# achievable_within


def test_achievable_on_fig3_exact_curve(fig3):
    curves = exact_map(FIG3_EXACT)
    assert achievable_within(fig3, "s0", (F(2, 5), F(1, 2)), curves, 0) == "yes"
    assert achievable_within(fig3, "s0", (F(3, 5), F(3, 5)), curves, 0) == "no"
    first = curves["s0"].vertices[0]
    assert achievable_within(fig3, "s0", first, curves, 0) == "yes"


def test_achievable_within_three_values(fig3):
    curves = exact_map(FIG3_EXACT)
    assert achievable_within(fig3, "s0", (F(2, 5), F(1, 2)), curves, EPS) == "yes"
    assert (
        achievable_within(fig3, "s0", (F(999, 1000), F(999, 1000)), curves, EPS)
        == "no"
    )
    assert (
        achievable_within(fig3, "s0", (F(1, 2), F(1, 2)), curves, EPS)
        == "unknown"
    )


def test_achievable_within_rejects_negative_epsilon(fig3):
    with pytest.raises(InvalidArgument):
        achievable_within(
            fig3, "s0", (F(0), F(0)), exact_map(FIG3_EXACT), -1
        )


# ---------------------------------------------------------------------------
# Exact engine vs float point-cloud oracle (smoke; the full hundred-game
# sweep runs in the acceptance suite)


def test_exact_matches_float_oracle_smoke():
    for seed in range(10):
        g = random_stopping_game(seed)
        exact = initial_curves(g)
        clouds = fo.initial_clouds(g)
        for _ in range(20):
            exact = bellman_step(g, exact)
            clouds = fo.cloud_step(g, clouds)
            for sid in g.state_ids:
                assert fo.hausdorff(exact[sid], clouds[sid]) <= 1e-9
