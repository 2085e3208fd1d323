"""Betting games: attractor, potential strategy, adversary simulations.

The step-bound guarantee is proved from a zero starting credit (every visit
to a target vertex then ends the run); the tests cover that regime across
all adversaries, plus positive-threshold runs that terminate for structural
reasons, and one frozen arena where a positive threshold genuinely defeats
the bound — kept as an error-path regression.
"""
from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import paretogames.betting as betting
from paretogames import (
    ADAM_FACTORIES,
    AdamCheated,
    BetVertex,
    BettingConfig,
    BettingGame,
    EqualSplitAdam,
    HypothesisViolated,
    InvalidArgument,
    InvalidBettingGame,
    InvalidValuation,
    NotWinningVertex,
    RandomAdam,
    ScriptedAdam,
    StarveAdam,
    StepBoundExceeded,
    UnknownState,
    attractor,
    betting_from_json,
    betting_to_json,
    eve_move,
    potential,
    simulate,
    step_bound,
    trace_to_csv,
    validate_betting,
)
from randgen import random_betting_game


def bv(vid, kind, e1, w1, e2, w2):
    return BetVertex(vid, kind, ((e1, F(w1)), (e2, F(w2))))


def tiny_arena() -> BettingGame:
    """One Eve vertex feeding two target vertices."""
    return BettingGame(
        (
            bv("v", "eve", "t1", F(1, 2), "t2", F(1, 2)),
            bv("t1", "eve", "v", F(1, 2), "t2", F(1, 2)),
            bv("t2", "adam", "v", F(1, 2), "t1", F(1, 2)),
        ),
        BettingConfig("v", F(1)),
    )


# ---------------------------------------------------------------------------
# validation


def test_weights_must_sum_to_one():
    bad = BettingGame(
        (
            bv("a", "eve", "b", F(1, 2), "a", F(1, 3)),
            bv("b", "adam", "a", F(1, 2), "b", F(1, 2)),
        ),
        BettingConfig("a", F(0)),
    )
    assert any("sum" in v for v in validate_betting(bad))


def test_vertices_need_two_distinct_successors():
    bad = BettingGame(
        (bv("a", "eve", "a", F(1, 2), "a", F(1, 2)),),
        BettingConfig("a", F(0)),
    )
    assert validate_betting(bad)


_V = bv("v", "eve", "t1", F(1, 2), "t2", F(1, 2))


@pytest.mark.parametrize(
    "vs, initial, violations",
    [
        ([_V, _V], "v", ("v: duplicate vertex id",)),
        (
            [bv("v", "bob", "t1", F(1, 2), "t2", F(1, 2))],
            "v",
            ("v: kind must be eve or adam, got 'bob'",),
        ),
        (
            [bv("v", "eve", "t1", F(1, 2), "zz", F(1, 2))],
            "v",
            ("v: edge to unknown vertex 'zz'",),
        ),
        (
            [bv("v", "eve", "t1", F(3, 2), "t2", F(-1, 2))],
            "v",
            ("v: weight 3/2 outside (0,1]", "v: weight -1/2 outside (0,1]"),
        ),
        ([_V], "zz", ("initial vertex 'zz' does not exist",)),
    ],
    ids=["duplicate-id", "bad-kind", "unknown-edge", "weight", "unknown-initial"],
)
def test_each_arena_violation_is_named(vs, initial, violations):
    """tiny_arena with its vertex v replaced by ``vs``."""
    _, t1, t2 = tiny_arena().vertices
    bg = BettingGame((*vs, t1, t2), BettingConfig(initial, F(1)))
    assert validate_betting(bg) == violations


def test_integer_ids_built_in_code_validate_cleanly():
    bg = BettingGame(
        (bv(1, "eve", 2, F(1, 2), 1, F(1, 2)), bv(2, "adam", 1, F(1, 3), 2, F(2, 3))),
        BettingConfig(1, F(1)),
    )
    assert validate_betting(bg) == ()
    assert bg.vertex(1).successors == (2, 1)


def test_json_round_trip():
    bg, _ = random_betting_game(random.Random(5))
    assert betting_from_json(betting_to_json(bg)) == bg


def test_malformed_json_rejected():
    with pytest.raises(InvalidBettingGame):
        betting_from_json({"states": []})


@pytest.mark.parametrize(
    "weight, credit, detail",
    [
        ("1/0", "0", "zero denominator in '1/0'"),
        (
            "1/2",
            0.5,
            "float coordinates are not accepted; pass Fraction, int, or 'p/q' string",
        ),
    ],
)
def test_malformed_json_names_the_fault(weight, credit, detail):
    data = betting_to_json(tiny_arena())
    data["states"][0]["transitions"][0]["weight"] = weight
    data["initial"]["credit"] = credit
    with pytest.raises(InvalidBettingGame) as info:
        betting_from_json(data)
    assert str(info.value) == f"malformed betting game: {detail}"


# ---------------------------------------------------------------------------
# attractor


def test_attractor_all_edges_into_targets():
    bg = BettingGame(
        (
            bv("a", "eve", "t1", F(1, 2), "t2", F(1, 2)),
            bv("b", "adam", "t1", F(1, 3), "t2", F(2, 3)),
            bv("t1", "eve", "a", F(1, 2), "b", F(1, 2)),
            bv("t2", "adam", "a", F(1, 2), "b", F(1, 2)),
        ),
        BettingConfig("a", F(0)),
    )
    res = attractor(bg, {"t1", "t2"})
    assert res.winning == {"a", "b", "t1", "t2"}
    assert all(res.a[v] <= 1 for v in res.winning)


def test_adam_escapes_when_one_successor_leaves():
    bg = BettingGame(
        (
            bv("a", "adam", "t", F(1, 2), "u", F(1, 2)),
            bv("u", "adam", "a", F(1, 2), "u", F(1, 2)),
            bv("t", "eve", "a", F(1, 2), "u", F(1, 2)),
        ),
        BettingConfig("a", F(0)),
    )
    res = attractor(bg, {"t"})
    assert "a" not in res.winning and "u" not in res.winning


def test_attractor_two_layers():
    bg = BettingGame(
        (
            bv("v", "eve", "t", F(1, 2), "u", F(1, 2)),
            bv("u", "adam", "t", F(1, 2), "v", F(1, 2)),
            bv("t", "eve", "v", F(1, 2), "u", F(1, 2)),
        ),
        BettingConfig("v", F(0)),
    )
    res = attractor(bg, {"t"})
    assert res.winning == {"t", "u", "v"}
    assert res.sigma["v"] == "t"
    assert res.a == {"t": 0, "v": 1, "u": 2}


def test_attractor_is_cached_per_target_set_and_read_only():
    bg = tiny_arena()
    res = attractor(bg, {"t1", "t2"})
    assert attractor(bg, ["t2", "t1"]) is res
    assert attractor(bg, {"t1"}) is not res
    with pytest.raises(TypeError):
        res.a["v"] = 0
    with pytest.raises(TypeError):
        res.sigma["v"] = "t2"
    with pytest.raises(TypeError):
        res.offsets["v"] = F(0)
    assert attractor(bg, {"t1", "t2"}).a == {"t1": 0, "t2": 0, "v": 1}


def test_invalid_arena_raises_on_every_call():
    bg = BettingGame(
        (bv("a", "eve", "a", F(1, 2), "a", F(1, 2)),),
        BettingConfig("a", F(0)),
    )
    for _ in range(2):
        with pytest.raises(InvalidBettingGame):
            attractor(bg, {"a"})


def test_unknown_target_raises_on_every_call():
    bg = tiny_arena()
    for _ in range(2):
        with pytest.raises(UnknownState):
            attractor(bg, {"t1", "nowhere"})


def test_attractor_guide_descends_on_random_arenas():
    for seed in range(40):
        bg, targets = random_betting_game(random.Random(seed))
        res = attractor(bg, targets)
        for v in bg.vertices:
            if v.id not in res.winning or v.id in targets:
                continue
            if v.kind == "eve":
                assert res.a[res.sigma[v.id]] <= res.a[v.id] - 1
            else:
                for t in v.successors:
                    assert res.a[t] <= res.a[v.id] - 1
            assert res.a[v.id] <= len(bg.vertices)


# ---------------------------------------------------------------------------
# eve_move


def test_eve_move_symmetric_valuation():
    bg = tiny_arena()
    nxt = eve_move(bg, {"t1", "t2"}, BettingConfig("v", F(1)), (F(1), F(1)))
    assert nxt.vertex in {"t1", "t2"} and nxt.credit == 1


def test_eve_move_follows_the_money():
    bg = tiny_arena()
    nxt = eve_move(bg, {"t1", "t2"}, BettingConfig("v", F(1)), (F(0), F(2)))
    assert nxt.vertex == "t2" and nxt.credit == 2


def test_eve_move_increment_bound_with_skewed_weights():
    bg = BettingGame(
        (
            bv("v", "eve", "t1", F(1, 10), "t2", F(9, 10)),
            bv("t1", "eve", "v", F(1, 2), "t2", F(1, 2)),
            bv("t2", "adam", "v", F(1, 2), "t1", F(1, 2)),
        ),
        BettingConfig("v", F(1)),
    )
    targets = {"t1", "t2"}
    attr = attractor(bg, targets)
    w = bg.min_weight
    size = len(bg.vertices)
    delta = w**size - w ** (size + 1)
    cur = BettingConfig("v", F(1))
    nxt = eve_move(bg, targets, cur, (F(10), F(0)))
    assert (
        potential(bg, attr, nxt) >= potential(bg, attr, cur) + delta
    )


def test_eve_move_rejects_cheating_valuations():
    bg = tiny_arena()
    with pytest.raises(InvalidValuation):
        eve_move(bg, {"t1", "t2"}, BettingConfig("v", F(1)), (F(0), F(1)))


# ---------------------------------------------------------------------------
# simulate


def test_one_step_to_target_for_every_adversary():
    bg = tiny_arena()
    for name, factory in sorted(ADAM_FACTORIES.items()):
        for seed in range(5):
            tr = simulate(bg, {"t1", "t2"}, 100, factory(seed))
            assert tr.reached_target and tr.end == "target-credit"
            assert len(tr.steps) - 1 == 1
            assert tr.steps[-1].credit >= 1


def test_adam_only_cycle_raises_hypothesis_violated():
    bg = BettingGame(
        (
            bv("a1", "adam", "a2", F(1, 2), "t", F(1, 2)),
            bv("a2", "adam", "a1", F(1, 2), "t", F(1, 2)),
            bv("t", "eve", "a1", F(1, 2), "a2", F(1, 2)),
        ),
        BettingConfig("a1", F(0)),
    )
    with pytest.raises(HypothesisViolated):
        simulate(bg, {"t"}, 100, RandomAdam(0))


def test_monte_carlo_traces_end_in_target_set():
    runs = 0
    for seed in range(100):
        bg, targets = random_betting_game(random.Random(seed))
        for run in range(5):
            tr = simulate(bg, targets, 100, RandomAdam(seed * 31 + run))
            runs += 1
            last = tr.steps[-1]
            assert tr.reached_target
            assert last.credit >= 100 or (
                last.vertex in targets and last.credit >= bg.initial.credit
            )
            assert len(tr.steps) - 1 <= tr.step_bound
    assert runs == 500


def test_potential_growth_along_traces():
    for seed in range(25):
        bg, targets = random_betting_game(random.Random(seed))
        attr = attractor(bg, targets)
        w = bg.min_weight
        size = len(bg.vertices)
        delta = w**size - w ** (size + 1)
        tr = simulate(bg, targets, 100, RandomAdam(seed))
        for prev, nxt in zip(tr.steps, tr.steps[1:]):
            assert nxt.potential >= prev.potential
            if prev.vertex not in targets:
                assert nxt.potential >= prev.potential + delta
            cfg = BettingConfig(prev.vertex, prev.credit)
            assert potential(bg, attr, cfg) == prev.potential


def test_step_bound_formula():
    bg = tiny_arena()
    w = F(1, 2)
    delta = w**3 - w**4
    assert step_bound(bg, 100) == -(-(100 + w**3) // delta)


def _all_winning_arena(credit) -> BettingGame:
    half = F(1, 2)
    return BettingGame(
        (
            BetVertex("v0", "eve", (("v1", half), ("v2", half))),
            BetVertex("v1", "eve", (("v0", half), ("v2", half))),
            BetVertex("v2", "adam", (("v0", half), ("v1", half))),
        ),
        BettingConfig("v1", credit),
    )


@pytest.mark.parametrize("bound", [0, -5, F(-1, 3)])
def test_a_credit_bound_of_zero_or_below_is_rejected(bound):
    # a bound of 0 or below is met before any step, so no play can prove
    # anything; step_bound, and with it every play, refuses it
    bg = _all_winning_arena(F(3))
    with pytest.raises(ValueError, match="credit bound must be positive"):
        step_bound(bg, bound)
    with pytest.raises(ValueError, match="credit bound must be positive"):
        simulate(bg, {"v0"}, bound, RandomAdam(0))


def test_max_steps_cuts_simulation_short():
    bg = BettingGame(
        (
            bv("v", "eve", "t", F(1, 2), "u", F(1, 2)),
            bv("u", "adam", "t", F(1, 3), "v", F(2, 3)),
            bv("t", "eve", "v", F(1, 2), "u", F(1, 2)),
        ),
        BettingConfig("v", F(1)),
    )
    tr = simulate(bg, {"t"}, 10**6, StarveAdam(), max_steps=3)
    assert not tr.reached_target and tr.end == "max-steps"
    assert len(tr.steps) - 1 <= 3


def test_scripted_adversary_replays_exactly():
    bg = tiny_arena()
    adam = ScriptedAdam(valuations=[(F(0), F(2))])
    tr = simulate(bg, {"t1", "t2"}, 100, adam)
    assert tr.steps[-1].vertex == "t2" and tr.steps[-1].credit == 2


def test_scripted_adversary_cheating_is_caught():
    bg = tiny_arena()
    adam = ScriptedAdam(valuations=[(F(1), F(3))])
    with pytest.raises(AdamCheated):
        simulate(bg, {"t1", "t2"}, 100, adam)


def _adam_first() -> BettingGame:
    """tiny_arena, started at its Adam vertex t2."""
    return BettingGame(tiny_arena().vertices, BettingConfig("t2", F(1)))


def _escape_arena() -> BettingGame:
    """Adam circles u -> w -> u away from the target t, so only t wins, and
    the Eve vertex e, whose successors are u and w, loses."""
    return BettingGame(
        (
            bv("t", "eve", "u", F(1, 2), "w", F(1, 2)),
            bv("u", "adam", "w", F(1, 2), "t", F(1, 2)),
            bv("w", "adam", "u", F(1, 2), "t", F(1, 2)),
            bv("e", "eve", "u", F(1, 2), "w", F(1, 2)),
        ),
        BettingConfig("e", F(1)),
    )


@pytest.mark.parametrize(
    "play, error, message",
    [
        (
            lambda: simulate(_adam_first(), {"t1"}, 100, ScriptedAdam()),
            AdamCheated,
            "scripted adversary ran out of choices",
        ),
        (
            lambda: simulate(_adam_first(), {"t1"}, 100, ScriptedAdam(choices=["v"])),
            AdamCheated,
            "scripted adversary ran out of valuations",
        ),
        (
            lambda: simulate(
                _adam_first(), {"t1"}, 100, ScriptedAdam(choices=["nowhere"])
            ),
            AdamCheated,
            "t2: chose 'nowhere', not a successor",
        ),
        (
            lambda: simulate(
                tiny_arena(), {"t1", "t2"}, 100, ScriptedAdam([(-1, 3)])
            ),
            AdamCheated,
            "bets must be >= 0, got (-1,3)",
        ),
        (
            lambda: simulate(
                tiny_arena(), {"t1", "t2"}, 100, ScriptedAdam([(1, 1, 1)])
            ),
            AdamCheated,
            "valuation needs two entries, got 3",
        ),
        (
            lambda: potential(
                _escape_arena(),
                attractor(_escape_arena(), {"t"}),
                BettingConfig("u", F(1)),
            ),
            NotWinningVertex,
            "u is outside the winning set",
        ),
        (
            lambda: eve_move(
                _escape_arena(), {"t"}, BettingConfig("e", F(1)), (F(1), F(1))
            ),
            NotWinningVertex,
            "e is outside the winning set",
        ),
        (
            lambda: eve_move(
                tiny_arena(), {"t1", "t2"}, BettingConfig("t2", F(1)), (F(1), F(1))
            ),
            InvalidArgument,
            "t2 is not an Eve vertex",
        ),
    ],
    ids=[
        "no-choice-left",
        "no-valuation-left",
        "not-a-successor",
        "negative-bet",
        "three-bets",
        "potential-off-the-winning-set",
        "eve-move-off-the-winning-set",
        "eve-move-at-an-adam-vertex",
    ],
)
def test_each_betting_guard_names_the_fault(play, error, message):
    with pytest.raises(error) as info:
        play()
    assert str(info.value) == message


def test_trace_csv_shape():
    bg = tiny_arena()
    tr = simulate(bg, {"t1", "t2"}, 100, EqualSplitAdam())
    lines = trace_to_csv(tr).strip().splitlines()
    assert lines[0] == "step,vertex,credit,potential"
    assert len(lines) == len(tr.steps) + 1


def test_simulate_validates_the_arena_once(monkeypatch):
    calls = []
    real = betting.validate_betting

    def counting(bg):
        calls.append(bg)
        return real(bg)

    monkeypatch.setattr(betting, "validate_betting", counting)
    simulate(tiny_arena(), {"t1", "t2"}, 100, EqualSplitAdam())
    assert len(calls) == 1


def test_plays_on_one_arena_validate_it_once_per_target_set(monkeypatch):
    validations = []
    computed = []
    real_validate = betting.validate_betting
    real_compute = betting._compute_attractor

    def counting_validate(bg):
        validations.append(bg)
        return real_validate(bg)

    def counting_compute(bg, targets):
        computed.append(targets)
        return real_compute(bg, targets)

    monkeypatch.setattr(betting, "validate_betting", counting_validate)
    monkeypatch.setattr(betting, "_compute_attractor", counting_compute)
    bg = tiny_arena()
    for factory in ADAM_FACTORIES.values():
        for seed in range(5):
            simulate(bg, {"t1", "t2"}, 100, factory(seed))
    assert len(validations) == 1
    assert computed == [frozenset({"t1", "t2"})]
    simulate(bg, {"t1"}, 100, EqualSplitAdam())
    assert len(validations) == 2
    assert computed == [frozenset({"t1", "t2"}), frozenset({"t1"})]


def test_simulate_rejects_an_arena_without_edges_before_reading_w():
    bg = BettingGame((BetVertex("a", "eve", ()),), BettingConfig("a", F(0)))
    with pytest.raises(
        InvalidBettingGame,
        match=r"^invalid betting game: a: needs exactly two outgoing edges$",
    ):
        simulate(bg, {"a"}, 100, EqualSplitAdam())
    with pytest.raises(ValueError):
        bg.min_weight


def _play_record(bg, targets, adam) -> str:
    try:
        tr = simulate(bg, targets, 100, adam)
    except StepBoundExceeded as exc:
        return f"StepBoundExceeded: {exc}\n"
    return f"{tr.end} {tr.reached_target} {tr.step_bound}\n" + trace_to_csv(tr)


# SHA-256 over every play of 40 random arenas against each adversary, with
# the arena's start credit; from a positive credit some plays end in
# StepBoundExceeded, whose message is part of the record.
TRACE_DIGESTS = {
    F(0): "e55ca4ccef723230fe333a5d13012e128b4b4980c4d92d4700c532a5cb5b82a5",
    F(1, 2): "1621a40f81064e2020bb97e6296dda7fcba72d079969e223a0f8e93671c9868d",
}


@pytest.mark.parametrize("credit", sorted(TRACE_DIGESTS))
def test_traces_are_pinned(credit):
    digest = hashlib.sha256()
    for seed in range(40):
        bg, targets = random_betting_game(random.Random(seed), credit)
        for name, factory in sorted(ADAM_FACTORIES.items()):
            record = _play_record(bg, targets, factory(seed))
            digest.update(f"{seed} {name}\n{record}".encode())
    assert digest.hexdigest() == TRACE_DIGESTS[credit]


# ---------------------------------------------------------------------------
# positive starting credit


def test_positive_threshold_equal_split_terminates():
    # Equal-split betting keeps the credit constant, so with c0 > 0 the
    # first target visit still ends the run.
    for seed in range(20):
        bg, targets = random_betting_game(random.Random(seed), F(1))
        tr = simulate(bg, targets, 100, EqualSplitAdam())
        last = tr.steps[-1]
        assert tr.reached_target
        assert last.credit >= 100 or (
            last.vertex in targets and last.credit >= 1
        )


def test_positive_threshold_starve_escapes_through_bound():
    # Starving the guided successor forces ever-growing credit on the
    # branch Eve prefers, so the run exits through the wealth bound.
    bg = BettingGame(
        (
            bv("v", "eve", "t", F(1, 2), "u", F(1, 2)),
            bv("u", "adam", "t", F(1, 3), "v", F(2, 3)),
            bv("t", "eve", "v", F(1, 2), "u", F(1, 2)),
        ),
        BettingConfig("v", F(1)),
    )
    tr = simulate(bg, {"t"}, 100, StarveAdam())
    assert tr.reached_target and tr.end == "target-bound"
    assert tr.steps[-1].vertex == "u"
    assert tr.steps[-1].credit == 128
    assert len(tr.steps) - 1 == 13


def test_step_bound_escape_regression():
    # With a positive threshold the potential argument does not apply to
    # sub-threshold target visits: this frozen arena drains the credit to 0
    # on the target, after which no target configuration is reachable; the
    # simulator reports the bound instead of looping.
    bg = BettingGame(
        (
            bv("v0", "eve", "v1", F(3, 5), "v0", F(2, 5)),
            bv("v1", "eve", "v1", F(1, 4), "v0", F(3, 4)),
        ),
        BettingConfig("v1", F(1, 2)),
    )
    with pytest.raises(StepBoundExceeded, match="2135"):
        simulate(bg, {"v0"}, 100, RandomAdam(71333))


def test_exhausted_credit_on_target_ends_the_play_at_once():
    # Starving the guided successor leaves credit 0 on the target; a zero
    # credit never grows, so the play stops there instead of walking the
    # whole step bound.
    bg, targets = random_betting_game(random.Random(7), F(1, 2))
    bound = step_bound(bg, 100)
    with pytest.raises(StepBoundExceeded, match="credit exhausted"):
        simulate(bg, targets, 100, StarveAdam())
    tr = simulate(bg, targets, 100, StarveAdam(), max_steps=bound - 1)
    assert not tr.reached_target and tr.end == "max-steps"
    assert tr.steps[-1].vertex in targets and tr.steps[-1].credit == 0
    assert len(tr.steps) - 1 < 10 < bound


# ---------------------------------------------------------------------------
# internal invariants


def _worse_pick(bg, attr, v, d):
    """Eve's pick inverted: the successor of smallest potential."""
    w = bg.min_weight
    options = [
        BettingConfig(t, di) for (t, _), di in zip(v.edges, d) if t in attr.a
    ]
    return min(options, key=lambda c: c.credit + w ** attr.a[c.vertex])


def test_potential_check_survives_optimized_mode():
    tests_dir = Path(__file__).resolve().parent
    script = f"""
import sys
sys.path.insert(0, {str(tests_dir.parent / "src")!r})
from fractions import Fraction as F
import paretogames.betting as betting
from paretogames import InvariantBroken, ScriptedAdam, simulate
from test_betting import _worse_pick, tiny_arena

print("optimize", sys.flags.optimize)
betting._eve_pick = _worse_pick
try:
    simulate(tiny_arena(), {{"t2"}}, 100, ScriptedAdam(valuations=[(F(2), F(0))]))
except InvariantBroken as exc:
    print("InvariantBroken:", exc)
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tests_dir,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("InvariantBroken: potential increment")
