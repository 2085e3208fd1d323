"""Acceptance suite: one test per shipped guarantee, at stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the measured numbers).
"""
from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import islice

import floatoracle as fo
from conftest import FIG3_EXACT, HEATING_EXACT, frontier_of
from paretogames import (
    ADAM_FACTORIES,
    audit_game,
    bellman_step,
    check_determinacy,
    check_fixpoint,
    contains,
    evaluate,
    extremal_points,
    initial_curves,
    iterates,
    mdp_pareto_curve,
    optimal_policy,
    simulate,
    solve_determined,
    support,
    value_iterate,
)
from randgen import (
    random_betting_game,
    random_positive_direction,
    random_stopping_game,
    random_stopping_mdp,
)

TINY = F(1, 10**12)
EPS = F(1, 1000)


def test_criterion_1_heating_exact_solve_and_fixpoint(heating):
    t0 = time.perf_counter()
    v = solve_determined(heating)
    pinned = {
        "HH1": [(F(0), F(0))],
        "D1": [(F(-1), F(0))],
        "HC1": [(F(-1), F(0)), (F(0), F(-1))],
        "HC2": [(F(-1), F(-1)), (F(0), F(-2))],
        "CC1": [(F(-2), F(-1)), (F(-1), F(-2))],
    }
    for sid, pts in pinned.items():
        assert v[sid].vertices == tuple(pts), sid
    assert check_fixpoint(heating, v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: five pinned curves exact, fixpoint certified "
          f"({elapsed:.3f}s < 1s)")


def test_criterion_2_six_state_iterates_extremal_counts(fig3):
    t0 = time.perf_counter()
    hist = list(islice(iterates(fig3), 13))
    for n in range(3, 13):
        count = len(extremal_points(hist[n]["s0"]))
        assert count == n - 1, (n, count)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: iterate n has n-1 extremal points at s0 for "
          f"n=3..12 ({elapsed:.3f}s < 1s)")


def test_criterion_3_exact_curve_and_vi_tolerance(fig3, fig3_vi):
    v = solve_determined(fig3)
    assert v["s0"].vertices == ((F(0), F(1)), (F(1), F(0)))
    res = fig3_vi
    assert res.converged and res.fixpoint_reached  # snapped to the exact curves
    assert res.residual_bound is not None and res.residual_bound <= EPS
    exact = {sid: frontier_of(p) for sid, p in FIG3_EXACT.items()}
    assert res.curves == exact
    worst = F(0)
    for sid, f in res.curves.items():
        for x, y in f.vertices:
            truth = evaluate(exact[sid], x)
            assert truth is not None
            worst = max(worst, abs(y - truth))
    assert worst <= EPS
    print(f"criterion 3: exact curve [(0,1),(1,0)] at s0; exact stop "
          f"after {res.iterations} sweeps, worst vertex gap "
          f"{float(worst):.2e} <= 1/1000")


def test_criterion_4_mdp_scalarization_oracle():
    rng = random.Random(4242)
    slowest = 0.0
    for seed in range(100, 120):
        mdp = random_stopping_mdp(seed)
        t0 = time.perf_counter()
        f = mdp_pareto_curve(mdp, mdp.initial)
        for _ in range(50):
            w = random_positive_direction(rng)
            _, vals = optimal_policy(mdp, w)
            v = vals[mdp.initial]
            assert support(f, w) == w[0] * v[0] + w[1] * v[1]
        slowest = max(slowest, time.perf_counter() - t0)
        assert slowest < 2.0
    print(f"criterion 4: 20 processes x 50 directions, exact support "
          f"equality; slowest process {slowest:.3f}s < 2s")


def test_criterion_5_exact_vs_float_engine():
    worst = 0.0
    for seed in range(100):
        g = random_stopping_game(seed)
        exact = initial_curves(g)
        clouds = fo.initial_clouds(g)
        for _ in range(20):
            exact = bellman_step(g, exact)
            clouds = fo.cloud_step(g, clouds)
            for sid in g.state_ids:
                gap = fo.hausdorff(exact[sid], clouds[sid])
                worst = max(worst, gap)
                assert gap <= 1e-9, (seed, sid)
    print(f"criterion 5: 100 games x 20 steps, worst per-state gap "
          f"{worst:.2e} <= 1e-9")


def test_criterion_6_betting_walk_guarantees():
    t0 = time.perf_counter()
    runs = 0
    for gi in range(100):
        bg, targets = random_betting_game(random.Random(1000 + gi))
        w = bg.min_weight
        size = len(bg.vertices)
        delta = w**size - w ** (size + 1)
        for _, factory in sorted(ADAM_FACTORIES.items()):
            for seed in range(10):
                tr = simulate(bg, targets, 100, factory(seed * 7919 + gi))
                runs += 1
                last = tr.steps[-1]
                assert tr.reached_target
                assert last.credit >= 100 or (
                    last.vertex in targets
                    and last.credit >= bg.initial.credit
                )
                for prev, nxt in zip(tr.steps, tr.steps[1:]):
                    if prev.vertex not in targets:
                        assert nxt.potential - prev.potential >= delta
                assert len(tr.steps) - 1 <= tr.step_bound
    elapsed = time.perf_counter() - t0
    assert runs == 5000
    print(f"criterion 6: {runs} simulations ended in the target set with "
          f"exact potential increments, none past the step bound "
          f"({elapsed:.1f}s)")


def test_criterion_7_slope_audits_zero_failures(heating, fig3):
    failures = 0
    checks = 0

    fam = {sid: frontier_of(p) for sid, p in HEATING_EXACT.items()}
    rep = audit_game(heating, fam)
    failures += len(rep.findings)
    checks += rep.checks_run

    hist = list(islice(iterates(fig3), 22))
    for n in range(1, 21):
        rep = audit_game(fig3, hist[n + 1], prev=hist[n])
        failures += len(rep.findings)
        checks += rep.checks_run

    for seed in range(200, 250):
        g = random_stopping_game(seed)
        res = value_iterate(g, TINY, 21)
        hist = list(islice(iterates(g), res.iterations + 1))
        for n in range(1, len(hist)):
            rep = audit_game(g, hist[n], prev=hist[n - 1])
            failures += len(rep.findings)
            checks += rep.checks_run

    assert failures == 0
    print(f"criterion 7: {checks} slope-relation checks across the bundled "
          f"families and 50 random games, zero failures")


def test_criterion_8_determinacy_cross_check(heating, fig3):
    ok_h, _ = check_determinacy(heating)
    ok_f, _ = check_determinacy(fig3)
    assert ok_h and ok_f
    cross_checked = 0
    for seed in range(300, 312):
        g = random_stopping_game(seed, max_states=5)
        ok, v = check_determinacy(g)
        if not ok:
            continue
        res = value_iterate(g, EPS, 10000)
        assert res.converged
        r = res.residual_bound
        assert r is not None
        for sid in g.state_ids:
            for x, y in res.curves[sid].vertices:
                assert contains(v[sid], (x - r, y - r))
            for x, y in v[sid].vertices:
                assert contains(res.curves[sid], (x - r, y - r))
        cross_checked += 1
    assert cross_checked > 0
    print(f"criterion 8: both bundled games determined; {cross_checked} "
          f"random determined games cross-checked within the residual")
