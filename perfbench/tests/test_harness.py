"""Tests of the benchmark harness: span arithmetic, wrapper install and
restore, generator determinism, and the output checks."""

from __future__ import annotations

import dataclasses
import io
import contextlib
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import paretogames
import paretogames.bellman
import paretogames.cli
import paretogames.frontier

import checks
import generators
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a[0..100] contains b[10..40] (which contains c[15..25]) and d[50..60]
    t = tracing.Tracer(clock=fake_clock([0, 10, 15, 25, 40, 50, 60, 100]))
    a = t.open("a")
    b = t.open("b")
    c = t.open("c")
    t.close(c)
    t.close(b)
    d = t.open("b")
    t.close(d)
    t.close(a)
    stats = t.self_times()
    assert stats["a"] == (1, (100 - 30 - 10) / 1e9)
    assert stats["b"] == (2, ((30 - 10) + 10) / 1e9)
    assert stats["c"] == (1, 10 / 1e9)
    assert list(t.parent) == [-1, 0, 1, 0]


def test_spans_round_trip_through_the_span_file(tmp_path):
    t = tracing.Tracer(clock=fake_clock([0, 5, 7, 9]))
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    path = tmp_path / "spans.csv"
    t.write_spans(path)
    spans = tracing.load_spans(path)
    assert [(s["name"], s["parent"], s["start_ns"], s["end_ns"]) for s in spans] == [
        ("outer", -1, 0, 9), ("inner", 0, 5, 7)]


def test_install_wraps_every_reference_and_restore_puts_originals_back():
    originals = {
        (paretogames.bellman, "weighted_sum"): paretogames.bellman.weighted_sum,
        (paretogames.frontier, "weighted_sum"): paretogames.frontier.weighted_sum,
        (paretogames.cli, "tail_bound"): paretogames.cli.tail_bound,
        (paretogames, "simulate"): paretogames.simulate,
    }
    tracer = tracing.Tracer()
    with tracer:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
        result = paretogames.value_iterate(paretogames.fixture_game("fig3"), "1/1000", 3)
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert result.iterations == 3
    metrics = tracing.layer_metrics(tracer)
    assert tracer.absent == []
    assert metrics["bellman.value_iterate.calls"] == 1
    assert metrics["bellman.tail_bound.calls"] >= 3
    assert metrics["frontier.weighted_sum.calls"] > 0
    assert metrics["frontier.max_vertices"] >= 2
    # every frontier call made by value_iterate is nested under it
    names = tracer.names
    root = [i for i in range(len(tracer.start)) if names[tracer.name_of[i]] == "bellman.value_iterate"]
    assert len(root) == 1 and tracer.parent[root[0]] == -1
    assert all(tracer.parent[i] >= 0 for i in range(len(tracer.start)) if i != root[0]
               and tracer.start[i] > tracer.start[root[0]])


def test_counts_of_a_determined_solve():
    tracer = tracing.Tracer()
    with tracer:
        paretogames.solve_determined(paretogames.fixture_game("heating"))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["determined.solve_determined.calls"] == 1
    assert metrics["determined.strategies"] == 4
    assert 0 < metrics["mdp.policy_evaluate.distinct"] <= metrics["mdp.policy_evaluate.calls"]
    assert metrics["mdp.policy_evaluate.useful_ratio"] == (
        metrics["mdp.policy_evaluate.distinct"] / metrics["mdp.policy_evaluate.calls"])


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(paretogames.bellman, "tail_bound")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["bellman.tail_bound"]
    metrics = tracing.layer_metrics(tracer)
    assert "bellman.tail_bound.calls" not in metrics
    assert "bellman.value_iterate.calls" in metrics
    assert paretogames.cli.tail_bound.__name__ == "tail_bound"
    assert not hasattr(paretogames.cli.tail_bound, "__wrapped__")


@pytest.mark.parametrize("make", [
    lambda s: generators.wide_game(s, 60),
    lambda s: generators.determined_game(s, 1, 4),
    lambda s: generators.betting_arena(s, 2),
    lambda s: {"starts": generators.betting_starts(s, 2, 9, 5)},
])
def test_generators_are_deterministic_in_the_seed(make):
    assert generators.to_json_text(make(7)) == generators.to_json_text(make(7))
    assert generators.to_json_text(make(7)) != generators.to_json_text(make(8))


@pytest.mark.parametrize("seed", range(5))
def test_generated_instances_meet_their_workload_assumptions(seed):
    wide = paretogames.game_from_json(generators.wide_game(seed, 200))
    assert paretogames.validate_game(wide).ok
    assert paretogames.check_stopping(wide).stopping

    game = paretogames.game_from_json(generators.determined_game(seed, 0, 4))
    assert paretogames.check_stopping(game).stopping
    assert 10 <= len(game.states) <= 12
    p2 = [s for s in game.states if s.kind is paretogames.Kind.P2]
    assert len(p2) == 4 and all(len(s.successors) == 2 for s in p2)

    arena = generators.betting_arena(seed, 0)
    for start in generators.betting_starts(seed, 0, len(arena["states"]), 5):
        bg = paretogames.betting_from_json({**arena, "initial": start})
        assert not paretogames.validate_betting(bg)
        assert paretogames.attractor(bg, {"v0"}).winning == set(bg.vertex_ids)
        assert start["vertex"] != "v0" and Fraction(start["credit"]) >= 2


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_seeded_copy_solves_to_the_scaled_original(seed):
    base = generators.determined_game(0, 3, 4)
    copy, transform = generators.seeded_copy(base, seed)
    assert generators.to_json_text(copy) == generators.to_json_text(generators.seeded_copy(base, seed)[0])
    original = paretogames.solve_determined(paretogames.game_from_json(base))
    copied = paretogames.solve_determined(paretogames.game_from_json(copy))
    assert all(sid.startswith(transform["prefix"]) for sid in copied)
    assert checks.unmap_curves(paretogames, copied, transform) == original


def test_ceil_log2_is_exact():
    cases = {Fraction(1): 0, Fraction(2): 1, Fraction(3): 2, Fraction(1, 2): -1,
             Fraction(3, 8): -1, Fraction(2**40 + 1): 41}
    assert {x: checks.ceil_log2(x) for x in cases} == cases


def _solve_vi(tmp_path, game_name, sweeps):
    game = paretogames.fixture_game(game_name)
    path = tmp_path / f"{game_name}.json"
    paretogames.save_game(game, path)
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = paretogames.cli.main(["solve-vi", str(path), "--max-iters", str(sweeps),
                                   "--out-dir", str(out_dir)])
    return game, out_dir, rc


def test_vi_check_accepts_real_output_and_rejects_corrupted_curve(tmp_path):
    game, out_dir, rc = _solve_vi(tmp_path, "heating", 20)
    run, curves, problems = checks.check_vi_run(
        paretogames, game, out_dir, rc, Fraction(1, 1000), 20)
    assert problems == [] and set(curves) == set(game.state_ids)

    (out_dir / run["states"]["CC1"]).write_text("-2/1,oops\n")
    _, _, problems = checks.check_vi_run(paretogames, game, out_dir, rc, Fraction(1, 1000), 20)
    assert any("CC1" in p for p in problems)


def test_within_residual_check_rejects_a_shifted_curve():
    game = paretogames.fixture_game("fig3")
    exact = paretogames.solve_determined(game)
    assert checks.check_within_residual(paretogames, exact, exact, Fraction(0)) == []
    shifted = dict(exact, s1=paretogames.translate(exact["s1"], (Fraction(1, 100), 0)))
    assert checks.check_within_residual(paretogames, shifted, exact, Fraction(1, 100)) == []
    assert checks.check_within_residual(paretogames, shifted, exact, Fraction(1, 1000))


def test_determined_check_rejects_a_corrupted_curve(tmp_path):
    wl = workloads.DeterminedBatch(0, tmp_path)
    wl.setup(paretogames)
    solve, audit = wl.units[0], wl.units[1]
    assert solve.name == "heating:solve"
    outcome = solve.run()
    assert solve.check(outcome) == []
    assert audit.check(audit.run()) == []

    prefix = generators.seeded_copy(workloads.fixture_json("heating"), 0)[1]["prefix"]
    wrong = tmp_path / "curves-heating" / f"{prefix}CC1.csv"
    wrong.write_text("-2/1,-1/1\n-1/1,-3/1\n")
    problems = solve.check(outcome)
    assert any("contradict" in p for p in problems)
    assert any("pinned" in p for p in problems)


def test_betting_check_rejects_a_tampered_trace():
    arena = generators.betting_arena(3, 0)
    start = generators.betting_starts(3, 0, len(arena["states"]), 1)[0]
    bg = paretogames.betting_from_json({**arena, "initial": start})
    attr = paretogames.attractor(bg, {"v0"})
    bound = Fraction(10**9)
    trace = paretogames.simulate(bg, {"v0"}, bound, paretogames.StarveAdam())
    assert checks.check_betting_trace(paretogames, trace, bg, {"v0"}, bound, attr) == []

    steps = list(trace.steps)
    steps[1] = dataclasses.replace(steps[1], credit=steps[0].credit / 2)
    tampered = dataclasses.replace(trace, steps=tuple(steps))
    assert checks.check_betting_trace(paretogames, tampered, bg, {"v0"}, bound, attr)


def test_run_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vi-fig3", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_scale_turns_host_seconds_into_reference_seconds():
    import run

    assert run.speed_kernel() > 0
    assert run.host_scale([2 * run.REFERENCE_KERNEL_S] * 3) == pytest.approx(0.5)
    assert run.host_scale([1.0, run.REFERENCE_KERNEL_S, 0.0]) == pytest.approx(1.0)
