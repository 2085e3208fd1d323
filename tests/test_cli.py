"""Command-line surface: subcommands, exit codes, file outputs."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from paretogames import (
    Frontier,
    Game,
    Kind,
    StateRecord,
    frontier_to_csv,
    make_game,
    save_betting,
    save_game,
    value_iterate,
)
import paretogames.cli
import paretogames.determined
from paretogames.cli import main
from conftest import NOT_DETERMINED, p2_chain_game, three_successor_game
from randgen import random_betting_game, random_stopping_game
import random


@pytest.fixture()
def heating_path(heating, tmp_path):
    p = tmp_path / "heating.json"
    save_game(heating, p)
    return str(p)


@pytest.fixture()
def fig3_path(fig3, tmp_path):
    p = tmp_path / "fig3.json"
    save_game(fig3, p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate / stopping


def test_validate_ok(heating_path, capsys):
    code, out, _ = run(capsys, "validate", heating_path)
    assert code == 0 and out.strip() == "valid"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "initial": "t",
                "states": [
                    {
                        "id": "t",
                        "kind": "terminal",
                        "reward": ["1/1", "0/1"],
                        "transitions": [{"to": "t", "prob": "1/1"}],
                    }
                ],
            }
        )
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "violation:" in out and "terminal reward nonzero" in out


def test_validate_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/game.json")
    assert code == 2
    assert err.startswith("error: FileNotFoundError")


@pytest.mark.parametrize(
    "text", ['{"initial": "a", "states": [5]}', '{"initial": "a", "states": ["abc"]}']
)
def test_malformed_state_record_is_an_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error: InvalidGame: malformed game description: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stopping_verdicts(fig3_path, tmp_path, capsys):
    code, out, _ = run(capsys, "stopping", fig3_path)
    assert code == 0 and "stopping: true" in out

    loop = Game(
        "a",
        (
            StateRecord("a", Kind.P1, (F(1), F(0)), (("b", F(1)),)),
            StateRecord("b", Kind.P1, (F(0), F(0)), (("a", F(1)),)),
        ),
    )
    p = tmp_path / "loop.json"
    save_game(loop, p)
    code, out, _ = run(capsys, "stopping", str(p))
    assert code == 1
    assert "stopping: false" in out and "witness: a,b" in out


# ---------------------------------------------------------------------------
# normalize / discount round-trips


def test_normalize_output_revalidates(heating_path, tmp_path, capsys):
    out_file = tmp_path / "normal.json"
    code, out, _ = run(capsys, "normalize", heating_path, "-o", str(out_file))
    assert code == 0 and f"wrote {out_file}" in out
    code, out, _ = run(capsys, "validate", str(out_file))
    assert code == 0 and out.strip() == "valid"


def test_discount_output_revalidates_and_stops(fig3_path, tmp_path, capsys):
    out_file = tmp_path / "disc.json"
    code, _, _ = run(
        capsys, "discount", fig3_path, "--delta", "9/10", "-o", str(out_file)
    )
    assert code == 0
    assert run(capsys, "validate", str(out_file))[0] == 0
    code, out, _ = run(capsys, "stopping", str(out_file))
    assert code == 0 and "stopping: true" in out


def test_discount_rejects_bad_delta(fig3_path, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "discount",
        fig3_path,
        "--delta",
        "3/2",
        "-o",
        str(tmp_path / "x.json"),
    )
    assert code == 2 and err.startswith("error: InvalidArgument")


# ---------------------------------------------------------------------------
# solve-vi


def test_solve_vi_five_sweeps_gives_four_vertices(fig3_path, tmp_path, capsys):
    out_dir = tmp_path / "vi"
    code, _, _ = run(
        capsys,
        "solve-vi",
        fig3_path,
        "--max-iters",
        "5",
        "--epsilon",
        "1/1000000000000",
        "--out-dir",
        str(out_dir),
    )
    assert code == 3  # max_iters reached without convergence
    rows = (out_dir / "s0.csv").read_text().strip().splitlines()
    assert rows == [
        "0/1,271/1000",
        "81/200,19/100",
        "27/40,1/10",
        "7/8,0/1",
    ]
    log = (out_dir / "iterations.log").read_text().strip().splitlines()
    assert len(log) == 5
    assert all("residual_bound=" in line for line in log)
    run_info = json.loads((out_dir / "run.json").read_text())
    assert run_info["converged"] is False and run_info["iterations"] == 5


def test_solve_vi_converges_on_heating(heating_path, tmp_path, capsys):
    out_dir = tmp_path / "vi"
    code, out, _ = run(
        capsys, "solve-vi", heating_path, "--out-dir", str(out_dir)
    )
    assert code == 0
    assert "converged=true iterations=32 residual_bound=0/1" in out
    run_info = json.loads((out_dir / "run.json").read_text())
    assert run_info["converged"] is True
    assert run_info["fixpoint_reached"] is True
    log = (out_dir / "iterations.log").read_text().splitlines()
    assert len(log) == 32
    # the snapping sweep keeps its survival bound in the log
    assert log[-1].startswith("32 residual_bound=")
    assert log[-1] != "32 residual_bound=0/1"


def test_solve_vi_reports_a_zero_residual_as_exact(tmp_path, capsys):
    # every play of this game ends within 3 steps
    p = tmp_path / "g.json"
    save_game(random_stopping_game(1, max_states=12), p)
    out_dir = tmp_path / "vi"
    code, out, _ = run(capsys, "solve-vi", str(p), "--out-dir", str(out_dir))
    assert (code, out) == (0, "converged=true iterations=3 residual_bound=0/1\n")
    run_info = json.loads((out_dir / "run.json").read_text())
    assert run_info["fixpoint_reached"] is True and run_info["note"] == ""
    log = (out_dir / "iterations.log").read_text().splitlines()
    assert log[-1] == "3 residual_bound=0/1"


def _log_lines(result) -> list[str]:
    return [
        f"{n} residual_bound={r.numerator}/{r.denominator}"
        for n, r in enumerate(result.residuals, 1)
    ]


def test_iterations_log_is_the_run_residuals(fig3, fig3_path, tmp_path, capsys):
    out_dir = tmp_path / "vi"
    code, _, _ = run(
        capsys, "solve-vi", fig3_path, "--max-iters", "12",
        "--epsilon", "1/1000000000000", "--out-dir", str(out_dir),
    )
    assert code == 3
    result = value_iterate(fig3, F(1, 10**12), 12)
    log = (out_dir / "iterations.log").read_text().splitlines()
    assert log == _log_lines(result) and len(log) == 12


def test_iterations_log_of_a_fixpoint_stop(tmp_path, capsys):
    g = random_stopping_game(30)
    result = value_iterate(g, F(1, 1000), 400)
    assert result.fixpoint_reached and result.iterations > 1
    p = tmp_path / "g.json"
    save_game(g, p)
    out_dir = tmp_path / "vi"
    code, out, _ = run(capsys, "solve-vi", str(p), "--out-dir", str(out_dir))
    assert code == 0
    assert f"iterations={result.iterations} residual_bound=0/1" in out
    log = (out_dir / "iterations.log").read_text().splitlines()
    assert log == _log_lines(result) and len(log) == result.iterations
    # the fixpoint sweep keeps its certified residual in the log
    assert log[-1] != f"{result.iterations} residual_bound=0/1"


def test_iterations_log_of_a_non_stopping_game(tmp_path, capsys):
    loop = Game(
        "a", (StateRecord("a", Kind.P1, (F(1), F(1)), (("a", F(1)),)),)
    )
    p = tmp_path / "loop.json"
    save_game(loop, p)
    out_dir = tmp_path / "vi"
    code, out, _ = run(
        capsys, "solve-vi", str(p), "--max-iters", "4", "--out-dir", str(out_dir)
    )
    assert code == 3 and "residual_bound=n/a" in out
    log = (out_dir / "iterations.log").read_text().splitlines()
    assert log == [f"{n} residual_bound=n/a" for n in range(1, 5)]


def test_solve_vi_svg_output(fig3_path, tmp_path, capsys):
    out_dir = tmp_path / "svg"
    code, _, _ = run(
        capsys,
        "solve-vi",
        fig3_path,
        "--max-iters",
        "5",
        "--epsilon",
        "1/1000000000000",
        "--svg",
        "--out-dir",
        str(out_dir),
    )
    assert code == 3
    svg = (out_dir / "s0.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize(
    "argv",
    [["solve-vi", "--epsilon", "1/1000", "--max-iters", "10"], ["solve-determined"]],
)
def test_svg_draws_coordinates_beyond_float_range(tmp_path, capsys, argv):
    from xml.dom.minidom import parse

    huge = 10**400
    g = Game(
        "s",
        (
            StateRecord("s", Kind.P1, (0, 0), (("a", 1), ("b", 1))),
            StateRecord("a", Kind.P2, (huge, 0), (("t", 1),)),
            StateRecord("b", Kind.P2, (0, huge), (("t", 1),)),
            StateRecord("t", Kind.TERMINAL, (0, 0), (("t", 1),)),
        ),
    )
    path = tmp_path / "huge.json"
    save_game(g, path)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, argv[0], str(path), *argv[1:], "--svg", "--out-dir", str(out_dir)
    )
    assert code == 0, err
    for sid in "sab":
        svg = parse(str(out_dir / f"{sid}.svg"))
        assert svg.getElementsByTagName("polyline")
    labels = parse(str(out_dir / "s.svg")).getElementsByTagName("text")
    assert labels[-1].firstChild.data == f"({huge},0)"


# ---------------------------------------------------------------------------
# solve-determined / query


def test_solve_determined_heating_pins_cc_curve(
    heating_path, tmp_path, capsys
):
    out_dir = tmp_path / "det"
    code, _, _ = run(
        capsys, "solve-determined", heating_path, "--out-dir", str(out_dir)
    )
    assert code == 0
    rows = (out_dir / "CC1.csv").read_text().strip().splitlines()
    assert rows == ["-2/1,-1/1", "-1/1,-2/1"]


def test_solve_determined_verdict_flag(heating_path, capsys):
    code, out, _ = run(
        capsys, "solve-determined", heating_path, "--check-determinacy"
    )
    assert code == 0 and "determined: true" in out


def test_query_determined_yes(fig3_path, capsys):
    code, out, _ = run(
        capsys,
        "query",
        fig3_path,
        "--state",
        "s0",
        "--point",
        "2/5,1/2",
    )
    assert code == 0 and out.strip() == "yes"


def test_query_vi_no(heating_path, capsys):
    code, out, _ = run(
        capsys,
        "query",
        heating_path,
        "--state",
        "CC1",
        "--point",
        "0,0",
    )
    assert code == 0 and out.strip() == "no"


def test_query_vi_yes_at_a_vertex_of_the_exact_curve(heating_path, capsys):
    # value iteration stops at the exact curves, so a vertex is decided
    # instead of falling in the residual band
    code, out, _ = run(
        capsys, "query", heating_path, "--state", "CH2", "--point=-1,-2",
    )
    assert (code, out) == (0, "yes\n")


def _nd_path(tmp_path):
    game = tmp_path / "nd.json"
    game.write_text(json.dumps(NOT_DETERMINED))
    return str(game)


# V*(s0) is [(-7/2,-1/3), (-1/4,-7/3)], which value iteration certifies
# exactly; the enumerated curve would wrongly contain (-1/4,-2).
@pytest.mark.parametrize(
    "point, answer", [("-1/4,-2", "no"), ("-1/4,-7/3", "yes")], ids=["no", "yes"]
)
def test_query_on_a_non_determined_game(tmp_path, capsys, point, answer):
    got = run(
        capsys, "query", _nd_path(tmp_path), "--state", "s0", f"--point={point}"
    )
    assert got[:2] == (0, answer + "\n")


def test_query_on_a_non_stopping_game_never_sweeps(tmp_path, capsys, monkeypatch):
    def no_sweeps(*args):
        raise AssertionError("value iteration ran")

    monkeypatch.setattr(paretogames.determined, "value_iterate", no_sweeps)
    loop = Game(
        "a", (StateRecord("a", Kind.P1, (F(1), F(1)), (("a", F(1)),)),)
    )
    p = tmp_path / "loop.json"
    save_game(loop, p)
    code, out, err = run(capsys, "query", str(p), "--state", "a", "--point=0,0")
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: NotStopping: an achievability query requires a stopping game"
    )


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_query_rejects_a_non_positive_epsilon(heating_path, capsys, epsilon):
    code, out, err = run(
        capsys, "query", heating_path, "--state", "HH1", "--point=0,0",
        f"--epsilon={epsilon}",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidArgument: epsilon must be > 0")


def test_query_with_many_minimizer_strategies_answers_quickly(
    tmp_path, capsys, monkeypatch
):
    # 2^60 minimizer strategies, none enumerated: generation answers,
    # exactly; V*(s0) is the single point (-19,-29)
    def no_enumeration(g):
        raise AssertionError("strategies were enumerated")

    monkeypatch.setattr(
        paretogames.determined, "enumerate_md_strategies", no_enumeration
    )
    p = tmp_path / "chain.json"
    save_game(p2_chain_game(61), p)
    start = time.perf_counter()
    got = [
        run(capsys, "query", str(p), "--state", "s0", f"--point={point}")[:2]
        for point in ("-19,-29", "-18,-29")
    ]
    assert got == [(0, "yes\n"), (0, "no\n")]
    assert time.perf_counter() - start < 10


def test_query_has_no_mode_option(fig3_path):
    with pytest.raises(SystemExit) as info:
        main(["query", fig3_path, "--state", "s0", "--point=0,0", "--mode", "vi"])
    assert info.value.code == 2


@pytest.mark.parametrize("point", ["1,2,3", "1"])
def test_query_rejects_a_point_without_two_coordinates(heating_path, capsys, point):
    code, out, err = run(
        capsys, "query", heating_path, "--state", "CC1", f"--point={point}"
    )
    assert (code, out) == (2, "")
    assert err == f"error: InvalidArgument: point must be 'x,y', got '{point}'\n"


def test_query_rejects_exponent_notation(heating_path, capsys):
    code, out, err = run(
        capsys, "query", heating_path, "--state", "HH1", "--point=1e10000000,0"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: InvalidArgument: exponent notation is not accepted: '1e10000000'\n"
    )


def test_solve_vi_rejects_a_malformed_rational(heating_path, tmp_path, capsys):
    code, out, err = run(
        capsys, "solve-vi", heating_path, "--epsilon", "abc",
        "--out-dir", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidArgument: ") and "'abc'" in err


def test_solve_determined_always_reports_not_determined(tmp_path, capsys):
    game = _nd_path(tmp_path)
    code, out, _ = run(capsys, "solve-determined", game)
    assert code == 1 and out.splitlines()[-1] == "determined: false"
    out_dir = tmp_path / "nd"
    code, out, _ = run(capsys, "solve-determined", game, "--out-dir", str(out_dir))
    assert (code, out) == (1, "determined: false\n")
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    assert written == sorted(s["id"] + ".csv" for s in NOT_DETERMINED["states"])


def test_not_determined_survives_optimized_mode(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from paretogames.cli import main\n"
        "print('optimize', sys.flags.optimize)\n"
        "sys.exit(main(['solve-determined', sys.argv[1]]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, _nd_path(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    lines = done.stdout.splitlines()
    assert (done.returncode, lines[0], lines[-1]) == (
        1, "optimize 1", "determined: false"
    )


def test_solve_determined_always_reports_determined(heating_path, capsys):
    code, out, _ = run(capsys, "solve-determined", heating_path)
    assert code == 0 and out.splitlines()[-1] == "determined: true"


@pytest.mark.parametrize("name", ["heating", "not determined"])
def test_check_determinacy_flag_changes_nothing(
    name, heating_path, tmp_path, capsys
):
    game = heating_path if name == "heating" else _nd_path(tmp_path)
    runs = []
    for flag in ([], ["--check-determinacy"]):
        out_dir = tmp_path / f"out{len(flag)}"
        printed = run(capsys, "solve-determined", game, *flag)
        written = run(
            capsys, "solve-determined", game, *flag, "--out-dir", str(out_dir)
        )
        files = {p.name: p.read_text() for p in out_dir.iterdir()}
        runs.append((printed, written, files))
    assert runs[0] == runs[1]


def test_check_determinacy_flag_is_not_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["solve-determined", "--help"])
    assert "--check-determinacy" not in capsys.readouterr().out


def test_query_unknown_state_is_input_error(fig3_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("certified_curves ran")

    # the state is looked up before any solving
    monkeypatch.setattr(paretogames.cli, "certified_curves", no_solve)
    code, _, err = run(
        capsys,
        "query",
        fig3_path,
        "--state",
        "zz",
        "--point",
        "0,0",
    )
    assert code == 2 and err.startswith("error: UnknownState")


# ---------------------------------------------------------------------------
# zero denominators are input errors


def _zero_prob_game(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({
        "initial": "a",
        "states": [
            {"id": "a", "kind": "chance", "reward": ["1", "0"],
             "transitions": [{"to": "t", "prob": "1/0"}]},
            {"id": "t", "kind": "terminal", "reward": ["0", "0"],
             "transitions": [{"to": "t"}]},
        ],
    }))
    return ["validate", str(p)]


def _zero_csv_audit(tmp_path, heating_path):
    curves = tmp_path / "curves"
    curves.mkdir()
    (curves / "CC1.csv").write_text("1/0,0\n")
    return ["audit", heating_path, "--curves", str(curves)]


def _zero_betting(tmp_path, bound="100", weight=None):
    bg, targets = random_betting_game(random.Random(3))
    p = tmp_path / "bet.json"
    save_betting(bg, p)
    if weight is not None:
        data = json.loads(p.read_text())
        data["states"][0]["transitions"][0]["weight"] = weight
        p.write_text(json.dumps(data))
    return ["betting-sim", str(p), "--target", ",".join(sorted(targets)),
            "--bound", bound]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, game: ["discount", game, "--delta", "1/0",
                           "-o", str(tmp / "x.json")],
        lambda tmp, game: ["solve-vi", game, "--epsilon", "1/0",
                           "--out-dir", str(tmp / "vi")],
        lambda tmp, game: ["query", game, "--state", "HH1",
                           "--point=1/0,0"],
        lambda tmp, game: _zero_prob_game(tmp),
        _zero_csv_audit,
        lambda tmp, game: _zero_betting(tmp, bound="1/0"),
        lambda tmp, game: _zero_betting(tmp, weight="1/0"),
    ],
    ids=["delta", "epsilon", "point", "game-prob", "audit-csv", "bound",
         "betting-weight"],
)
def test_zero_denominator_is_an_input_error(
    argv, heating_path, tmp_path, capsys
):
    code, _, err = run(capsys, *argv(tmp_path, heating_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, game, bet: ["solve-vi", game, "--epsilon", "0",
                                "--out-dir", str(tmp / "vi")],
        lambda tmp, game, bet: ["solve-vi", game, "--max-iters", "-1",
                                "--out-dir", str(tmp / "vi")],
        lambda tmp, game, bet: ["query", game, "--state", "HH1", "--point=0,0",
                                "--epsilon", "0"],
        lambda tmp, game, bet: ["query", game, "--state", "HH1", "--point=0,0",
                                "--max-iters", "0"],
        lambda tmp, game, bet: ["query", game, "--state", "HH1", "--point=1"],
        lambda tmp, game, bet: ["discount", game, "--delta", "0",
                                "-o", str(tmp / "x.json")],
        lambda tmp, game, bet: ["discount", game, "--delta", "1",
                                "-o", str(tmp / "x.json")],
        lambda tmp, game, bet: ["betting-sim", bet[0], "--target", bet[1],
                                "--bound", "0"],
        lambda tmp, game, bet: ["betting-sim", bet[0], "--target", bet[1],
                                "--runs", "0"],
        lambda tmp, game, bet: ["betting-sim", bet[0], "--target", ","],
    ],
    ids=["vi-epsilon", "vi-max-iters", "query-epsilon", "query-max-iters",
         "query-point", "delta-0", "delta-1", "bound", "runs", "target"],
)
def test_a_bad_option_value_is_an_invalid_argument(
    argv, heating_path, betting_path, tmp_path, capsys
):
    code, out, err = run(capsys, *argv(tmp_path, heating_path, betting_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidArgument: ") and err.count("\n") == 1


def _write_bytes(path: Path, data: bytes) -> Path:
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    return path


NOT_JSON, NOT_UTF8, TOO_DEEP = b"{nope", b'"\xff"', b"[" * 10**5 + b"]" * 10**5
# an integer literal past the interpreter's digit limit for int conversion
LONG_INT = b"[" + b"1" * 5000 + b"]"


@pytest.mark.parametrize(
    "argv, error, named",
    [
        (lambda tmp, game: ["validate", str(_write_bytes(tmp / "g.json", NOT_JSON))],
         "InvalidGame", "g.json"),
        (lambda tmp, game: ["validate", str(_write_bytes(tmp / "g.json", NOT_UTF8))],
         "InvalidGame", "g.json"),
        (lambda tmp, game: ["validate", str(_write_bytes(tmp / "g.json", TOO_DEEP))],
         "InvalidGame", "g.json"),
        (lambda tmp, game: ["validate", str(_write_bytes(tmp / "g.json", LONG_INT))],
         "InvalidGame", "g.json"),
        (lambda tmp, game: ["betting-sim", str(_write_bytes(tmp / "b.json", NOT_JSON)),
                            "--target", "v0"], "InvalidBettingGame", "b.json"),
        (lambda tmp, game: ["betting-sim", str(_write_bytes(tmp / "b.json", NOT_UTF8)),
                            "--target", "v0"], "InvalidBettingGame", "b.json"),
        (lambda tmp, game: ["betting-sim", str(_write_bytes(tmp / "b.json", TOO_DEEP)),
                            "--target", "v0"], "InvalidBettingGame", "b.json"),
        (lambda tmp, game: ["audit", game, "--curves", str(
            _write_bytes(tmp / "c" / "HH1.csv", b"0,0\n\xff,1\n").parent)],
         "InvalidCurveFile", "HH1.csv"),
        (lambda tmp, game: ["audit", game, "--curves", str(
            _write_bytes(tmp / "c" / "HH1.csv", b"0,0\n1,2,3\n").parent)],
         "InvalidCurveFile", "HH1.csv: line 2: "),
        (lambda tmp, game: ["audit", game, "--curves", str(
            _write_bytes(tmp / "c" / "HH1.csv", b"\n").parent)],
         "InvalidCurveFile", "HH1.csv"),
        (lambda tmp, game: ["audit", game, "--curves", str(_write_bytes(
            tmp / "c" / "HH1.csv", b"-2/1,-1/1\n-3/2,-3/2\n-1/1,-2/1\n").parent)],
         "InvalidCurveFile", "HH1.csv: rows are not a canonical frontier: "),
        (lambda tmp, game: ["audit", game, "--curves", str(tmp / "missing")],
         "FileNotFoundError", "missing"),
        (lambda tmp, game: ["audit", game, "--curves", game],
         "NotADirectoryError", "heating.json"),
    ],
    ids=["validate-json", "validate-utf8", "validate-deep", "validate-long-int",
         "betting-json",
         "betting-utf8", "betting-deep", "audit-csv-utf8", "audit-csv-row",
         "audit-csv-empty", "audit-csv-not-canonical", "audit-missing-dir",
         "audit-file-as-dir"],
)
def test_unreadable_input_is_an_input_error_naming_its_file(
    argv, error, named, heating_path, tmp_path, capsys
):
    code, out, err = run(capsys, *argv(tmp_path, heating_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert named in err


# ---------------------------------------------------------------------------
# audit


def test_audit_of_solver_output_passes(heating_path, tmp_path, capsys):
    out_dir = tmp_path / "curves"
    assert (
        run(
            capsys,
            "solve-determined",
            heating_path,
            "--out-dir",
            str(out_dir),
        )[0]
        == 0
    )
    code, out, _ = run(
        capsys, "audit", heating_path, "--curves", str(out_dir)
    )
    assert code == 0 and out.startswith("PASS")


def test_audit_catches_corruption(heating_path, tmp_path, capsys):
    out_dir = tmp_path / "curves"
    run(capsys, "solve-determined", heating_path, "--out-dir", str(out_dir))
    (out_dir / "CC1.csv").write_text("-1/1,-1/1\n0/1,-2/1\n")
    code, out, _ = run(
        capsys, "audit", heating_path, "--curves", str(out_dir)
    )
    assert code == 1 and out.startswith("FAIL") and "CC1" in out


def test_audit_of_an_empty_curve_directory_fails(heating_path, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run(capsys, "audit", heating_path, "--curves", str(empty))
    assert code == 1 and out.startswith("FAIL") and "missing curve" in out


def test_audit_rejects_an_invalid_game(tmp_path, capsys):
    g, pts = three_successor_game()
    path = tmp_path / "three.json"
    save_game(g, path)
    out_dir = tmp_path / "curves"
    out_dir.mkdir()
    for sid, verts in pts.items():
        (out_dir / f"{sid}.csv").write_text(frontier_to_csv(Frontier(tuple(verts))))
    code, out, _ = run(capsys, "audit", str(path), "--curves", str(out_dir))
    assert code == 1
    assert out == "FAIL (1 checks)\n  invalid game: a: more than 2 successors (3)\n"


def test_audit_passes_a_valid_family_whose_slopes_are_too_long_to_print(
    tmp_path, capsys
):
    # 3000-digit rewards: the edge slope at p has about 6000 digits, past the
    # interpreter's int-to-text limit, so no passing check may format it
    u = F(10**2999 + 1, 10**3000 - 3)
    v = F(10**2999 + 7, 10**3000 - 11)
    a, b = (-v, -u), (-u, -2 * v)
    g = make_game(
        "p",
        [
            ("p", "p1", (0, 0), [("a", 1), ("b", 1)]),
            ("a", "p2", a, [("t", 1)]),
            ("b", "p2", b, [("t", 1)]),
            ("t", "terminal", (0, 0), [("t", 1)]),
        ],
    )
    path = tmp_path / "long.json"
    save_game(g, path)
    out_dir = tmp_path / "curves"
    out_dir.mkdir()
    curves = {"p": (a, b), "a": (a,), "b": (b,), "t": ((F(0), F(0)),)}
    for sid, verts in curves.items():
        (out_dir / f"{sid}.csv").write_text(frontier_to_csv(Frontier(verts)))
    code, out, err = run(capsys, "audit", str(path), "--curves", str(out_dir))
    assert (code, err) == (0, "") and out.startswith("PASS")


def test_audit_fails_a_mismatch_whose_curves_are_too_long_to_print(
    tmp_path, capsys
):
    # Each r is a ratio of two random 2000-digit integers.  The curves of a
    # and b cross, so the minimum recomputed at p has a numerator of about
    # 26,000 bits, past the interpreter's int-to-text limit; p's file holds
    # a's curve, and the mismatch must still be reported.
    rng = random.Random(7)
    r1, r2, r3, r4 = (
        F(rng.randrange(10**1999, 10**2000), rng.randrange(10**1999, 10**2000)) / 100
        for _ in range(4)
    )
    rewards = {
        "a1": (F(0), 4 + r1),
        "a2": (4 + r2, F(0)),
        "b1": (F(0), 3 + r3),
        "b2": (5 + r4, F(0)),
    }
    g = make_game(
        "p",
        [
            ("p", "p2", (0, 0), [("a", 1), ("b", 1)]),
            ("a", "p1", (0, 0), [("a1", 1), ("a2", 1)]),
            ("b", "p1", (0, 0), [("b1", 1), ("b2", 1)]),
            *((sid, "p2", z, [("t", 1)]) for sid, z in rewards.items()),
            ("t", "terminal", (0, 0), [("t", 1)]),
        ],
    )
    path = tmp_path / "long.json"
    save_game(g, path)
    curves = {sid: (z,) for sid, z in rewards.items()}
    curves.update(
        a=(rewards["a1"], rewards["a2"]),
        b=(rewards["b1"], rewards["b2"]),
        t=((F(0), F(0)),),
        p=(rewards["a1"], rewards["a2"]),
    )
    out_dir = tmp_path / "curves"
    out_dir.mkdir()
    for sid, verts in curves.items():
        (out_dir / f"{sid}.csv").write_text(frontier_to_csv(Frontier(verts)))
    code, out, err = run(capsys, "audit", str(path), "--curves", str(out_dir))
    assert (code, err) == (1, "") and out.startswith("FAIL")
    assert "[p] relation mismatch" in out


# ---------------------------------------------------------------------------
# betting-sim


@pytest.fixture()
def betting_path(tmp_path):
    bg, targets = random_betting_game(random.Random(3))
    p = tmp_path / "bet.json"
    save_betting(bg, p)
    return str(p), ",".join(sorted(targets))


def test_betting_sim_writes_traces(betting_path, tmp_path, capsys):
    path, targets = betting_path
    out_dir = tmp_path / "traces"
    code, out, _ = run(
        capsys,
        "betting-sim",
        path,
        "--target",
        targets,
        "--adam",
        "random",
        "--runs",
        "3",
        "--seed",
        "9",
        "--out-dir",
        str(out_dir),
    )
    assert code == 0
    assert "all 3 runs reached the target set" in out
    for i in range(3):
        lines = (out_dir / f"trace_{i}.csv").read_text().splitlines()
        assert lines[0] == "step,vertex,credit,potential"
    assert "reason=" in out and "end=" in out


def test_betting_sim_deterministic_given_seed(betting_path, capsys):
    path, targets = betting_path
    argv = [
        "betting-sim",
        path,
        "--target",
        targets,
        "--adam",
        "mixed",
        "--runs",
        "5",
        "--seed",
        "4",
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


def test_betting_sim_rejects_runs_below_one(betting_path, tmp_path, capsys):
    path, targets = betting_path
    out_dir = tmp_path / "traces"
    code, out, err = run(
        capsys,
        "betting-sim",
        path,
        "--target",
        targets,
        "--runs",
        "-2",
        "--out-dir",
        str(out_dir),
    )
    assert code == 2 and out == ""
    assert err == "error: InvalidArgument: --runs must be at least 1, got -2\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("target", ["", ","])
def test_betting_sim_rejects_an_empty_target_set(betting_path, capsys, target):
    path, _ = betting_path
    code, out, err = run(capsys, "betting-sim", path, "--target", target)
    assert code == 2 and out == ""
    assert err == "error: InvalidArgument: --target names no vertex\n"


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_betting_sim_rejects_a_bound_of_zero_or_below(
    betting_path, tmp_path, capsys, bound
):
    path, targets = betting_path
    out_dir = tmp_path / "traces"
    code, out, err = run(
        capsys, "betting-sim", path, "--target", targets, "--bound", bound,
        "--out-dir", str(out_dir),
    )
    assert code == 2 and "run " not in out
    assert err == f"error: InvalidArgument: credit bound must be positive, got {bound}\n"
    assert not out_dir.exists()


def test_betting_sim_rejects_unknown_target(betting_path, capsys):
    path, _ = betting_path
    code, _, err = run(
        capsys, "betting-sim", path, "--target", "nosuchvertex"
    )
    assert code == 2


def test_betting_sim_reports_bound_escape(tmp_path, capsys):
    from paretogames import BettingConfig, BettingGame, BetVertex

    bg = BettingGame(
        (
            BetVertex("v0", "eve", (("v1", F(3, 5)), ("v0", F(2, 5)))),
            BetVertex("v1", "eve", (("v1", F(1, 4)), ("v0", F(3, 4)))),
        ),
        BettingConfig("v1", F(1, 2)),
    )
    p = tmp_path / "escape.json"
    save_betting(bg, p)
    code, _, err = run(
        capsys,
        "betting-sim",
        str(p),
        "--target",
        "v0",
        "--adam",
        "random",
        "--seed",
        "71333",
    )
    assert code == 3 and err.startswith("error: StepBoundExceeded")


def test_betting_sim_reports_exhausted_credit(tmp_path, capsys):
    bg, targets = random_betting_game(random.Random(7), F(1, 2))
    p = tmp_path / "drained.json"
    save_betting(bg, p)
    code, _, err = run(
        capsys, "betting-sim", str(p), "--target", ",".join(sorted(targets)),
        "--adam", "starve", "--bound", "100",
    )
    assert code == 3
    assert err.startswith("error: StepBoundExceeded") and "credit exhausted" in err


def test_broken_invariant_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import paretogames.betting as betting
    from paretogames import BettingConfig, BettingGame, BetVertex, InvariantBroken

    def broken(*args):
        raise InvariantBroken("deliberately broken")

    monkeypatch.setattr(betting, "_eve_pick", broken)
    half = F(1, 2)
    bg = BettingGame(
        (
            BetVertex("v", "eve", (("t", half), ("u", half))),
            BetVertex("u", "eve", (("t", half), ("v", half))),
            BetVertex("t", "adam", (("v", half), ("u", half))),
        ),
        BettingConfig("v", F(1)),
    )
    p = tmp_path / "arena.json"
    save_betting(bg, p)
    code, _, err = run(
        capsys, "betting-sim", str(p), "--target", "t", "--adam", "equal"
    )
    assert code == 4
    assert err == "error: internal: InvariantBroken: deliberately broken\n"


def test_unexpected_exception_is_an_internal_error(heating_path, capsys, monkeypatch):
    import paretogames.cli as cli

    def broken(args):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    code, out, err = run(capsys, "validate", heating_path)
    assert code == 4 and out == ""
    assert err == "error: internal: RuntimeError: deliberately broken\n"


@pytest.mark.parametrize("kind", [KeyError, ValueError, TypeError])
def test_key_error_in_a_solver_is_an_internal_error(
    heating_path, capsys, monkeypatch, kind
):
    """A builtin error raised inside a solver is a bug, never bad input."""
    def broken(response):
        raise kind("deliberately broken")

    monkeypatch.setattr(paretogames.determined, "_pareto_curves", broken)
    code, out, err = run(capsys, "solve-determined", heating_path)
    assert code == 4 and out == ""
    message = "'deliberately broken'" if kind is KeyError else "deliberately broken"
    assert err == f"error: internal: {kind.__name__}: {message}\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no limit on int-to-text conversion",
)
@pytest.mark.parametrize(
    "argv",
    [lambda game, tmp: ["solve-determined", game],
     lambda game, tmp: ["solve-vi", game, "--out-dir", str(tmp / "curves")]],
    ids=["solve-determined", "solve-vi"],
)
def test_a_value_past_the_digit_limit_is_a_limit_reached(argv, tmp_path, capsys):
    """Each reward has as many digits as the loader reads, but their sum has
    one more than the interpreter writes out: exit 3, neither bad input nor
    a bug."""
    big = "9" * sys.get_int_max_str_digits()
    game = tmp_path / "big.json"
    save_game(make_game("a", [
        ("a", "p1", (big, 0), [("b", 1)]),
        ("b", "p1", (big, 0), [("t", 1)]),
        ("t", "terminal", (0, 0), [("t", 1)]),
    ]), game)
    code, _, err = run(capsys, *argv(str(game), tmp_path))
    assert code == 3
    assert err.startswith("error: DigitLimitExceeded: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# README command table


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


def test_readme_command_table_matches_the_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `paretogames (\S+)([^`]*)` \|", readme, re.M)
    subcommands = re.search(r"\{([\w,-]+)\}", _help(capsys)).group(1)
    assert sorted(sub for sub, _ in rows) == sorted(subcommands.split(","))
    for sub, usage in rows:
        flags = set(re.findall(r"--[\w-]+", _help(capsys, sub)))
        for flag in re.findall(r"--[\w-]+", usage):
            assert flag in flags, (sub, flag)


def test_no_output_bypasses_sys_stdout(
    fig3_path, heating_path, betting_path, tmp_path, capfd
):
    path, targets = betting_path
    commands = [
        (["solve-vi", fig3_path, "--out-dir", str(tmp_path / "vi")], "converged="),
        (["solve-determined", heating_path], "determined: "),
        (["betting-sim", path, "--target", targets, "--runs", "2"], "all 2 runs"),
    ]
    for argv, last in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert code == 0
        assert buffer.getvalue().splitlines()[-1].startswith(last)
        assert capfd.readouterr().out == ""
