"""The four benchmark workloads.

A workload writes its generated inputs during set-up, computes untimed
references, and hands the harness a *pass*: a fixed list of units, each a
CLI call or one betting play.  The harness times only ``Unit.run`` and
checks each outcome with ``Unit.check`` outside the timed region.

The solve paths go through ``paretogames.cli.main`` in-process, looked up
at call time so a traced run sees its wrapper; betting goes through the
library's ``simulate``.  No unit passes ``--threads``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import generators

EPSILON = "1/1000"
FIG3_SWEEPS = 80
WIDE_STATES = 800
WIDE_SWEEPS = 8
DETERMINED_GAMES = 6
DETERMINED_P2 = 4
# Seed of the base instances that every run copies (``generators.seeded_copy``).
BASE_SEED = 0
BETTING_ARENAS = 100
BETTING_STARTS = 10
BETTING_BOUND = Fraction(10**9)
# A play still running after this many steps counts as failed instead of
# running on towards the simulator's own, astronomically large step bound.
BETTING_STEP_CAP = 10**5
ADVERSARIES = ("equal", "fund", "mixed", "random", "starve")

# Digests of each determined-batch base game's exact curves and verdict.
PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    solve: bool = True  # counted in solve_s_p50 / solve_s_p99


@dataclass
class CliOutcome:
    rc: int
    stdout: str


def call_cli(argv: list[str]) -> CliOutcome:
    import paretogames.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = paretogames.cli.main(argv)
    return CliOutcome(rc, out.getvalue())


def write_game(path: Path, data: dict) -> None:
    path.write_text(generators.to_json_text(data))


def fixture_json(name: str) -> dict:
    from importlib.resources import files

    return json.loads(files("paretogames.fixtures").joinpath(f"{name}.json").read_text())


class Workload:
    """Base: subclasses fill ``units`` in ``setup``; VI workloads also
    record the certified residual and sweep count of every solve."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.units: list[Unit] = []
        self.residual_bits: set[int] = set()
        self.sweeps: set[int] = set()

    def setup(self, pg) -> None:
        raise NotImplementedError

    def reference(self, pg) -> None:
        """Untimed references used by the checks."""


class ValueIteration(Workload):
    max_iters: int

    def _solve_unit(self, pg, name: str, game_path: Path, exact=None) -> Unit:
        out_dir = self.workdir / f"out-{name}"
        argv = ["solve-vi", str(game_path), "--epsilon", EPSILON,
                "--max-iters", str(self.max_iters), "--out-dir", str(out_dir)]
        game = pg.load_game(game_path)

        def check(outcome: CliOutcome) -> list[str]:
            run, curves, problems = checks.check_vi_run(
                pg, game, out_dir, outcome.rc, Fraction(EPSILON), self.max_iters)
            if problems:
                return problems
            if run["residual"] > 0:
                self.residual_bits.add(checks.ceil_log2(run["residual"]))
            self.sweeps.add(run["iterations"])
            if exact is not None:
                problems += checks.check_within_residual(pg, curves, exact(), run["residual"])
            if len(self.residual_bits) > 1 or len(self.sweeps) > 1:
                problems.append("repeated solves disagree on residual or sweeps")
            return problems

        return Unit(name, lambda: call_cli(argv), check)


class ViFig3(ValueIteration):
    max_iters = FIG3_SWEEPS

    def setup(self, pg) -> None:
        path = self.workdir / "fig3.json"
        write_game(path, fixture_json("fig3"))
        self.units = [self._solve_unit(pg, "fig3", path, exact=lambda: self.exact)]
        self.game_path = path

    def reference(self, pg) -> None:
        self.exact = pg.solve_determined(pg.load_game(self.game_path))


class ViWide(ValueIteration):
    max_iters = WIDE_SWEEPS

    def setup(self, pg) -> None:
        path = self.workdir / "wide.json"
        game, _ = generators.seeded_copy(generators.wide_game(BASE_SEED, WIDE_STATES), self.seed)
        write_game(path, game)
        self.units = [self._solve_unit(pg, "wide", path)]


class DeterminedBatch(Workload):
    def setup(self, pg) -> None:
        games = {"heating": fixture_json("heating")}
        for i in range(DETERMINED_GAMES):
            games[f"g{i}"] = generators.determined_game(BASE_SEED, i, DETERMINED_P2)
        self.units = []
        self.verdicts: dict[str, bool] = {}
        for name, base in games.items():
            path = self.workdir / f"{name}.json"
            game, transform = generators.seeded_copy(base, self.seed)
            write_game(path, game)
            self.units += self._game_units(pg, name, path, transform)

    def _game_units(self, pg, name: str, path: Path, transform: dict) -> list[Unit]:
        out_dir = self.workdir / f"curves-{name}"
        game = pg.load_game(path)

        def check_solve(outcome: CliOutcome) -> list[str]:
            verdict, problems = checks.determined_verdict(outcome.rc, outcome.stdout)
            if problems:
                return problems
            files = {sid: f"{sid}.csv" for sid in game.state_ids}
            curves, problems = checks.load_curves(pg, out_dir, files)
            if problems:
                return problems
            if pg.check_fixpoint(game, curves) != verdict:
                problems.append(f"{name}: written curves contradict verdict {verdict}")
            base = checks.unmap_curves(pg, curves, transform)
            digest = checks.curves_digest(base, f"determined={verdict}")
            if digest != PINNED[name]:
                problems.append(f"{name}: digest {digest} != pinned {PINNED[name]}")
            self.verdicts[name] = verdict
            return problems

        def check_audit(outcome: CliOutcome) -> list[str]:
            if outcome.rc not in (0, 1):
                return [f"audit exit code {outcome.rc}"]
            if name not in self.verdicts:
                return [f"{name}: audit without a checked solve"]
            if (outcome.rc == 0) != self.verdicts[name]:
                return [f"{name}: audit verdict {outcome.rc == 0} != determinacy "
                        f"verdict {self.verdicts[name]}"]
            return []

        solve = ["solve-determined", str(path), "--check-determinacy", "--out-dir", str(out_dir)]
        audit = ["audit", str(path), "--curves", str(out_dir)]
        return [
            Unit(f"{name}:solve", lambda: call_cli(solve), check_solve),
            Unit(f"{name}:audit", lambda: call_cli(audit), check_audit, solve=False),
        ]


class BettingSim(Workload):
    def setup(self, pg) -> None:
        self.units = []
        self.arenas = []
        for i in range(BETTING_ARENAS):
            base = generators.betting_arena(BASE_SEED, i)
            arena, transform = generators.seeded_copy(base, self.seed)
            prefix = transform["prefix"]
            starts = generators.betting_starts(BASE_SEED, i, len(base["states"]), BETTING_STARTS)
            for k, start in enumerate(starts):
                bg = pg.betting_from_json(
                    {**arena, "initial": {**start, "vertex": prefix + start["vertex"]}})
                self.arenas.append((bg, prefix + "v0"))
                for adam in ADVERSARIES:
                    adam_seed = self.seed * 1000 + k  # random and mixed vary with the seed
                    self.units.append(self._play_unit(pg, bg, prefix + "v0", adam, adam_seed))

    def _play_unit(self, pg, bg, target: str, adam: str, adam_seed: int) -> Unit:
        targets = frozenset({target})
        factory = pg.ADAM_FACTORIES[adam]

        def run():
            import paretogames

            return paretogames.simulate(
                bg, targets, BETTING_BOUND, factory(adam_seed), max_steps=BETTING_STEP_CAP)

        def check(trace) -> list[str]:
            return checks.check_betting_trace(
                pg, trace, bg, targets, BETTING_BOUND, self.attractors[id(bg)])

        return Unit(f"play:{adam}", run, check)

    def reference(self, pg) -> None:
        self.attractors = {id(bg): pg.attractor(bg, {target}) for bg, target in self.arenas}


WORKLOADS = {
    "vi-fig3": ViFig3,
    "vi-wide": ViWide,
    "determined-batch": DeterminedBatch,
    "betting-sim": BettingSim,
}
