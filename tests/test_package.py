"""The package's exported names."""
from __future__ import annotations

from types import ModuleType

import paretogames

EXPORTED = [
    "ADAM_FACTORIES", "AdamCheated", "AttractorResult", "AuditFinding",
    "AuditReport", "BetKind", "BetVertex", "BettingConfig", "BettingGame",
    "CurveMap", "DigitLimitExceeded", "EqualSplitAdam", "Frontier",
    "FundTargetAdam", "Game", "GameSolverError", "HypothesisViolated",
    "InvalidArgument", "InvalidBettingGame", "InvalidCurveFile", "InvalidGame",
    "InvariantBroken", "IterationResult", "Kind", "MINUS_INFINITY", "MixedAdam",
    "NotStopping", "RandomAdam", "ScriptedAdam", "StarveAdam", "StateRecord",
    "StepBoundExceeded", "StoppingReport", "Trace", "TraceStep", "UnknownState",
    "ValidationReport", "achievable_within", "as_fraction", "as_point",
    "attractor", "audit_chance", "audit_frontier", "audit_game", "audit_p1",
    "audit_p2", "bellman_step", "betting_from_json", "betting_to_json",
    "canonicalize", "certified_curves", "check_determinacy", "check_fixpoint",
    "check_stopping", "contains", "discount_transform", "dwc_conv_union",
    "enumerate_md_strategies", "evaluate", "eve_move", "extremal_points",
    "fixture_game", "frontier_from_csv", "frontier_to_csv", "frontier_to_svg",
    "game_from_json", "game_to_json", "induce_mdp", "initial_curves",
    "intersect_min", "iterates", "load_betting", "load_game", "make_game",
    "mdp_pareto_curve", "mdp_pareto_curves", "normalize", "optimal_policy",
    "policy_evaluate", "potential", "require_stopping", "require_valid",
    "save_betting", "save_game", "simulate", "slope_at", "solve_determined",
    "step_bound", "support", "tail_bound", "trace_to_csv", "translate",
    "validate_betting", "validate_game", "value_iterate", "weighted_sum",
]


def test_all_exports_the_interface_and_no_module():
    assert paretogames.__all__ == EXPORTED
    for name in paretogames.__all__:
        assert not isinstance(getattr(paretogames, name), ModuleType), name


def test_import_star_binds_no_submodule():
    namespace: dict = {}
    exec("from paretogames import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == EXPORTED
    assert not any(isinstance(v, ModuleType) for v in namespace.values())
