"""Exact Pareto-curve toolkit for two-objective total-reward stochastic games.

The package computes, for every state of a turn-based stochastic game with
two reward dimensions, the frontier of point vectors the maximizing player
can ensure: exact curves of determined stopping games, certified from the
minimizer strategies that scalarized strategy iteration generates, with
memoryless-strategy enumeration as fallback; anytime approximations by value
iteration with sound residual bounds; audits of each state's curve
equation and of the slope laws those curves obey; a reduction from
discounted to total reward; and a simulation harness for the credit-growth
strategy in inverse betting games.

Everything is exact: coordinates, probabilities, and rewards are
``fractions.Fraction`` throughout; no float enters any computation.  Floats
appear only in rendered SVG coordinates and as ``MINUS_INFINITY``, the
sentinel right slope of the vertical ray that ``slope_at`` returns at a
curve's last vertex and the slope audits compare against.
"""

from types import ModuleType as _Module

from .errors import (
    AdamCheated,
    DigitLimitExceeded,
    GameSolverError,
    HypothesisViolated,
    InvalidArgument,
    InvalidBettingGame,
    InvalidCurveFile,
    InvalidGame,
    InvariantBroken,
    NotStopping,
    StepBoundExceeded,
    UnknownState,
)
from .frontier import (
    MINUS_INFINITY,
    Frontier,
    as_fraction,
    as_point,
    canonicalize,
    contains,
    dwc_conv_union,
    evaluate,
    extremal_points,
    frontier_from_csv,
    frontier_to_csv,
    frontier_to_svg,
    intersect_min,
    slope_at,
    support,
    translate,
    weighted_sum,
)
from .games import (
    Game,
    Kind,
    StateRecord,
    StoppingReport,
    ValidationReport,
    check_stopping,
    discount_transform,
    fixture_game,
    game_from_json,
    game_to_json,
    load_game,
    make_game,
    normalize,
    require_stopping,
    require_valid,
    save_game,
    validate_game,
)
from .bellman import (
    CurveMap,
    IterationResult,
    achievable_within,
    bellman_step,
    check_fixpoint,
    initial_curves,
    iterates,
    tail_bound,
    value_iterate,
)
from .mdp import (
    induce_mdp,
    mdp_pareto_curve,
    mdp_pareto_curves,
    optimal_policy,
    policy_evaluate,
)
from .determined import (
    certified_curves,
    check_determinacy,
    enumerate_md_strategies,
    solve_determined,
)
from .betting import (
    ADAM_FACTORIES,
    AttractorResult,
    BetKind,
    BetVertex,
    BettingConfig,
    BettingGame,
    EqualSplitAdam,
    FundTargetAdam,
    MixedAdam,
    RandomAdam,
    ScriptedAdam,
    StarveAdam,
    Trace,
    TraceStep,
    attractor,
    betting_from_json,
    betting_to_json,
    eve_move,
    load_betting,
    potential,
    save_betting,
    simulate,
    step_bound,
    trace_to_csv,
    validate_betting,
)
from .audit import (
    AuditFinding,
    AuditReport,
    audit_chance,
    audit_frontier,
    audit_game,
    audit_p1,
    audit_p2,
)

__version__ = "0.1.0"

# every public name but the submodules that the imports above bind
__all__ = sorted(
    n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _Module)
)
