"""Exception hierarchy for the solver.

Every error raised for bad input or an unmet precondition derives from
:class:`GameSolverError`, so callers can catch one type at the boundary.
An argument value that cannot be used raises :class:`InvalidArgument`,
whichever function it is passed to.  Each other leaf class names a distinct
input file, precondition or protocol fault: a malformed game, curve file or
betting arena, an unknown state, a non-stopping game, an opponent breaking
the betting protocol, an internal limit, or a broken internal invariant.  A
builtin ``TypeError`` or ``ValueError`` means a wrong type passed to
``as_fraction``/``as_point`` or a non-canonical ``Frontier(...)``: from the
command line, a bug.
"""

from __future__ import annotations


class GameSolverError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Arguments and curve files


class InvalidArgument(GameSolverError, ValueError):
    """An argument value that cannot be used, whatever function it is passed
    to: an unreadable rational or point; an epsilon, delta, direction,
    weight list, iteration cap, credit bound or run count out of range; an
    empty point list; a slope query right of a curve; a curve map or choice
    map that does not fit its game.  Also a ``ValueError``."""


class InvalidCurveFile(GameSolverError):
    """A curve CSV row is not two comma-separated rational coordinates, or
    the rows are not a canonical frontier's vertices in order."""


class DigitLimitExceeded(GameSolverError, ValueError):
    """An exact value has more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``), so it cannot be written out in a form
    that reads back.  Also a ``ValueError``, which it was raised as before."""


# ---------------------------------------------------------------------------
# Games


class InvalidGame(GameSolverError):
    """A game failed structural validation; the report is attached."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


class UnknownState(GameSolverError):
    """A state id was referenced that the game does not define."""


class NotStopping(GameSolverError):
    """The operation requires a stopping game/decision process."""

    def __init__(self, message: str, witness: tuple[str, ...] = ()):
        super().__init__(message)
        self.witness = witness


class NotStoppingUnderPolicy(GameSolverError):
    """Policy evaluation hit a policy whose chain never reaches a terminal."""


# ---------------------------------------------------------------------------
# Betting games


class InvalidBettingGame(GameSolverError):
    """A betting arena failed structural validation."""


class HypothesisViolated(GameSolverError):
    """A betting-game operation requires the bettor to win from everywhere."""


class NotWinningVertex(GameSolverError):
    """A bettor move was requested at a vertex outside the winning region."""


class InvalidValuation(GameSolverError):
    """An opponent valuation broke the exact budget-split constraint."""


class AdamCheated(InvalidValuation):
    """Raised by the simulator when the opponent violates the move protocol."""


class StepBoundExceeded(GameSolverError):
    """A simulation ran past its proven step bound (indicates a logic bug)."""


# ---------------------------------------------------------------------------
# Audit


class RelationMismatch(GameSolverError):
    """A parent curve is not the stated operation of its successor curves."""


# ---------------------------------------------------------------------------
# Internal faults


class InvariantBroken(GameSolverError):
    """A condition the code guarantees by construction did not hold: a bug
    in this package, not bad input.  Raised instead of ``assert`` so the
    check survives ``python -O``."""
