"""Exception hierarchy for the solver.

Every error raised for bad input or an unmet precondition derives from
:class:`GameSolverError`, so callers can catch one type at the boundary.
The leaf classes mirror the distinct failure modes of the public operations:
malformed geometry input, malformed game input, bad argument values,
preconditions on solver calls, protocol violations during betting-game
simulation, and broken internal invariants.  A builtin ``TypeError`` or
``ValueError`` means a wrong type passed to ``as_fraction``/``as_point`` or
a non-canonical ``Frontier(...)``: from the command line, a bug.
"""

from __future__ import annotations


class GameSolverError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Frontier geometry


class EmptyInput(GameSolverError):
    """A frontier was requested from an empty point list."""


class OutOfDomain(GameSolverError):
    """A slope query was made right of a frontier's last vertex."""


class BadDirection(GameSolverError):
    """A support direction must be componentwise >= 0 and not the zero vector."""


class WeightsInvalid(GameSolverError):
    """Weighted-sum terms must have 1-2 positive weights summing to one."""


class InvalidCurveFile(GameSolverError):
    """A curve CSV row is not two comma-separated rational coordinates, or
    the rows are not a canonical frontier's vertices in order."""


class DigitLimitExceeded(GameSolverError, ValueError):
    """An exact value has more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``), so it cannot be written out in a form
    that reads back.  Also a ``ValueError``, which it was raised as before."""


# ---------------------------------------------------------------------------
# Game structure


class InvalidGame(GameSolverError):
    """A game failed structural validation; the report is attached."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


class UnknownState(GameSolverError):
    """A state id was referenced that the game does not define."""


class IncompleteCurveMap(GameSolverError):
    """A curve map is missing entries for some game states."""


class DeltaOutOfRange(GameSolverError):
    """A discount factor must lie strictly between 0 and 1."""


# ---------------------------------------------------------------------------
# Solving preconditions


class InvalidArgument(GameSolverError, ValueError):
    """An argument value that cannot be used: an unreadable rational, a
    malformed point, a nonpositive credit bound or run count, a negative
    iteration cap.  Also a ``ValueError``, which it was raised as before."""


class NonPositiveEpsilon(GameSolverError):
    """A convergence tolerance must be strictly positive."""


class InvalidStrategy(GameSolverError):
    """A strategy/policy mapping does not fit the game it is applied to."""


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
