"""Curve-equation and slope audits for curve families.

``audit_game`` checks each state, terminals included, with the solver's own
curve operator (``bellman._state_update``): a state's curve must be the
update of its successors' curves.  Where that holds at a state with two
successors, the slope laws of its kind run on its curve before the reward
shift; ``audit_p1``, ``audit_p2`` and ``audit_chance`` check one relation
alone, its equation and then its laws.  The laws are slope fingerprints:

* a curve is a strictly concave, strictly decreasing polyline;
* a maximizer parent's slopes are sandwiched between its successors' slopes,
  and every parent vertex is a successor vertex;
* a minimizer parent follows the lower successor's slopes where the
  successors differ, and combines them (max of left slopes, min of right
  slopes) where they touch;
* a chance parent's vertices decompose uniquely into the weighted sum of one
  vertex per successor, recovered by maximizing a dot product, and the
  parent's left slope is the minimum of the decomposition's left slopes.

The auditors check these exactly and report violations; they are valid both
for exact solution families and for consecutive iterates of the solver
(which are related by exactly one operator application).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .bellman import _state_update
from .errors import InvariantBroken
from .frontier import (
    MINUS_INFINITY,
    Frontier,
    PointsLike,
    Point,
    as_fraction,
    dwc_conv_union,
    evaluate,
    intersect_min,
    slope_at,
    translate,
    weighted_sum,
    _points_text,
    _text,
    _vertices_of,
)
from .games import Game, Kind, validate_game


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    """z-component of (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class AuditFinding:
    """One failed check: where it failed, which check, and the evidence."""

    where: str
    check: str
    detail: str

    def __str__(self) -> str:
        prefix = f"[{self.where}] " if self.where else ""
        return f"{prefix}{self.check}: {self.detail}"


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an audit: ok iff no finding; checks_run counts assertions."""

    ok: bool
    findings: tuple[AuditFinding, ...] = ()
    checks_run: int = 0

    def to_text(self) -> str:
        head = f"{'PASS' if self.ok else 'FAIL'} ({self.checks_run} checks)"
        if not self.findings:
            return head
        return head + "\n" + "\n".join(f"  {f}" for f in self.findings)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "findings": [
                {"where": f.where, "check": f.check, "detail": f.detail}
                for f in self.findings
            ],
        }


class _Collector:
    """Accumulates findings and counts every executed check; a check's
    detail is a callable, formatted only when the check fails."""

    def __init__(self) -> None:
        self.where = ""
        self.findings: list[AuditFinding] = []
        self.checks = 0

    def check(self, ok: bool, name: str, detail: Callable[[], str]) -> bool:
        self.checks += 1
        if not ok:
            self.findings.append(AuditFinding(self.where, name, detail()))
        return ok

    def report(self) -> AuditReport:
        return AuditReport(
            ok=not self.findings,
            findings=tuple(self.findings),
            checks_run=self.checks,
        )


def _mismatch(detail: str) -> AuditReport:
    """The report of a parent that is not its relation's output: one
    "relation mismatch" finding, not counted as a check."""
    finding = AuditFinding("", "relation mismatch", detail)
    return AuditReport(ok=False, findings=(finding,))


# ---------------------------------------------------------------------------
# Single-curve audit


def audit_frontier(f: PointsLike) -> AuditReport:
    """Check the polyline shape laws on a frontier or a raw vertex list.

    Raw lists are audited in the given order without canonicalization, so
    shape violations (non-monotone coordinates, convex dents, collinear
    vertices) are reported rather than silently repaired.
    """
    col = _Collector()
    verts = _vertices_of(f)
    col.check(bool(verts), "empty", lambda: "a frontier needs at least one vertex")
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        xy = (x0, y0, x1, y1)
        col.check(
            x0 < x1,
            "x not increasing",
            lambda: "x {0} then {2} (with y {1}, {3})".format(*map(_text, xy)),
        )
        col.check(
            y0 > y1,
            "y not decreasing",
            lambda: "y {1} then {3} (at x {0}, {2})".format(*map(_text, xy)),
        )
    for abc in zip(verts, verts[1:], verts[2:]):
        cr = _cross(*abc)
        col.check(
            cr <= 0,
            "not concave",
            lambda: f"{_points_text(*abc)} turn left (cross {_text(cr)})",
        )
        col.check(
            cr < 0,
            "slope not strictly decreasing",
            lambda: f"{_points_text(*abc)} are collinear or convex (cross {_text(cr)})",
        )
    return col.report()


# ---------------------------------------------------------------------------
# Maximizer relation: parent = hull of the union of the successors


def audit_p1(parent: Frontier, succ1: Frontier, succ2: Frontier) -> AuditReport:
    """Slope laws of the union-hull relation (parent before the reward shift).

    Unless parent is exactly the downward-closed convex hull of the two
    successor sets, reports only a relation mismatch.
    """
    expected = dwc_conv_union(succ1, succ2)
    if parent != expected:
        return _mismatch(
            f"parent {parent} is not the union hull {expected} of "
            f"{succ1} and {succ2}"
        )
    col = _Collector()
    _p1_laws(col, parent, succ1, succ2)
    return col.report()


def _p1_laws(
    col: _Collector, parent: Frontier, succ1: Frontier, succ2: Frontier
) -> None:
    """The laws of ``audit_p1``, on a parent known to be its relation's output."""
    succ_vertices = set(succ1.vertices) | set(succ2.vertices)
    for x, y in parent.vertices:
        col.check(
            (x, y) in succ_vertices,
            "parent vertex not a successor vertex",
            lambda: f"({x},{y}) belongs to neither successor",
        )
        if x > succ1.x_last or x > succ2.x_last:
            continue  # a successor slope is undefined at this x
        l0, r0 = slope_at(parent, x)
        l1, r1 = slope_at(succ1, x)
        l2, r2 = slope_at(succ2, x)
        col.check(
            min(l1, l2) <= l0 <= max(l1, l2),
            "lslope not sandwiched",
            lambda: f"at x={x}: parent {l0} outside [{min(l1, l2)}, {max(l1, l2)}]",
        )
        col.check(
            min(r1, r2) <= r0 <= max(r1, r2),
            "rslope not sandwiched",
            lambda: f"at x={x}: parent {r0} outside [{min(r1, r2)}, {max(r1, r2)}]",
        )


# ---------------------------------------------------------------------------
# Minimizer relation: parent = pointwise minimum


def audit_p2(parent: Frontier, succ1: Frontier, succ2: Frontier) -> AuditReport:
    """Slope laws of the pointwise-min relation (parent before the reward shift).

    Unless parent is exactly the pointwise minimum of the two successors,
    reports only a relation mismatch.  At each parent vertex: where one
    successor is strictly lower its slopes pass through to the parent; where
    they are equal the parent takes the max of left slopes and the min of
    right slopes.  At the truncation vertex (x = min of the successors'
    x_last) the right slope is the vertical ray, contributed by the shorter
    successor even when the other is strictly lower, so the min law applies
    there.
    """
    expected = intersect_min(succ1, succ2)
    if parent != expected:
        return _mismatch(
            f"parent {parent} is not the pointwise-min {expected} of "
            f"{succ1} and {succ2}"
        )
    col = _Collector()
    _p2_laws(col, parent, succ1, succ2)
    return col.report()


def _p2_laws(
    col: _Collector, parent: Frontier, succ1: Frontier, succ2: Frontier
) -> None:
    """The laws of ``audit_p2``, on a parent known to be its relation's output."""
    x_cap = min(succ1.x_last, succ2.x_last)
    for x, _y in parent.vertices:
        y1 = evaluate(succ1, x)
        y2 = evaluate(succ2, x)
        if y1 is None or y2 is None:  # x <= x_cap by construction
            raise InvariantBroken(f"x={x} lies beyond x_cap={x_cap}")
        l0, r0 = slope_at(parent, x)
        l1, r1 = slope_at(succ1, x)
        l2, r2 = slope_at(succ2, x)
        if y1 == y2:
            col.check(
                l0 == max(l1, l2),
                "lslope not max at equality",
                lambda: f"at x={x}: parent {l0} != max({l1}, {l2})",
            )
            col.check(
                r0 == min(r1, r2),
                "rslope not min at equality",
                lambda: f"at x={x}: parent {r0} != min({r1}, {r2})",
            )
            continue
        ll, rl = (l1, r1) if y1 < y2 else (l2, r2)
        col.check(
            l0 == ll,
            "lslope not the lower curve's",
            lambda: f"at x={x}: parent {l0} != lower {ll}",
        )
        if x == x_cap:
            col.check(
                r0 == min(r1, r2),
                "rslope not min at truncation",
                lambda: f"at x={x}: parent {r0} != min({r1}, {r2})",
            )
        else:
            col.check(
                r0 == rl,
                "rslope not the lower curve's",
                lambda: f"at x={x}: parent {r0} != lower {rl}",
            )


# ---------------------------------------------------------------------------
# Chance relation: parent = weighted Minkowski sum


def _interior_direction(
    p: Point, parent: Frontier, succ1: Frontier, succ2: Frontier
) -> Fraction:
    """A slope strictly between lslope and rslope of the parent at a vertex.

    When the right slope is the vertical ray, any value strictly below every
    finite slope of the three curves is strictly interior.
    """
    l0, r0 = slope_at(parent, p[0])
    if r0 != MINUS_INFINITY:
        return (l0 + r0) / 2
    finite = [s for f in (parent, succ1, succ2) for s in f.slopes]
    floor = min(finite) if finite else Fraction(0)
    return floor - 1


def audit_chance(
    parent: Frontier,
    succ1: Frontier,
    succ2: Frontier,
    p1,
    p2,
) -> AuditReport:
    """Decomposition laws of the weighted-sum relation (pre reward shift).

    Every parent vertex must split as p1*q + p2*r where q, r are the unique
    dot-product maximizers on the successors for a direction strictly
    between the vertex's left and right slopes, and the parent's left slope
    must equal the smaller of the two decomposition left slopes.  Unless
    parent is exactly the weighted sum, reports only a relation mismatch.
    """
    p1 = as_fraction(p1)
    p2 = as_fraction(p2)
    expected = weighted_sum([(p1, succ1), (p2, succ2)])
    if parent != expected:
        return _mismatch(
            f"parent {parent} is not the weighted sum {expected} of "
            f"{p1}*{succ1} + {p2}*{succ2}"
        )
    col = _Collector()
    _chance_laws(col, parent, succ1, succ2, p1, p2)
    return col.report()


def _chance_laws(
    col: _Collector, parent: Frontier, succ1: Frontier, succ2: Frontier, p1, p2
) -> None:
    """The laws of ``audit_chance``, on a parent known to be the weighted sum."""
    for p in parent.vertices:
        m = _interior_direction(p, parent, succ1, succ2)
        w = (-m, Fraction(1))
        parts: list[Point] = []
        for f in (succ1, succ2):
            scored = [(w[0] * vx + w[1] * vy, (vx, vy)) for vx, vy in f.vertices]
            best = max(s for s, _ in scored)
            arg = [v for s, v in scored if s == best]
            if not col.check(
                len(arg) == 1,
                "maximizer not unique",
                lambda: f"direction ({w[0]},1) ties {arg} on {f}",
            ):
                break
            parts.append(arg[0])
        if len(parts) < 2:
            continue
        q, r = parts
        combo = (p1 * q[0] + p2 * r[0], p1 * q[1] + p2 * r[1])
        col.check(
            combo == p,
            "vertex does not decompose",
            lambda: f"{p} != {p1}*{q} + {p2}*{r} = {combo}",
        )
        l0, _ = slope_at(parent, p[0])
        l1, _ = slope_at(succ1, q[0])
        l2, _ = slope_at(succ2, r[0])
        col.check(
            l0 == min(l1, l2),
            "lslope not min of parts",
            lambda: f"at x={p[0]}: parent {l0} != min({l1}, {l2})",
        )


# ---------------------------------------------------------------------------
# Whole-game audit


def audit_game(
    g: Game,
    curves: Mapping[str, Frontier],
    prev: Mapping[str, Frontier] | None = None,
) -> AuditReport:
    """Check the curve equation at every state, then the slope laws at each
    two-successor state whose equation holds; never raises.

    A game that ``validate_game`` rejects fails with one "invalid game"
    finding per violation, before any state is checked.

    Without ``prev`` the successors' curves are taken from ``curves`` (the
    right reading for a fixpoint family).  With ``prev``, curve families are
    read the way an in-place sweep produced ``curves`` from ``prev``: a
    successor listed before the state contributes its updated curve, one
    listed at or after it contributes its previous curve.

    Each state's equation is one check: its curve must equal
    ``bellman._state_update`` on that reading, the operator the solver runs.
    A state gets one "missing curve" finding if its curve or a successor
    curve it reads is absent, else one "relation mismatch" finding if its
    equation fails.  Where it holds at a state with two successors, the laws
    of the state's kind run on its curve shifted back by its reward.
    """
    invalid = validate_game(g).violations
    if invalid:
        return AuditReport(
            ok=False,
            findings=tuple(AuditFinding("", "invalid game", v) for v in invalid),
            checks_run=1,
        )
    view = curves if prev is None else dict(prev)
    col = _Collector()
    for s in g.states:
        col.where, curve = s.id, curves.get(s.id)
        missing = [t for t in s.successors if view.get(t) is None]
        if curve is None:
            col.check(False, "missing curve", lambda: "state has no curve entry")
        elif missing:
            detail = f"successors {missing} have no curve"
            col.check(False, "missing curve", lambda: detail)
        else:
            update = _state_update(s, view)
            ok = col.check(
                update == curve,
                "relation mismatch",
                lambda: f"{curve} is not its update {update}",
            )
            if ok and len(s.transitions) == 2:
                parent = translate(curve, (-s.reward[0], -s.reward[1]))
                (t1, p1), (t2, p2) = s.transitions
                if s.kind is Kind.P1:
                    _p1_laws(col, parent, view[t1], view[t2])
                elif s.kind is Kind.P2:
                    _p2_laws(col, parent, view[t1], view[t2])
                else:  # chance
                    _chance_laws(col, parent, view[t1], view[t2], p1, p2)
        if prev is not None:  # later states read this state's new curve
            view[s.id] = curve
    return col.report()
