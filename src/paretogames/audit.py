"""Structural slope audits for curve families.

Every non-terminal state's curve is related to its successors' curves by one
operator application (union-hull for maximizer states, pointwise-min for
minimizer states, weighted Minkowski sum for chance states, plus the reward
shift).  These relations leave slope fingerprints:

* a curve is a strictly concave, strictly decreasing polyline;
* a maximizer parent's slopes are sandwiched between its successors' slopes,
  and every parent vertex is a successor vertex;
* a minimizer parent follows the lower successor's slopes where the
  successors differ, and combines them (max of left slopes, min of right
  slopes) where they touch;
* a chance parent's vertices decompose uniquely into the weighted sum of one
  vertex per successor, recovered by maximizing a dot product, and the
  parent's left slope is the minimum of the decomposition's left slopes.

The auditors check these fingerprints exactly and report violations; they are
valid both for exact solution families and for consecutive iterates of the
solver (which are related by exactly one operator application).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import InvariantBroken, RelationMismatch
from .frontier import (
    MINUS_INFINITY,
    Frontier,
    PointsLike,
    Point,
    as_fraction,
    as_point,
    dwc_conv_union,
    evaluate,
    intersect_min,
    slope_at,
    translate,
    weighted_sum,
    _slopes,
    _vertices_of,
)
from .games import Game, Kind, validate_game

Slope = Union[Fraction, float]  # float only for the -infinity sentinel


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


class _Collector:
    """Accumulates findings and counts every executed check."""

    def __init__(self, where: str = ""):
        self.where = where
        self.findings: list[AuditFinding] = []
        self.checks = 0

    def check(self, ok: bool, name: str, detail: str) -> bool:
        self.checks += 1
        if not ok:
            self.findings.append(AuditFinding(self.where, name, detail))
        return ok

    def report(self) -> AuditReport:
        return AuditReport(
            ok=not self.findings,
            findings=tuple(self.findings),
            checks_run=self.checks,
        )


def _fmt_slope(s: Slope) -> str:
    return "-inf" if s == MINUS_INFINITY else str(s)


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
    if not col.check(bool(verts), "empty", "a frontier needs at least one vertex"):
        return col.report()
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        col.check(
            x0 < x1, "x not increasing", f"x {x0} then {x1} (with y {y0}, {y1})"
        )
        col.check(
            y0 > y1, "y not decreasing", f"y {y0} then {y1} (at x {x0}, {x1})"
        )
    for a, b, c in zip(verts, verts[1:], verts[2:]):
        cr = _cross(a, b, c)
        col.check(cr <= 0, "not concave", f"{a}, {b}, {c} turn left (cross {cr})")
        col.check(
            cr < 0,
            "slope not strictly decreasing",
            f"{a}, {b}, {c} are collinear or convex (cross {cr})",
        )
    if col.findings:
        return col.report()  # slope sampling needs a well-formed polyline

    fr = f if isinstance(f, Frontier) else Frontier(verts)
    # Sample points: one inside the flat ray, every vertex, every segment
    # midpoint.  Between consecutive samples with different left slopes there
    # must be an extremal point; consecutive coverage extends to any pair.
    xs: list[Fraction] = [fr.x_first - 1]
    for (x0, _), (x1, _) in zip(fr.vertices, fr.vertices[1:]):
        xs.append(x0)
        xs.append((x0 + x1) / 2)
    xs.append(fr.x_last)
    extremal_xs = [x for x, _ in fr.vertices]
    for xa, xb in zip(xs, xs[1:]):
        la, _ = slope_at(fr, xa)
        lb, _ = slope_at(fr, xb)
        if la == lb:
            col.checks += 1
            continue
        col.check(
            any(xa <= e <= xb for e in extremal_xs),
            "no extremal point between slope change",
            f"lslope {la} at x={xa} vs {lb} at x={xb} with no vertex between",
        )
    return col.report()


# ---------------------------------------------------------------------------
# Maximizer relation: parent = hull of the union of the successors


def audit_p1(parent: Frontier, succ1: Frontier, succ2: Frontier) -> AuditReport:
    """Slope laws of the union-hull relation (parent before the reward shift).

    Raises RelationMismatch unless parent is exactly the downward-closed
    convex hull of the two successor sets.
    """
    expected = dwc_conv_union(succ1, succ2)
    if parent != expected:
        raise RelationMismatch(
            f"parent {parent} is not the union hull {expected} of "
            f"{succ1} and {succ2}"
        )
    col = _Collector()
    succ_vertices = set(succ1.vertices) | set(succ2.vertices)
    for x, y in parent.vertices:
        col.check(
            (x, y) in succ_vertices,
            "parent vertex not a successor vertex",
            f"({x},{y}) belongs to neither successor",
        )
        if x > succ1.x_last or x > succ2.x_last:
            continue  # a successor slope is undefined at this x
        l0, r0 = slope_at(parent, x)
        l1, r1 = slope_at(succ1, x)
        l2, r2 = slope_at(succ2, x)
        col.check(
            min(l1, l2) <= l0 <= max(l1, l2),
            "lslope not sandwiched",
            f"at x={x}: parent {_fmt_slope(l0)} outside "
            f"[{_fmt_slope(min(l1, l2))}, {_fmt_slope(max(l1, l2))}]",
        )
        col.check(
            min(r1, r2) <= r0 <= max(r1, r2),
            "rslope not sandwiched",
            f"at x={x}: parent {_fmt_slope(r0)} outside "
            f"[{_fmt_slope(min(r1, r2))}, {_fmt_slope(max(r1, r2))}]",
        )
    return col.report()


# ---------------------------------------------------------------------------
# Minimizer relation: parent = pointwise minimum, shifted by the reward


def audit_p2(
    parent: Frontier,
    succ1: Frontier,
    succ2: Frontier,
    reward: Sequence,
) -> AuditReport:
    """Slope laws of the pointwise-min relation (parent reward-shifted).

    At each parent vertex, compared at the un-shifted x: where one successor
    is strictly lower its slopes pass through to the parent; where they are
    equal the parent takes the max of left slopes and the min of right
    slopes.  At the truncation vertex (x = min of the successors' x_last) the
    right slope is the vertical ray, contributed by the shorter successor
    even when the other is strictly lower, so the min law applies there.
    """
    rx, ry = as_point(reward)
    expected = translate(intersect_min(succ1, succ2), (rx, ry))
    if parent != expected:
        raise RelationMismatch(
            f"parent {parent} is not the shifted pointwise-min {expected} of "
            f"{succ1} and {succ2} with reward ({rx},{ry})"
        )
    col = _Collector()
    x_cap = min(succ1.x_last, succ2.x_last)
    for x, _y in parent.vertices:
        x0 = x - rx
        y1 = evaluate(succ1, x0)
        y2 = evaluate(succ2, x0)
        if y1 is None or y2 is None:  # x0 <= x_cap by construction
            raise InvariantBroken(f"x={x0} lies beyond x_cap={x_cap}")
        l0, r0 = slope_at(parent, x)
        l1, r1 = slope_at(succ1, x0)
        l2, r2 = slope_at(succ2, x0)
        if y1 == y2:
            col.check(
                l0 == max(l1, l2),
                "lslope not max at equality",
                f"at x={x0}: parent {_fmt_slope(l0)} != "
                f"max({_fmt_slope(l1)}, {_fmt_slope(l2)})",
            )
            col.check(
                r0 == min(r1, r2),
                "rslope not min at equality",
                f"at x={x0}: parent {_fmt_slope(r0)} != "
                f"min({_fmt_slope(r1)}, {_fmt_slope(r2)})",
            )
            continue
        ll, rl = (l1, r1) if y1 < y2 else (l2, r2)
        col.check(
            l0 == ll,
            "lslope not the lower curve's",
            f"at x={x0}: parent {_fmt_slope(l0)} != lower {_fmt_slope(ll)}",
        )
        if x0 == x_cap:
            col.check(
                r0 == min(r1, r2),
                "rslope not min at truncation",
                f"at x={x0}: parent {_fmt_slope(r0)} != "
                f"min({_fmt_slope(r1)}, {_fmt_slope(r2)})",
            )
        else:
            col.check(
                r0 == rl,
                "rslope not the lower curve's",
                f"at x={x0}: parent {_fmt_slope(r0)} != lower {_fmt_slope(rl)}",
            )
    return col.report()


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
    finite = [s for f in (parent, succ1, succ2) for s in _slopes(f.vertices)]
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
    must equal the smaller of the two decomposition left slopes.
    """
    p1 = as_fraction(p1)
    p2 = as_fraction(p2)
    expected = weighted_sum([(p1, succ1), (p2, succ2)])
    if parent != expected:
        raise RelationMismatch(
            f"parent {parent} is not the weighted sum {expected} of "
            f"{p1}*{succ1} + {p2}*{succ2}"
        )
    col = _Collector()
    for p in parent.vertices:
        m = _interior_direction(p, parent, succ1, succ2)
        w = (-m, Fraction(1))
        parts: list[Point] = []
        unique = True
        for f in (succ1, succ2):
            scored = [(w[0] * vx + w[1] * vy, (vx, vy)) for vx, vy in f.vertices]
            best = max(s for s, _ in scored)
            arg = [v for s, v in scored if s == best]
            if not col.check(
                len(arg) == 1,
                "maximizer not unique",
                f"direction ({w[0]},1) ties {arg} on {f}",
            ):
                unique = False
                break
            parts.append(arg[0])
        if not unique:
            continue
        q, r = parts
        combo = (p1 * q[0] + p2 * r[0], p1 * q[1] + p2 * r[1])
        col.check(
            combo == p,
            "vertex does not decompose",
            f"{p} != {p1}*{q} + {p2}*{r} = {combo}",
        )
        l0, _ = slope_at(parent, p[0])
        l1, _ = slope_at(succ1, q[0])
        l2, _ = slope_at(succ2, r[0])
        col.check(
            l0 == min(l1, l2),
            "lslope not min of parts",
            f"at x={p[0]}: parent {_fmt_slope(l0)} != "
            f"min({_fmt_slope(l1)}, {_fmt_slope(l2)})",
        )
    return col.report()


# ---------------------------------------------------------------------------
# Whole-game audit


def _neg(v: Point) -> Point:
    return (-v[0], -v[1])


def audit_game(
    g: Game,
    curves: Mapping[str, Frontier],
    prev: Mapping[str, Frontier] | None = None,
) -> AuditReport:
    """Run per-kind audits at every non-terminal state; never raises.

    A game that ``validate_game`` rejects fails with one "invalid game"
    finding per violation, before any relation check.

    Without ``prev`` the successors' curves are taken from ``curves`` (the
    right reading for a fixpoint family).  With ``prev``, curve families are
    read the way an in-place sweep produced ``curves`` from ``prev``: a
    successor listed before the state contributes its updated curve, one
    listed at or after it contributes its previous curve.
    """
    invalid = validate_game(g).violations
    if invalid:
        return AuditReport(
            ok=False,
            findings=tuple(AuditFinding("", "invalid game", v) for v in invalid),
            checks_run=1,
        )
    position = {s.id: i for i, s in enumerate(g.states)}
    findings: list[AuditFinding] = []
    checks = 0

    def succ_curve(state_pos: int, target: str) -> Frontier | None:
        if target not in curves or (prev is not None and target not in prev):
            return None
        if prev is None or position[target] < state_pos:
            return curves[target]
        return prev[target]

    for i, s in enumerate(g.states):
        if s.kind is Kind.TERMINAL:
            continue
        checks += 1
        if s.id not in curves:
            findings.append(
                AuditFinding(s.id, "missing curve", "state has no curve entry")
            )
            continue
        parent = curves[s.id]
        succs = [succ_curve(i, t) for t, _ in s.transitions]
        if any(f is None for f in succs):
            missing = [t for (t, _), f in zip(s.transitions, succs) if f is None]
            findings.append(
                AuditFinding(
                    s.id, "missing curve", f"successors {missing} have no curve"
                )
            )
            continue
        reward = s.reward
        try:
            if len(succs) == 1:
                checks += 1
                expected = translate(succs[0], reward)
                if parent != expected:
                    findings.append(
                        AuditFinding(
                            s.id,
                            "single-successor mismatch",
                            f"{parent} != shifted successor {expected}",
                        )
                    )
                continue
            if s.kind is Kind.P1:
                sub = audit_p1(translate(parent, _neg(reward)), succs[0], succs[1])
            elif s.kind is Kind.P2:
                sub = audit_p2(parent, succs[0], succs[1], reward)
            else:  # chance
                probs = [p for _, p in s.transitions]
                sub = audit_chance(
                    translate(parent, _neg(reward)),
                    succs[0],
                    succs[1],
                    probs[0],
                    probs[1],
                )
        except RelationMismatch as exc:
            findings.append(AuditFinding(s.id, "relation mismatch", str(exc)))
            continue
        checks += sub.checks_run
        findings.extend(
            AuditFinding(s.id, f.check, f.detail) for f in sub.findings
        )
    return AuditReport(ok=not findings, findings=tuple(findings), checks_run=checks)
