"""Exact planar Pareto frontiers.

A :class:`Frontier` represents a nonempty, downward-closed, convex subset of
the plane by the canonical vertex list of its Pareto frontier: x strictly
increasing, y strictly decreasing, segment slopes strictly decreasing.  The
represented set is

    { (a, b) : a <= x_last and b <= F(a) }

where ``F(a) = y_first`` for ``a <= x_first`` and F interpolates linearly on
``[x_first, x_last]`` — i.e. the polyline extended by an implicit horizontal
ray to the left and vertical ray below the last vertex.

All coordinates are :class:`fractions.Fraction`; every operation is exact and
pure, and a frontier is immutable.  Every :class:`Frontier`, operation outputs
included, is validated on construction by one pass over its segment slopes,
and keeps those slopes: ``weighted_sum``, the interpolation of ``evaluate``
and ``intersect_min``, and ``slope_at`` read them instead of dividing again.

The binary operations take canonical inputs and merge them in time linear in
their total vertex count: ``weighted_sum`` merges the two segment chains by
slope, ``dwc_conv_union`` merges the two x-sorted vertex lists and makes one
domination-and-hull pass, and ``intersect_min`` sweeps both lists once,
emitting the minimum and the exact crossings in x order.  Only
``canonicalize``, which takes arbitrary points, sorts.  Each operation wraps
a private kernel that adds a shift (a Bellman update's reward) to the
vertices of the one ``Frontier`` it builds; the operation passes (0, 0).
Two single-vertex inputs (corners), the common case on a large game, skip
the walk: their union is the one corner or both, their intersection the
corner of the two minima, their weighted sum the one vertex p·a + q·b.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from numbers import Rational
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import DigitLimitExceeded, InvalidArgument, InvalidCurveFile

Point = tuple[Fraction, Fraction]
RationalLike = Union[int, str, Fraction, Rational]

#: Sentinel for the slope of the vertical ray below the last vertex.  It is a
#: float so that exact Fraction slopes compare correctly against it.
MINUS_INFINITY = float("-inf")


def _exact(value: int | str | Rational) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise InvalidArgument(f"zero denominator in {value!r}") from None
    except ValueError as exc:  # a string that is no rational literal
        raise InvalidArgument(str(exc)) from None


#: Rewards and probabilities repeat across a game's states, so each distinct
#: text is parsed once; a text that raises is not cached and raises each time.
_parse_text = lru_cache(maxsize=1024)(_exact)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, rational strings like ``"-2/3"``, and Fractions exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int; reject it as a coordinate
        raise TypeError("boolean is not a coordinate")
    if isinstance(value, str):
        if "e" in value.lower():  # "1e9999999" is huge
            raise InvalidArgument(f"exponent notation is not accepted: {value!r}")
        return _parse_text(value)
    if isinstance(value, (int, Rational)):
        return _exact(value)
    if isinstance(value, float):
        raise TypeError(
            "float coordinates are not accepted; pass Fraction, int, or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def fraction_str(x: Fraction) -> str:
    """The explicit ``"num/den"`` text that ``as_fraction`` reads back."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-text digit limit
        raise DigitLimitExceeded(str(exc)) from None


def as_point(pair: Sequence[RationalLike]) -> Point:
    if len(pair) != 2:
        raise TypeError(f"a point needs exactly two coordinates, got {pair!r}")
    return (as_fraction(pair[0]), as_fraction(pair[1]))


def _direction(w: Sequence[RationalLike]) -> Point:
    """w as a point, which must be >= 0 and nonzero to be a direction."""
    w1, w2 = as_point(w)
    if w1 < 0 or w2 < 0 or (w1 == 0 and w2 == 0):
        raise InvalidArgument(
            f"direction must be >=0 and nonzero, got {_points_text((w1, w2))}"
        )
    return w1, w2


@dataclass(frozen=True)
class Frontier:
    """Canonical Pareto frontier of a downward-closed convex planar set."""

    vertices: tuple[Point, ...]
    #: ``slopes[i]`` is the slope from vertex i to vertex i + 1, kept from
    #: the validation pass; it takes no part in equality, hashing or repr.
    slopes: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InvalidArgument("a frontier needs at least one vertex")
        verts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        slopes = []
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if not (x0 < x1 and y0 > y1):
                raise ValueError(
                    f"vertices must be strictly decreasing staircase-free: "
                    f"({x0},{y0}) then ({x1},{y1})"
                )
            slopes.append((y1 - y0) / (x1 - x0))
        # with x strictly increasing, strict concavity is exactly strictly
        # decreasing segment slopes
        for i in range(len(slopes) - 1):
            if slopes[i] <= slopes[i + 1]:
                raise ValueError(
                    f"vertices must be strictly concave: {verts[i]}, "
                    f"{verts[i + 1]}, {verts[i + 2]} are not"
                )
        object.__setattr__(self, "slopes", tuple(slopes))

    # -- basic accessors ----------------------------------------------------

    @property
    def x_first(self) -> Fraction:
        return self.vertices[0][0]

    @property
    def x_last(self) -> Fraction:
        return self.vertices[-1][0]

    @property
    def y_first(self) -> Fraction:
        return self.vertices[0][1]

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:  # keep exact but compact
        return f"Frontier[{_points_text(*self.vertices)}]"


def _text(x: Fraction | int) -> str:
    """``str(x)``, or, past the interpreter's int-to-text digit limit, the
    bit lengths of its numerator and denominator, so a message never
    raises.  An int is written the same way, with denominator 1."""
    try:
        return str(x)
    except ValueError:
        bits = x.numerator.bit_length(), x.denominator.bit_length()
        return f"{'-' if x < 0 else ''}<{bits[0]}-bit/{bits[1]}-bit>"


def _points_text(*points: Point) -> str:
    """The points as ``(x,y)``, comma-separated, each coordinate by ``_text``."""
    return ", ".join(f"({_text(x)},{_text(y)})" for x, y in points)


def _value_text(value: object) -> str:
    """``repr(value)``, but with each Fraction, also inside a tuple, written
    by ``_text``."""
    if isinstance(value, Fraction):
        return _text(value)
    if isinstance(value, tuple):
        items = ", ".join(map(_value_text, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


def _fields_repr(obj: object) -> str:
    """A dataclass's repr with its Fractions written by ``_text``, so that
    printing it never raises; a dataclass holding Fractions takes it as its
    ``__repr__``."""
    text = ", ".join(
        f"{f.name}={_value_text(getattr(obj, f.name))}"
        for f in fields(obj)  # type: ignore[arg-type]
        if f.repr
    )
    return f"{type(obj).__name__}({text})"


PointsLike = Union[Frontier, Iterable[Sequence[RationalLike]]]


def _vertices_of(f: PointsLike) -> tuple[Point, ...]:
    if isinstance(f, Frontier):
        return f.vertices
    return tuple(as_point(p) for p in f)


# ---------------------------------------------------------------------------
# Canonicalization


def canonicalize(points: PointsLike) -> Frontier:
    """Frontier of the downward-closed convex hull of ``points``.

    Keeps the maximal (non-dominated) points, then the upper concave chain
    of those, removing collinear interior vertices.  Idempotent.
    """
    pts = sorted(_vertices_of(points))
    if not pts:
        raise InvalidArgument("cannot build a frontier from no points")
    return _hull_of_sorted(pts, (0, 0))


def _shifted(pts: Sequence[Point], shift: Point) -> Sequence[Point]:
    """The points moved by ``shift``, or themselves for (0, 0)."""
    if shift == (0, 0):
        return pts
    dx, dy = shift
    return [(x + dx, y + dy) for x, y in pts]


def _hull_of_sorted(pts: Sequence[Point], shift: Point) -> Frontier:
    """Frontier of nonempty points sorted by (x, y), repeats allowed, moved
    by ``shift``, by one monotone-chain pass from the right (Andrew 1979).
    A point not above the last kept vertex is dominated (the first point met
    of each x is its highest, so repeats and lower points with that x go
    too).  The last kept vertex is popped while the segment from the new
    point is not strictly flatter than the one after it (collinear or a
    convex dent).  Only the kept vertices are moved."""
    hull = [pts[-1]]
    slopes: list[Fraction] = []  # slopes[k]: hull[k + 1] -> hull[k]
    for x, y in reversed(pts):
        if y <= hull[-1][1]:
            continue
        while True:
            x1, y1 = hull[-1]
            s = (y1 - y) / (x1 - x)
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append((x, y))
        slopes.append(s)
    hull.reverse()
    return Frontier(tuple(_shifted(hull, shift)))


# ---------------------------------------------------------------------------
# Evaluation / slopes


def evaluate(f: Frontier, x: RationalLike) -> Fraction | None:
    """F(x): the frontier height at x, or None right of the domain."""
    x = as_fraction(x)
    if x > f.x_last:
        return None
    return _height_before(f, bisect_left(f.vertices, x, key=itemgetter(0)), x)


def slope_at(f: Frontier, x: RationalLike) -> tuple[Fraction, Union[Fraction, float]]:
    """(left slope, right slope) of the frontier at x.

    Left of the first vertex both slopes are 0 (horizontal ray); at the last
    vertex the right slope is MINUS_INFINITY (vertical ray).  At a vertex the
    left slope is the incoming segment's and the right slope the outgoing
    segment's; inside a segment both equal the segment slope.
    """
    x = as_fraction(x)
    if x > f.x_last:
        raise InvalidArgument(
            f"slope queried at x={_text(x)} > x_last={_text(f.x_last)}"
        )
    if x < f.x_first:
        return (Fraction(0), Fraction(0))
    k, slopes = bisect_left(f.vertices, x, key=itemgetter(0)), f.slopes
    if x < f.vertices[k][0]:  # inside segment k - 1; else at vertex k
        return (slopes[k - 1], slopes[k - 1])
    left = slopes[k - 1] if k else Fraction(0)
    return (left, slopes[k] if k < len(slopes) else MINUS_INFINITY)


# ---------------------------------------------------------------------------
# Set operations


def dwc_conv_union(f1: Frontier, f2: Frontier) -> Frontier:
    """Frontier of the downward-closed convex hull of the union."""
    return _union(f1, f2, (0, 0))


def _union(f1: Frontier, f2: Frontier, shift: Point) -> Frontier:
    if len(f1.vertices) == len(f2.vertices) == 1:  # two corners: one or both
        a, b = sorted((f1.vertices[0], f2.vertices[0]))
        return Frontier(tuple(_shifted([b] if a[1] <= b[1] else [a, b], shift)))
    return _hull_of_sorted(list(merge(f1.vertices, f2.vertices)), shift)


def _height_before(f: Frontier, k: int, x: Fraction) -> Fraction:
    """F(x) for x in (x_{k-1}, x_k]: the interpolation on segment k-1 to k,
    or y_0 when k is 0 (x at or left of the first vertex)."""
    if k == 0:
        return f.y_first
    x0, y0 = f.vertices[k - 1]
    return y0 + f.slopes[k - 1] * (x - x0)


def intersect_min(f1: Frontier, f2: Frontier) -> Frontier:
    """Frontier of the intersection: pointwise min on x <= min(x_last).

    One sweep over both vertex lists in x order samples the minimum at
    every vertex x up to min(x_last) and adds the exact crossing inside
    each cell where the difference of the two heights changes sign."""
    return _intersect(f1, f2, (0, 0))


def _intersect(f1: Frontier, f2: Frontier, shift: Point) -> Frontier:
    v1, v2 = f1.vertices, f2.vertices
    if len(v1) == len(v2) == 1:  # two corners: the corner of the minima
        ((xa, ya),), ((xb, yb),), (dx, dy) = v1, v2, shift
        return Frontier(((min(xa, xb) + dx, min(ya, yb) + dy),))
    x_hi = min(f1.x_last, f2.x_last)
    pts: list[Point] = []
    i = j = 0
    prev: tuple[Fraction, Fraction, Fraction] | None = None
    while True:  # x_hi is a vertex x, so the sweep stops before either runs out
        (xa, ya), (xb, yb) = v1[i], v2[j]
        if xa < xb:
            x, y1, y2 = xa, ya, _height_before(f2, j, xa)
            i += 1
        elif xb < xa:
            x, y1, y2 = xb, _height_before(f1, i, xb), yb
            j += 1
        else:
            x, y1, y2 = xa, ya, yb
            i += 1
            j += 1
        if prev is not None:
            xp, a1, a2 = prev
            da, db = a1 - a2, y1 - y2
            if (da > 0 > db) or (da < 0 < db):
                t = da / (da - db)
                pts.append((xp + (x - xp) * t, a1 + (y1 - a1) * t))
        pts.append((x, min(y1, y2)))
        if x == x_hi:
            return _hull_of_sorted(pts, shift)
        prev = (x, y1, y2)


def translate(f: Frontier, v: Sequence[RationalLike]) -> Frontier:
    """Shift every vertex by the vector v."""
    return Frontier(tuple(_shifted(f.vertices, as_point(v))))


def weighted_sum(terms: Sequence[tuple[RationalLike, Frontier]]) -> Frontier:
    """Frontier of the probability-weighted Minkowski sum of 1-2 sets.

    Scaling by p > 0 keeps every segment slope, so the frontier of the sum
    walks both scaled chains from their first vertices, always taking the
    segment of strictly greater slope next and both segments together when
    the slopes are equal.  Each vertex it reaches is the sum of one scaled
    vertex of each chain, and the walk yields the canonical list directly.
    """
    if not 1 <= len(terms) <= 2:
        raise InvalidArgument(f"need 1-2 weighted terms, got {len(terms)}")
    weights = [as_fraction(p) for p, _ in terms]
    if any(p <= 0 for p in weights):
        raise InvalidArgument(
            f"weights must be positive, got [{', '.join(map(_text, weights))}]"
        )
    if sum(weights) != 1:
        raise InvalidArgument(
            f"weights must sum to 1, got [{', '.join(map(_text, weights))}]"
        )
    if len(terms) == 1:
        return terms[0][1]
    (p, q), (f, g) = weights, (terms[0][1], terms[1][1])
    return _weighted_sum(p, f, q, g, (0, 0))


def _weighted_sum(
    p: Fraction, f: Frontier, q: Fraction, g: Frontier, shift: Point
) -> Frontier:
    """``weighted_sum``'s walk, the shift riding on the first scaled chain."""
    if len(f.vertices) == len(g.vertices) == 1:  # two corners: one vertex
        ((xa, ya),), ((xb, yb),), (dx, dy) = f.vertices, g.vertices, shift
        return Frontier(((p * xa + q * xb + dx, p * ya + q * yb + dy),))
    a = _shifted([(p * x, p * y) for x, y in f.vertices], shift)
    b = [(q * x, q * y) for x, y in g.vertices]
    sa, sb = f.slopes, g.slopes
    i = j = 0
    out = [(a[0][0] + b[0][0], a[0][1] + b[0][1])]
    while i < len(sa) or j < len(sb):
        if j == len(sb) or (i < len(sa) and sa[i] > sb[j]):
            i += 1
        elif i == len(sa) or sb[j] > sa[i]:
            j += 1
        else:  # equal slopes: one merged segment
            i += 1
            j += 1
        out.append((a[i][0] + b[j][0], a[i][1] + b[j][1]))
    return Frontier(tuple(out))


# ---------------------------------------------------------------------------
# Queries


def support(f: Frontier, w: Sequence[RationalLike]) -> Fraction:
    """max of w . z over the represented set, for w >= 0, w != 0."""
    w1, w2 = _direction(w)
    # For w >= 0 the max over the downward-closed set is attained on the
    # vertex list (the rays only move points down/left).
    return max(w1 * x + w2 * y for x, y in f.vertices)


def contains(f: Frontier, z: Sequence[RationalLike]) -> bool:
    """Whether the point z lies in the represented downward-closed set."""
    zx, zy = as_point(z)
    yy = evaluate(f, zx)
    return yy is not None and zy <= yy


def extremal_points(f: Frontier) -> tuple[Point, ...]:
    """The canonical vertex list (the extremal points of the set)."""
    return f.vertices


# ---------------------------------------------------------------------------
# Serialization


def frontier_to_csv(f: Frontier) -> str:
    """One row per vertex, each coordinate as an explicit 'num/den' string."""
    lines = [f"{fraction_str(x)},{fraction_str(y)}" for x, y in f.vertices]
    return "\n".join(lines) + "\n"


def frontier_from_csv(text: str) -> Frontier:
    """The frontier whose vertices are the ``x,y`` rows of ``text``, as
    written, in order; blank lines are skipped.  A malformed row raises
    ``InvalidCurveFile`` naming its line, and so do rows that are not a
    canonical vertex list (``frontier_to_csv`` writes only such lists):
    a file is read as it is, never repaired."""
    pts: list[Point] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            pts.append(as_point([cell.strip() for cell in line.split(",")]))
        except (TypeError, ValueError) as exc:
            raise InvalidCurveFile(f"line {number}: {line!r}: {exc}") from None
    try:
        return Frontier(tuple(pts))
    except ValueError as exc:
        raise InvalidCurveFile(f"rows are not a canonical frontier: {exc}") from None


def frontier_to_svg(f: Frontier, title: str = "frontier") -> str:
    """A standalone 480 x 360 SVG drawing of the frontier with its rays clipped.

    The view box is exact; floating point is used only to place pixels, from
    positions normalized to [0, 1], so coordinates of any size draw.
    """
    # local: xml.sax.saxutils imports urllib.request, about 7 MB resident
    from xml.sax.saxutils import escape
    xs = [x for x, _ in f.vertices]
    ys = [y for _, y in f.vertices]

    def view(vals: list[Fraction]) -> tuple[Fraction, Fraction]:
        pad = (max(vals) - min(vals) or Fraction(1)) / 4
        return min(vals) - pad, max(vals) + pad

    (lo_x, hi_x), (lo_y, hi_y) = view(xs), view(ys)
    width, height, margin = 480, 360, 40.0

    def px(x: Fraction) -> float:
        return margin + float((x - lo_x) / (hi_x - lo_x)) * (width - 2 * margin)

    def py(y: Fraction) -> float:
        u = float((y - lo_y) / (hi_y - lo_y))
        return height - margin - u * (height - 2 * margin)

    # polyline with the horizontal ray clipped at the left edge and the
    # vertical ray clipped at the bottom edge
    coords = [(lo_x, ys[0]), *f.vertices, (xs[-1], lo_y)]
    points_attr = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in coords)
    dots = "".join(
        f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#c0392b"/>'
        for x, y in f.vertices
    )
    labels = "".join(
        f'<text x="{px(x) + 6:.2f}" y="{py(y) - 6:.2f}" font-size="10" '
        f'fill="#333">{escape(_points_text((x, y)))}</text>'
        for x, y in f.vertices
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<text x="{margin}" y="20" font-size="12" fill="#111">{escape(title)}</text>'
        f'<polyline points="{points_attr}" fill="none" stroke="#2c3e50" '
        f'stroke-width="2"/>'
        f"{dots}{labels}</svg>"
    )
