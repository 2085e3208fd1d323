"""Frontier geometry: pinned values, algebraic laws, and the float oracle."""
from __future__ import annotations

import random
import re
from dataclasses import fields
from fractions import Fraction as F
from xml.dom.minidom import parseString

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floatoracle as fo
from paretogames import (
    MINUS_INFINITY,
    Frontier,
    GameSolverError,
    InvalidArgument,
    InvalidCurveFile,
    as_fraction,
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
from randgen import DIRECTIONS_32, random_frontier

rational = st.fractions(min_value=-10, max_value=10, max_denominator=12)
point_lists = st.lists(st.tuples(rational, rational), min_size=1, max_size=8)


def fr(*pts) -> Frontier:
    return canonicalize([tuple(map(F, p)) for p in pts])


# ---------------------------------------------------------------------------
# Frontier validation


@pytest.mark.parametrize(
    "vertices, error, message",
    [
        ((), InvalidArgument, "a frontier needs at least one vertex"),
        (
            ((0, 1), (0, 0)),
            ValueError,
            "vertices must be strictly decreasing staircase-free: "
            "(0,1) then (0,0)",
        ),
        (
            ((0, 1), (1, 1)),
            ValueError,
            "vertices must be strictly decreasing staircase-free: "
            "(0,1) then (1,1)",
        ),
        (
            ((0, 2), (1, 1), (2, 0)),
            ValueError,
            "vertices must be strictly concave: (Fraction(0, 1), Fraction(2, 1)), "
            "(Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(0, 1)) "
            "are not",
        ),
        (
            ((0, 3), (1, 2), (2, 0), (3, -1)),
            ValueError,
            "vertices must be strictly concave: (Fraction(1, 1), Fraction(2, 1)), "
            "(Fraction(2, 1), Fraction(0, 1)), (Fraction(3, 1), Fraction(-1, 1)) "
            "are not",
        ),
        # a collinear triple before a repeated x: the staircase error wins
        (
            ((0, 2), (1, 1), (2, 0), (2, -1)),
            ValueError,
            "vertices must be strictly decreasing staircase-free: "
            "(2,0) then (2,-1)",
        ),
    ],
    ids=["empty", "repeated-x", "flat-y", "collinear", "dent", "staircase-first"],
)
def test_frontier_rejects_non_canonical_vertices(vertices, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Frontier(tuple((F(x), F(y)) for x, y in vertices))


def test_frontier_accepts_and_converts_canonical_vertices():
    f = Frontier(((0, 2), ("1/2", F(3, 2)), (2, -1)))
    assert f.vertices == ((F(0), F(2)), (F(1, 2), F(3, 2)), (F(2), F(-1)))


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_drops_collinear_midpoint():
    assert fr((0, 1), (1, 0), (F(1, 2), F(1, 2))).vertices == (
        (F(0), F(1)),
        (F(1), F(0)),
    )


def test_canonicalize_singleton():
    assert fr((0, 0)).vertices == ((F(0), F(0)),)


def test_canonicalize_middle_point_on_segment_removed():
    got = fr((-1, 0), (F(-1, 2), F(-1, 2)), (0, -1))
    assert got.vertices == ((F(-1), F(0)), (F(0), F(-1)))


def test_canonicalize_empty_rejected():
    with pytest.raises(InvalidArgument):
        canonicalize([])


@given(point_lists)
def test_canonicalize_idempotent_and_canonical(pts):
    f = canonicalize(pts)
    assert canonicalize(f) == f
    xs = [x for x, _ in f.vertices]
    ys = [y for _, y in f.vertices]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert ys == sorted(ys, reverse=True) and len(set(ys)) == len(ys)
    slopes = [
        (y1 - y0) / (x1 - x0)
        for (x0, y0), (x1, y1) in zip(f.vertices, f.vertices[1:])
    ]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


@given(point_lists)
def test_canonicalize_dominates_every_input_point(pts):
    f = canonicalize(pts)
    assert all(contains(f, p) for p in pts)


# ---------------------------------------------------------------------------
# evaluate / slope_at


def test_evaluate_midpoint():
    assert evaluate(fr((0, 1), (1, 0)), F(1, 2)) == F(1, 2)


def test_evaluate_left_ray():
    assert evaluate(fr((0, 1), (1, 0)), -5) == 1


def test_evaluate_right_of_domain_undefined():
    assert evaluate(fr((0, 1), (1, 0)), 2) is None


def test_slope_interior():
    assert slope_at(fr((0, 1), (1, 0)), F(1, 2)) == (-1, -1)


def test_slope_at_first_vertex():
    assert slope_at(fr((-1, 0), (0, -1)), -1) == (0, -1)


def test_slope_at_right_endpoint():
    assert slope_at(fr((0, 1), (1, 0)), 1) == (-1, MINUS_INFINITY)


def test_slope_out_of_domain():
    with pytest.raises(InvalidArgument):
        slope_at(fr((0, 1), (1, 0)), 2)


@given(point_lists, rational)
def test_slopes_non_increasing_in_x(pts, dx):
    f = canonicalize(pts)
    xs = sorted({x for x, _ in f.vertices} | {f.x_first + dx})
    xs = [x for x in xs if x <= f.x_last]
    pairs = [slope_at(f, x) for x in xs]
    for left, right in pairs:
        assert left >= right
    for (_, r0), (l1, _) in zip(pairs, pairs[1:]):
        assert r0 >= l1


def _scan_height(f: Frontier, x: F) -> F | None:
    """F(x) by a linear scan over the segments."""
    if x > f.x_last:
        return None
    for (x0, y0), (x1, y1) in zip(f.vertices, f.vertices[1:]):
        if x0 < x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return f.y_first


def _scan_slopes(f: Frontier, x: F) -> tuple:
    """(left, right) slope at x <= x_last by a linear scan over the segments."""
    if x < f.x_first:
        return (0, 0)
    segs = [
        ((y1 - y0) / (x1 - x0), x0, x1)
        for (x0, y0), (x1, y1) in zip(f.vertices, f.vertices[1:])
    ]
    left = next((s for s, x0, x1 in segs if x0 < x <= x1), F(0))
    right = next((s for s, x0, x1 in segs if x0 <= x < x1), MINUS_INFINITY)
    return (left, right)


@given(point_lists.map(canonicalize))
def test_queries_match_a_linear_scan(f):
    xs = [x for x, _ in f.vertices]
    probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [f.x_first - 1]
    for x in probes:
        h = _scan_height(f, x)
        assert evaluate(f, x) == h
        assert slope_at(f, x) == _scan_slopes(f, x)
        for y in (h - 1, h, h + F(1, 7)):
            assert contains(f, (x, y)) == (y <= h)
    beyond = f.x_last + F(1, 3)
    assert evaluate(f, beyond) is None and not contains(f, (beyond, f.y_first - 9))
    with pytest.raises(InvalidArgument):
        slope_at(f, beyond)


def test_kept_slopes_take_no_part_in_equality_hash_or_repr():
    built = Frontier(((0, 2), (1, 1), (3, -2)))
    canon = canonicalize([(3, -2), (1, 1), (0, 2), (1, 0), (2, F(-1, 2))])
    assert built.slopes == canon.slopes == (F(-1), F(-3, 2))
    assert built == canon and hash(built) == hash(canon)
    assert repr(built) == repr(canon) == "Frontier[(0,2), (1,1), (3,-2)]"
    assert {fd.name: (fd.init, fd.compare, fd.repr) for fd in fields(Frontier)} == {
        "vertices": (True, True, True),
        "slopes": (False, False, False),
    }


def test_as_fraction_rejects_a_bool_and_a_non_number_as_type_errors():
    with pytest.raises(TypeError, match="^boolean is not a coordinate$"):
        as_fraction(True)
    with pytest.raises(TypeError, match="^cannot interpret <object object at "):
        as_fraction(object())


def test_repr_of_a_coordinate_too_long_to_print_gives_its_bit_lengths():
    big = F(10**5000 + 1, 3)
    bits = (10**5000 + 1).bit_length()
    f = Frontier(((-big, F(1, 2)), (F(0), F(0))))
    assert repr(f) == f"Frontier[(-<{bits}-bit/2-bit>,1/2), (0,0)]"


# ---------------------------------------------------------------------------
# dwc_conv_union


def test_union_two_points():
    assert dwc_conv_union(fr((0, 1)), fr((1, 0))).vertices == (
        (F(0), F(1)),
        (F(1), F(0)),
    )


def test_union_idempotent():
    f = fr((0, 1), (1, 0))
    assert dwc_conv_union(f, f) == f


def test_union_point_with_segment():
    got = dwc_conv_union(fr((-1, 0)), fr((F(-1, 2), F(-1, 2)), (0, -1)))
    assert got.vertices == ((F(-1), F(0)), (F(0), F(-1)))


def test_union_commutes_and_contains_inputs():
    rng = random.Random(7)
    for _ in range(50):
        f1, f2 = random_frontier(rng), random_frontier(rng)
        u = dwc_conv_union(f1, f2)
        assert u == dwc_conv_union(f2, f1)
        for v in list(f1.vertices) + list(f2.vertices):
            assert contains(u, v)


# ---------------------------------------------------------------------------
# intersect_min


def test_min_nested_curves():
    got = intersect_min(
        fr((F(-1, 2), 0), (0, F(-1, 2))), fr((-1, 0), (0, -1))
    )
    assert got.vertices == ((F(-1), F(0)), (F(0), F(-1)))


def test_min_idempotent():
    f = fr((0, 1), (1, 0))
    assert intersect_min(f, f) == f


def test_min_point_on_segment():
    got = intersect_min(fr((0, 1), (1, 0)), fr((F(1, 2), F(1, 2))))
    assert got.vertices == ((F(1, 2), F(1, 2)),)


def test_min_commutative_associative():
    rng = random.Random(11)
    for _ in range(40):
        f1, f2, f3 = (random_frontier(rng) for _ in range(3))
        assert intersect_min(f1, f2) == intersect_min(f2, f1)
        assert intersect_min(intersect_min(f1, f2), f3) == intersect_min(
            f1, intersect_min(f2, f3)
        )


def test_inclusion_chain_min_subset_input_subset_union():
    rng = random.Random(13)
    for _ in range(60):
        f1, f2 = random_frontier(rng), random_frontier(rng)
        inner = intersect_min(f1, f2)
        outer = dwc_conv_union(f1, f2)
        samples = list(inner.vertices) + [
            ((x0 + x1) / 2, (y0 + y1) / 2)
            for (x0, y0), (x1, y1) in zip(inner.vertices, inner.vertices[1:])
        ]
        for p in samples:
            assert contains(f1, p)
        samples1 = list(f1.vertices) + [
            ((x0 + x1) / 2, (y0 + y1) / 2)
            for (x0, y0), (x1, y1) in zip(f1.vertices, f1.vertices[1:])
        ]
        for p in samples1:
            assert contains(outer, p)


# ---------------------------------------------------------------------------
# weighted_sum


def test_weighted_sum_half_half():
    got = weighted_sum(
        [(F(1, 2), fr((-1, -1), (0, -2))), (F(1, 2), fr((0, 0)))]
    )
    assert got.vertices == ((F(-1, 2), F(-1, 2)), (F(0), F(-1)))


def test_weighted_sum_identity():
    f = fr((0, 1), (1, 0))
    assert weighted_sum([(1, f)]) == f


def test_weighted_sum_points_average():
    got = weighted_sum([(F(1, 2), fr((1, 0))), (F(1, 2), fr((0, 1)))])
    assert got.vertices == ((F(1, 2), F(1, 2)),)


def test_weighted_sum_rejects_bad_weights():
    f = fr((0, 0))
    with pytest.raises(InvalidArgument):
        weighted_sum([(F(1, 2), f), (F(1, 3), f)])
    with pytest.raises(InvalidArgument):
        weighted_sum([(F(3, 2), f), (F(-1, 2), f)])
    with pytest.raises(InvalidArgument):
        weighted_sum([])


def test_weighted_sum_support_linearity_32_directions():
    rng = random.Random(17)
    for _ in range(30):
        f1, f2 = random_frontier(rng), random_frontier(rng)
        p = rng.choice([F(1, 2), F(1, 3), F(2, 5)])
        s = weighted_sum([(p, f1), (1 - p, f2)])
        for w in DIRECTIONS_32:
            assert support(s, w) == p * support(f1, w) + (1 - p) * support(
                f2, w
            )


# ---------------------------------------------------------------------------
# Each binary operation equals canonicalize of its full candidate point set


grid = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
frontiers = st.lists(st.tuples(grid, grid), min_size=1, max_size=7).map(
    canonicalize
)
weights = st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(9, 10)])

# (f1, f2): singletons, a slope shared by both chains, shared vertices,
# equal x_last, and two chains that cross twice
MERGE_CASES = [
    (fr((0, 0)), fr((1, 0))),
    (fr((0, 0)), fr((-1, 2), (0, 1), (2, -1))),
    (fr((0, 2), (1, 1), (3, 0)), fr((0, 1), (1, 0))),
    (fr((0, 2), (1, 1), (2, -1)), fr((-1, 3), (1, 1), (3, 0))),
    (fr((0, 2), (2, 0)), fr((-1, 1), (1, F(1, 2)), (2, 0))),
    (fr((0, 2), (2, 1), (3, -3)), fr((-2, 3), (4, -3))),
]


def _sum_candidates(terms) -> list:
    """Start at the summed first vertices, then add every scaled segment in
    order of decreasing slope."""
    pts = [
        (
            sum(p * f.x_first for p, f in terms),
            sum(p * f.y_first for p, f in terms),
        )
    ]
    segs = sorted(
        (
            ((y1 - y0) / (x1 - x0), p * (x1 - x0), p * (y1 - y0))
            for p, f in terms
            for (x0, y0), (x1, y1) in zip(f.vertices, f.vertices[1:])
        ),
        key=lambda seg: seg[0],
        reverse=True,
    )
    for _, dx, dy in segs:
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return pts


def _min_candidates(f1: Frontier, f2: Frontier) -> list:
    """The minimum sampled at every vertex x up to min(x_last), plus the
    crossing inside every cell where the two heights swap order."""
    x_hi = min(f1.x_last, f2.x_last)
    xs = sorted({x for x, _ in f1.vertices + f2.vertices if x <= x_hi})
    ys = [(evaluate(f1, x), evaluate(f2, x)) for x in xs]
    pts = [(x, min(y1, y2)) for x, (y1, y2) in zip(xs, ys)]
    for (xa, (a1, a2)), (xb, (b1, b2)) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        da, db = a1 - a2, b1 - b2
        if da * db < 0:
            t = da / (da - db)
            pts.append((xa + (xb - xa) * t, a1 + (b1 - a1) * t))
    return pts


@pytest.mark.parametrize("f1, f2", MERGE_CASES)
@pytest.mark.parametrize("p", [F(1, 2), F(1, 3)])
def test_merges_match_canonicalized_candidates_on_edge_cases(f1, f2, p):
    for a, b in ((f1, f2), (f2, f1)):
        terms = [(p, a), (1 - p, b)]
        assert weighted_sum(terms) == canonicalize(_sum_candidates(terms))
        assert dwc_conv_union(a, b) == canonicalize(a.vertices + b.vertices)
        assert intersect_min(a, b) == canonicalize(_min_candidates(a, b))


def test_crossing_twice_keeps_both_crossings():
    f1, f2 = MERGE_CASES[-1]
    assert intersect_min(f1, f2).vertices == (
        (F(-1), F(2)),
        (F(8, 3), F(-5, 3)),
        (F(3), F(-3)),
    )
    assert len(_min_candidates(f1, f2)) == 6  # 4 samples and 2 crossings


@settings(max_examples=300)
@given(frontiers, frontiers, weights)
def test_weighted_sum_matches_canonicalized_segment_sums(f1, f2, p):
    terms = [(p, f1), (1 - p, f2)]
    assert weighted_sum(terms) == canonicalize(_sum_candidates(terms))
    assert weighted_sum([(1, f1)]) == f1


@settings(max_examples=300)
@given(frontiers, frontiers)
def test_union_matches_canonicalized_vertex_lists(f1, f2):
    assert dwc_conv_union(f1, f2) == canonicalize(f1.vertices + f2.vertices)


@settings(max_examples=300)
@given(frontiers, frontiers)
@example(*MERGE_CASES[-1])
def test_min_matches_canonicalized_samples_and_crossings(f1, f2):
    assert intersect_min(f1, f2) == canonicalize(_min_candidates(f1, f2))


# ---------------------------------------------------------------------------
# translate / support / contains / extremal_points


def test_translate_examples():
    assert translate(fr((-1, 0), (0, -1)), (0, -1)).vertices == (
        (F(-1), F(-1)),
        (F(0), F(-2)),
    )
    f = fr((0, 1), (1, 0))
    assert translate(f, (0, 0)) == f
    assert translate(fr((-1, -1), (0, -2)), (-1, 0)).vertices == (
        (F(-2), F(-1)),
        (F(-1), F(-2)),
    )


def test_translate_inverse():
    rng = random.Random(19)
    for _ in range(30):
        f = random_frontier(rng)
        v = (F(rng.randint(-9, 9), 3), F(rng.randint(-9, 9), 3))
        assert translate(translate(f, v), (-v[0], -v[1])) == f


def test_support_examples():
    f = fr((0, 1), (1, 0))
    assert support(f, (1, 1)) == 1
    assert support(f, (1, 0)) == 1
    assert support(fr((-2, -1), (-1, -2)), (1, 2)) == -4


def test_support_rejects_bad_directions():
    f = fr((0, 1), (1, 0))
    with pytest.raises(InvalidArgument):
        support(f, (-1, 1))
    with pytest.raises(InvalidArgument):
        support(f, (0, 0))


def test_contains_basics():
    f = fr((0, 1), (1, 0))
    assert contains(f, (F(2, 5), F(1, 2)))
    assert not contains(f, (F(3, 5), F(3, 5)))
    assert contains(f, (-100, -100))
    assert not contains(f, (F(11, 10), -100))


def test_extremal_points_returns_vertices():
    f = fr((0, 1), (1, 0), (F(1, 2), F(1, 2)))
    assert extremal_points(f) == ((F(0), F(1)), (F(1), F(0)))


# ---------------------------------------------------------------------------
# Monotonicity of the binary operations (inclusion via support dominance)


def _subset(f, g) -> bool:
    return all(support(f, w) <= support(g, w) for w in DIRECTIONS_32)


def test_binary_ops_monotone_under_inclusion():
    rng = random.Random(23)
    for _ in range(40):
        f1, f2 = random_frontier(rng), random_frontier(rng)
        g1 = dwc_conv_union(f1, random_frontier(rng))
        g2 = dwc_conv_union(f2, random_frontier(rng))
        assert _subset(f1, g1) and _subset(f2, g2)
        assert _subset(dwc_conv_union(f1, f2), dwc_conv_union(g1, g2))
        assert _subset(intersect_min(f1, f2), intersect_min(g1, g2))
        p = rng.choice([F(1, 2), F(1, 3), F(3, 4)])
        assert _subset(
            weighted_sum([(p, f1), (1 - p, f2)]),
            weighted_sum([(p, g1), (1 - p, g2)]),
        )


# ---------------------------------------------------------------------------
# CSV round trip and malformed rows


@given(point_lists)
def test_csv_round_trip(points):
    f = canonicalize(points)
    assert frontier_from_csv(frontier_to_csv(f)) == f


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1,2,3\n",
            "line 1: '1,2,3': a point needs exactly two coordinates, "
            "got ['1', '2', '3']",
        ),
        ("0,1\n1/2,x\n", "line 2: '1/2,x': Invalid literal for Fraction: 'x'"),
        ("\n0,1\n\n1/0,2\n", "line 4: '1/0,2': zero denominator in '1/0'"),
        (
            "1e10000000,0\n",
            "line 1: '1e10000000,0': exponent notation is not accepted: "
            "'1e10000000'",
        ),
        (
            "7\n",
            "line 1: '7': a point needs exactly two coordinates, got ['7']",
        ),
    ],
)
def test_malformed_csv_row_names_its_line(text, message):
    with pytest.raises(InvalidCurveFile) as info:
        frontier_from_csv(text)
    assert str(info.value) == message


def test_svg_labels_a_coordinate_too_long_to_print_by_its_bit_lengths():
    b = 10**4400
    bits = b.bit_length()
    svg = parseString(frontier_to_svg(Frontier(((0, b), (b, 0)))))
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")[1:]]
    assert labels == [f"(0,<{bits}-bit/1-bit>)", f"(<{bits}-bit/1-bit>,0)"]


def test_svg_title_is_escaped():
    title = "s&<script>alert(1)</script>"
    svg = parseString(frontier_to_svg(canonicalize([(F(0), F(1))]), title=title))
    first = svg.getElementsByTagName("text")[0]
    assert first.firstChild.data == title
    assert not svg.getElementsByTagName("script")


@pytest.mark.parametrize(
    "text",
    [
        "-2/1,-1/1\n-3/2,-3/2\n-1/1,-2/1\n",  # collinear middle vertex
        "-2/1,-1/1\n-1/1,-2/1\n-5/1,-5/1\n",  # dominated last row
        "-1/1,-2/1\n-2/1,-1/1\n",  # vertices out of order
        "0,1\n0,1\n",  # a repeated vertex
    ],
)
def test_csv_rows_that_are_not_a_canonical_frontier_are_refused(text):
    with pytest.raises(InvalidCurveFile, match="^rows are not a canonical frontier: "):
        frontier_from_csv(text)


@settings(max_examples=300)
@given(st.text() | st.text(alphabet="0123456789/,-+. \n\tx"))
def test_any_csv_text_loads_or_raises_a_package_error(text):
    try:
        f = frontier_from_csv(text)
    except GameSolverError:
        return
    assert isinstance(f, Frontier)


# ---------------------------------------------------------------------------
# Float-oracle equivalence on 1000 random vertex lists


def _cloud(f: Frontier) -> list[tuple[float, float]]:
    return [(float(x), float(y)) for x, y in f.vertices]


def test_binary_ops_match_float_oracle_thousand_lists():
    rng = random.Random(20260819)
    frontiers = []
    for _ in range(1000):
        k = rng.randint(1, 6)
        pts = [
            (F(rng.randint(-40, 40), 4), F(rng.randint(-40, 40), 4))
            for _ in range(k)
        ]
        frontiers.append(canonicalize(pts))
    for f1, f2 in zip(frontiers, frontiers[1:]):
        c1, c2 = _cloud(f1), _cloud(f2)
        assert fo.hausdorff(dwc_conv_union(f1, f2), fo.f_union(c1, c2)) <= 1e-9
        assert fo.hausdorff(intersect_min(f1, f2), fo.f_min(c1, c2)) <= 1e-9
        exact = weighted_sum([(F(1, 3), f1), (F(2, 3), f2)])
        approx = fo.f_wsum([(1 / 3, c1), (2 / 3, c2)])
        assert fo.hausdorff(exact, approx) <= 1e-9
