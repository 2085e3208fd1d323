"""Slope-relation audits between parent curves and their successors."""
from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import islice

import pytest

from conftest import FIG3_EXACT, HEATING_EXACT, frontier_of, three_successor_game
from paretogames import (
    AuditFinding,
    RelationMismatch,
    audit_chance,
    audit_frontier,
    audit_game,
    audit_p1,
    audit_p2,
    canonicalize,
    iterates,
    make_game,
    translate,
    validate_game,
    value_iterate,
    weighted_sum,
)
from randgen import random_frontier, random_stopping_game

TINY = F(1, 10**12)


def fr(*pts):
    return canonicalize([tuple(map(F, p)) for p in pts])


# ---------------------------------------------------------------------------
# audit_frontier


def test_frontier_audit_passes_simple_segment():
    rep = audit_frontier(fr((0, 1), (1, 0)))
    assert rep.ok and not rep.findings


def test_frontier_audit_flags_non_decreasing_y():
    rep = audit_frontier([(F(0), F(1)), (F(1), F(1))])
    assert not rep.ok
    assert any("y not decreasing" in f.check for f in rep.findings)


def test_frontier_audit_passes_all_heating_curves():
    for pts in HEATING_EXACT.values():
        assert audit_frontier(frontier_of(pts)).ok


def test_frontier_audit_flags_convexity_break():
    rep = audit_frontier([(F(0), F(2)), (F(1), F(0)), (F(2), F(-1))])
    assert not rep.ok


def test_frontier_audit_passes_a_curve_too_long_to_print():
    # every cross product has about 8000 digits, past the interpreter's
    # int-to-text limit: a passing check formats no detail
    b = 10**4000 - 1
    rep = audit_frontier([(F(0), F(2 * b)), (F(b), F(b)), (F(2 * b), F(-b // 2))])
    assert rep.ok and rep.checks_run == 7


def test_frontier_audit_flags_a_curve_too_long_to_print_by_bit_lengths():
    b = 10**4400
    big = f"<{b.bit_length()}-bit/1-bit>"
    rep = audit_frontier([(F(0), F(b)), (F(b), F(b))])
    assert [(f.check, f.detail) for f in rep.findings] == [
        ("y not decreasing", f"y {big} then {big} (at x 0, {big})")
    ]


def test_frontier_report_text_and_json():
    good = audit_frontier(fr((0, 1), (1, 0)))
    assert good.to_text().startswith("PASS")
    bad = audit_frontier([(F(0), F(1)), (F(1), F(1))])
    assert bad.to_text().startswith("FAIL")
    data = bad.to_json_dict()
    assert data["ok"] is False and data["findings"]


# ---------------------------------------------------------------------------
# audit_p1


def test_p1_segment_between_two_points():
    rep = audit_p1(fr((0, 1), (1, 0)), fr((0, 1)), fr((1, 0)))
    assert rep.ok


def test_p1_identical_curves():
    f = fr((0, 1), (1, 0))
    assert audit_p1(f, f, f).ok


def test_p1_heating_top_state(heating):
    s = heating.state("CC1")
    parent = translate(
        frontier_of(HEATING_EXACT["CC1"]), (-s.reward[0], -s.reward[1])
    )
    t1, t2 = s.successors
    rep = audit_p1(
        parent, frontier_of(HEATING_EXACT[t1]), frontier_of(HEATING_EXACT[t2])
    )
    assert rep.ok


def test_p1_rejects_unrelated_curves():
    with pytest.raises(RelationMismatch):
        audit_p1(fr((5, 5)), fr((0, 1)), fr((1, 0)))


# ---------------------------------------------------------------------------
# audit_p2


def test_p2_heating_tuple():
    # HC2's curve (-1,-1), (0,-2) before its reward shift (0,-1).
    rep = audit_p2(
        fr((-1, 0), (0, -1)),
        fr((F(-1, 2), 0), (0, F(-1, 2))),
        fr((-1, 0), (0, -1)),
    )
    assert rep.ok


def test_p2_identical_successors():
    f = fr((-1, 0), (0, -1))
    rep = audit_p2(f, f, f)
    assert rep.ok


def test_p2_crossing_segments():
    s1 = fr((0, 4), (4, 0))
    s2 = fr((-2, 6), (4, -6))
    parent = fr((-1, 4), (4, -6))
    rep = audit_p2(parent, s1, s2)
    assert rep.ok


def test_p2_truncation_by_shorter_curve():
    s1 = fr((0, 0), (5, -10))
    s2 = fr((1, 3))
    parent = fr((0, 0), (1, -2))
    rep = audit_p2(parent, s1, s2)
    assert rep.ok


def test_p2_rejects_unrelated_curves():
    with pytest.raises(RelationMismatch):
        audit_p2(fr((5, 5)), fr((0, 1)), fr((1, 0)))


# ---------------------------------------------------------------------------
# audit_chance


def test_chance_heating_decomposition():
    rep = audit_chance(
        fr((F(-1, 2), F(-1, 2)), (0, -1)),
        fr((-1, -1), (0, -2)),
        fr((0, 0)),
        F(1, 2),
        F(1, 2),
    )
    assert rep.ok


def test_chance_two_points():
    rep = audit_chance(
        fr((F(1, 2), F(1, 2))), fr((1, 0)), fr((0, 1)), F(1, 2), F(1, 2)
    )
    assert rep.ok


def test_chance_parent_with_merged_equal_slopes():
    # Both segments have slope -1, so the canonical sum merges them into a
    # single segment; decomposition and the min-slope law still audit clean.
    s1 = fr((0, 1), (1, 0))
    s2 = fr((0, 2), (2, 0))
    parent = weighted_sum([(F(1, 2), s1), (F(1, 2), s2)])
    assert parent.vertices == ((F(0), F(3, 2)), (F(3, 2), F(0)))
    rep = audit_chance(parent, s1, s2, F(1, 2), F(1, 2))
    assert rep.ok


def test_chance_three_vertex_parent():
    s1 = fr((0, 1), (1, 0))
    s2 = fr((-1, 2), (2, 0))
    parent = weighted_sum([(F(1, 2), s1), (F(1, 2), s2)])
    assert len(parent) == 3
    rep = audit_chance(parent, s1, s2, F(1, 2), F(1, 2))
    assert rep.ok


def test_chance_rejects_unrelated_curves():
    with pytest.raises(RelationMismatch):
        audit_chance(fr((5, 5)), fr((0, 1)), fr((1, 0)), F(1, 2), F(1, 2))


def test_pairwise_audits_on_random_frontiers():
    rng = random.Random(53)
    for _ in range(300):
        f1, f2 = random_frontier(rng), random_frontier(rng)
        from paretogames import dwc_conv_union, intersect_min

        assert audit_p1(dwc_conv_union(f1, f2), f1, f2).ok
        assert audit_p2(intersect_min(f1, f2), f1, f2).ok
        p = rng.choice([F(1, 2), F(1, 3), F(3, 4)])
        parent = weighted_sum([(p, f1), (1 - p, f2)])
        assert audit_chance(parent, f1, f2, p, 1 - p).ok


# ---------------------------------------------------------------------------
# audit_game


def test_heating_family_audits_clean(heating):
    fam = {sid: frontier_of(pts) for sid, pts in HEATING_EXACT.items()}
    rep = audit_game(heating, fam)
    assert rep.ok and rep.checks_run > 0


def test_fig3_family_audits_clean(fig3):
    fam = {sid: frontier_of(pts) for sid, pts in FIG3_EXACT.items()}
    assert audit_game(fig3, fam).ok


def test_fig3_iterate_pair_audits_clean(fig3):
    hist = list(islice(iterates(fig3), 11))
    rep = audit_game(fig3, hist[10], prev=hist[9])
    assert rep.ok


def test_corrupted_family_is_caught(heating):
    fam = {sid: frontier_of(pts) for sid, pts in HEATING_EXACT.items()}
    fam["CC1"] = translate(fam["CC1"], (1, 0))
    rep = audit_game(heating, fam)
    assert not rep.ok
    assert any("CC1" in f.where for f in rep.findings)


def test_single_successor_mismatch_is_caught():
    g = make_game(
        "s",
        [
            ("s", "p2", (1, 2), [("t", 1)]),
            ("t", "terminal", (0, 0), [("t", 1)]),
        ],
    )
    fam = {"s": fr((1, 2)), "t": fr((0, 0))}
    clean = audit_game(g, fam)
    assert clean.ok and clean.checks_run == 2
    fam["s"] = fr((1, 3))
    rep = audit_game(g, fam)
    assert rep.checks_run == 2
    assert rep.findings == (
        AuditFinding(
            "s",
            "single-successor mismatch",
            "Frontier[(0,1)] != successor Frontier[(0,0)]",
        ),
    )


def test_missing_curve_is_reported(fig3):
    fam = {sid: frontier_of(pts) for sid, pts in FIG3_EXACT.items()}
    del fam["s3"]
    rep = audit_game(fig3, fam)
    assert not rep.ok
    assert any("missing" in f.check for f in rep.findings)


def test_invalid_game_fails_before_any_relation_check():
    g, pts = three_successor_game()
    rep = audit_game(g, {sid: frontier_of(v) for sid, v in pts.items()})
    assert validate_game(g).violations == ("a: more than 2 successors (3)",)
    assert not rep.ok
    assert rep.findings == (
        AuditFinding("", "invalid game", "a: more than 2 successors (3)"),
    )
    assert rep.to_text() == (
        "FAIL (1 checks)\n  invalid game: a: more than 2 successors (3)"
    )


def test_random_iterate_pairs_audit_clean_smoke():
    for seed in range(8):
        g = random_stopping_game(seed)
        res = value_iterate(g, TINY, 8)
        hist = list(islice(iterates(g), res.iterations + 1))
        for n in range(1, len(hist)):
            rep = audit_game(g, hist[n], prev=hist[n - 1])
            assert rep.ok, rep.to_text()
