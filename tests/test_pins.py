"""Exact outputs of the game transforms, the betting attractor, the curve
hull and the stopping check.

``normalize`` and ``discount_transform`` build new states with fresh ids in
a fixed order, ``attractor`` returns a strategy and escape lengths, the hull
behind ``canonicalize``, ``dwc_conv_union`` and ``intersect_min`` returns a
vertex list, and ``check_stopping`` a verdict with its witness set; the
other tests check what these mean, and these digests pin what they are, so
a rewrite of any of them must reproduce them bit for bit.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

from paretogames import (
    Game,
    Kind,
    StateRecord,
    attractor,
    canonicalize,
    check_stopping,
    discount_transform,
    dwc_conv_union,
    game_to_json,
    intersect_min,
    normalize,
)
from randgen import random_betting_game, random_game, random_stopping_game

# Some ids collide with the names the transforms derive, so fresh ids get
# numbered suffixes.
ID_POOL = ["a", "b", "c", "d", "e", "f", "a__split", "b__in", "c__disc", "__sink"]


def _wide_game(seed: int) -> Game:
    """A valid game with up to five successors per state, so that
    ``normalize`` splits both chance and controlled states."""
    rng = random.Random(seed)
    ids = rng.sample(ID_POOL, rng.randint(3, len(ID_POOL)))
    terminals = set(rng.sample(ids[1:], rng.randint(1, 2)))
    states = []
    for sid in ids:
        if sid in terminals:
            states.append(StateRecord(sid, Kind.TERMINAL, (0, 0), ((sid, 1),)))
            continue
        kind = rng.choice([Kind.P1, Kind.P2, Kind.CHANCE])
        reward = rng.choice([(0, 0), (rng.randint(-3, 3), rng.randint(-3, 3))])
        targets = rng.sample(ids, rng.randint(1, min(5, len(ids))))
        if kind is Kind.CHANCE:
            weights = [rng.randint(1, 4) for _ in targets]
            trans = tuple((t, F(w, sum(weights))) for t, w in zip(targets, weights))
        else:
            trans = tuple((t, 1) for t in targets)
        states.append(StateRecord(sid, kind, reward, trans))
    return Game(ids[0], tuple(states))


def _game_records():
    games = [random_game(seed, max_states=8) for seed in range(60)]
    games += [random_stopping_game(seed, max_states=8) for seed in range(60)]
    games += [_wide_game(seed) for seed in range(60)]
    for g in games:
        out = normalize(g)
        yield game_to_json(out)
        yield game_to_json(discount_transform(out, F(9, 10)))


def _attractor_records():
    for seed in range(100):
        bg, targets = random_betting_game(random.Random(seed))
        ids = bg.vertex_ids
        for T in (targets, {ids[0]}, set(ids[::2])):
            res = attractor(bg, T)
            yield (
                sorted(res.winning),
                sorted(res.sigma.items()),
                sorted(res.a.items()),
                sorted((v, str(o)) for v, o in res.offsets.items()),
            )


def _sha256(records) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(json.dumps(rec).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_transform_and_attractor_outputs_are_pinned():
    assert _sha256(_game_records()) == (
        "f2e0f3e06ed31461af18c8aee52420ab7219f818ad66f9d1b10f23d6d9fc1515"
    )
    assert _sha256(_attractor_records()) == (
        "1eaa0acd4da0b443850cb5831379e4522033273b9d441899d1c46b72df9b687f"
    )


def _point_list(rng: random.Random, last_x: F | None = None) -> list:
    """Points on a small grid, so that repeats and shared x values are
    common, a collinear run and points of a concave arc, so that some
    curves are long; with ``last_x`` no point lies right of it
    and one lies on it, so the curve ends at that x."""
    pts = []
    for _ in range(rng.randint(1, 10)):
        den = rng.choice([1, 1, 2, 3])
        pts.append((F(rng.randint(-4, 4), den), F(rng.randint(-4, 4), den)))
    x0, y0, dy = rng.randint(-4, 0), rng.randint(0, 4), rng.choice([0, 1, F(1, 2)])
    pts += [(F(x0 + i), y0 - dy * i) for i in range(rng.randint(0, 5))]
    pts += [(F(x, 2), F(-x * x, 8)) for x in rng.sample(range(-8, 9), rng.randint(0, 9))]
    pts += rng.sample(pts, rng.randint(0, len(pts)))
    if last_x is not None:
        pts = [p for p in pts if p[0] < last_x] + [(last_x, F(rng.randint(-6, 4)))]
    rng.shuffle(pts)
    return pts


def _curve_records():
    rng = random.Random(2016)
    for i in range(600):
        f = canonicalize(_point_list(rng))
        g = canonicalize(_point_list(rng, f.x_last if i % 3 == 0 else None))
        for h in (f, g, dwc_conv_union(f, g), intersect_min(f, g)):
            yield [[str(x), str(y)] for x, y in h.vertices]


def _stopping_records():
    games = [random_game(seed, max_states=10) for seed in range(300)]
    games += [random_stopping_game(seed, max_states=10) for seed in range(100)]
    for g in games:
        report = check_stopping(g)
        yield (report.stopping, sorted(report.witness_closed_set))


def test_hull_and_stopping_outputs_are_pinned():
    assert _sha256(_curve_records()) == (
        "d9203b9f69e173c8f3d854b553ecd2dfbe414f2dc966c541780e248dc89b07b9"
    )
    assert _sha256(_stopping_records()) == (
        "f8b1a1a0d7b03efc2dacace8b0cf432fc907faa4b994da14f8ab23e1f2d41d32"
    )
