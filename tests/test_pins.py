"""Exact structure of the game transforms and of the betting attractor.

``normalize`` and ``discount_transform`` build new states with fresh ids in
a fixed order, and ``attractor`` returns a strategy and escape lengths; the
other tests check what these mean, and these digests pin what they are, so
a rewrite of either must reproduce them bit for bit.
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
    discount_transform,
    game_to_json,
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
