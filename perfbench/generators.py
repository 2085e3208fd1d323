"""Seeded instance generators for the benchmark workloads.

Each generator is a pure function of its seed and returns plain JSON-ready
data in the package's documented file formats, so the solver under test
receives only game and arena files (or objects loaded from them), never
anything computed by the benchmark.  Seeds are mixed with a per-generator
tag through ``random.Random(str)``, which is stable across processes and
independent of ``PYTHONHASHSEED``; the same seed gives byte-identical JSON.

Workloads run a seeded copy (``seeded_copy``) of instances generated from a
fixed base seed: the run's seed renames the states and rescales the
rewards, which leaves the cost of solving unchanged, so spread between runs
measures the program rather than the draw of the instance; and exact
results of the copy, mapped back, must equal the pinned results of the base
instance at every seed.

Games are stopping by construction rather than by resampling: controlled
states only move to later states, and every chance state has one successor
later than itself.  The last state of any closed set of non-terminal states
would need a successor after it inside the set, so no such set exists.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Two-way chance splits with small denominators: exact arithmetic stays fast
# while the probabilities are still not all dyadic.
PROB_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4))

# Edge weights of betting arenas (the second edge takes 1 - w).
WEIGHTS = ((1, 3), (1, 2), (2, 3), (2, 5), (3, 5))


def _q(num: int, den: int = 1) -> str:
    return _text(Fraction(num, den))


def _text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _reward(rng: random.Random, bound: int) -> list[str]:
    return [_q(rng.randint(-2 * bound, 2 * bound), 2) for _ in range(2)]


def _forward_game(
    rng: random.Random,
    kinds: list[str],
    n_terminals: int,
    reward_bound: int,
    window: int,
) -> dict:
    """Non-terminal states s0.. of the given kinds followed by terminals
    t0..; controlled states pick successors within ``window`` states after
    themselves, chance states one such forward successor and one anywhere."""
    ids = [f"s{i}" for i in range(len(kinds))] + [f"t{i}" for i in range(n_terminals)]
    states = []
    for i, kind in enumerate(kinds):
        ahead = ids[i + 1 : i + 1 + window]
        if kind == "chance":
            p, q = rng.choice(PROB_PAIRS)
            fwd = rng.choice(ahead)
            other = rng.choice([t for t in ids if t != fwd])
            trans = [{"to": fwd, "prob": _q(p, q)}, {"to": other, "prob": _q(q - p, q)}]
        else:
            k = 2 if kind == "p2" or rng.random() < 0.7 else 1
            trans = [{"to": t} for t in rng.sample(ahead, k)]
        states.append(
            {"id": ids[i], "kind": kind, "reward": _reward(rng, reward_bound),
             "transitions": trans}
        )
    for tid in ids[len(kinds):]:
        states.append(
            {"id": tid, "kind": "terminal", "reward": ["0/1", "0/1"],
             "transitions": [{"to": tid}]}
        )
    return {"initial": ids[0], "states": states}


def wide_game(seed: int, n_inner: int) -> dict:
    """A large stopping game of mostly chance and minimizer states with a
    few maximizer states, so that per-state curves stay short."""
    rng = random.Random(f"wide:{seed}")
    pool = ["chance"] * 5 + ["p2"] * 7 + ["p1"]
    kinds = [rng.choice(pool) for _ in range(n_inner)]
    return _forward_game(rng, kinds, 4, reward_bound=2, window=24)


def determined_game(seed: int, index: int, n_p2: int) -> dict:
    """A 10-12-state stopping game with exactly ``n_p2`` binary minimizer
    states, the rest maximizer and chance states."""
    rng = random.Random(f"determined:{seed}:{index}")
    n_terminals = 2
    n_inner = rng.randint(10, 12) - n_terminals
    p2 = set(rng.sample(range(n_inner), n_p2))
    kinds = [
        "p2" if i in p2 else rng.choice(["p1", "chance", "chance"])
        for i in range(n_inner)
    ]
    return _forward_game(rng, kinds, n_terminals, reward_bound=3, window=n_inner)


def seeded_copy(instance: dict, seed: int) -> tuple[dict, dict]:
    """A copy of a game or betting arena with every state id given a seeded
    prefix and, for games, the two reward axes scaled by seeded powers of
    two.

    Every curve operation commutes with renaming and with a positive scaling
    of each axis, so a copied game's curves are the original's, scaled; the
    prefix keeps the order of the ids and of the states, so the copy costs
    the same to solve or play.  Returns the copy and
    ``{"prefix": p, "scale": [a, b]}``."""
    rng = random.Random(f"copy:{seed}")
    prefix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)) + "_"
    scale = [rng.choice((1, 2, 4)) for _ in range(2)]
    states = []
    for s in instance["states"]:
        copy = {**s, "id": prefix + s["id"],
                "transitions": [{**t, "to": prefix + t["to"]} for t in s["transitions"]]}
        if "reward" in s:
            copy["reward"] = [_text(Fraction(r) * k) for r, k in zip(s["reward"], scale)]
        states.append(copy)
    init = instance["initial"]
    initial = prefix + init if isinstance(init, str) else {**init, "vertex": prefix + init["vertex"]}
    return {"initial": initial, "states": states}, {"prefix": prefix, "scale": scale}


def betting_arena(seed: int, index: int) -> dict:
    """An 8-12-vertex betting arena won by the bettor from every vertex for
    the target set {v0}.

    Every Adam vertex moves only to lower-numbered vertices and every Eve
    vertex has one lower-numbered successor, so v_i lies in layer <= i of
    the attractor of v0.  The initial configuration is a placeholder; plays
    take theirs from ``betting_starts``."""
    rng = random.Random(f"betting:{seed}:{index}")
    n = rng.randint(8, 12)
    ids = [f"v{i}" for i in range(n)]
    vertices = []
    for i, vid in enumerate(ids):
        if i >= 2 and rng.random() < 0.3:
            kind = "adam"
            t1, t2 = rng.sample(ids[:i], 2)
        else:
            kind = "eve"
            t1 = rng.choice(ids[:i] or ids[1:])
            t2 = rng.choice([t for t in ids if t not in (vid, t1)])
        if rng.random() < 0.5:
            t1, t2 = t2, t1
        p, q = rng.choice(WEIGHTS)
        vertices.append(
            {"id": vid, "kind": kind, "transitions": [
                {"to": t1, "weight": _q(p, q)}, {"to": t2, "weight": _q(q - p, q)}]}
        )
    return {"initial": {"vertex": ids[-1], "credit": "1/1"}, "states": vertices}


def betting_starts(seed: int, index: int, n: int, count: int) -> list[dict]:
    """``count`` off-target initial configurations for the ``n``-vertex
    arena ``index``, with credit between 2 and 8.

    The credit stays at least 1, so a bet of 0 never beats the other
    successor's potential and plays do not get stuck at credit 0 after
    reaching the target with less than their initial credit, which the
    simulator would only end at its astronomically large step bound."""
    rng = random.Random(f"betting-starts:{seed}:{index}")
    return [
        {"vertex": f"v{rng.randint(1, n - 1)}",
         "credit": _q(rng.randint(4, 16), 2)}
        for _ in range(count)
    ]


def to_json_text(data: dict) -> str:
    """The exact bytes the benchmark writes for a generated instance."""
    return json.dumps(data, indent=2) + "\n"
