"""Span tracing of the package's public layer functions, from outside.

A ``Tracer`` replaces each traced function at every module attribute that
refers to it (the defining module and each module that imported it by name,
such as ``paretogames.cli.tail_bound``), so calls resolve to the wrapper
wherever the caller looks the name up.  Each call records one span (name,
parent span, start, end) in flat arrays; self time is computed afterwards as
a span's duration minus the durations of its direct child spans.  Counters
derived from arguments and results (vertex counts, distinct policy
evaluations, strategies, betting steps) are gathered at the same
boundaries.  ``restore`` puts every original attribute back.

A traced name that no longer exists is recorded in ``absent`` and its
metrics are left out, so the benchmark keeps working while the package's
internals move.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

PACKAGE = "paretogames"

# (module, function) pairs that get a span; "layer.function" names metrics.
SPANNED = (
    ("frontier", "canonicalize"),
    ("frontier", "dwc_conv_union"),
    ("frontier", "intersect_min"),
    ("frontier", "weighted_sum"),
    ("frontier", "translate"),
    ("games", "require_valid"),
    ("games", "check_stopping"),
    ("games", "load_game"),
    ("bellman", "value_iterate"),
    ("bellman", "tail_bound"),
    ("bellman", "check_fixpoint"),
    ("mdp", "policy_evaluate"),
    ("mdp", "mdp_pareto_curve"),
    ("mdp", "induce_mdp"),
    ("determined", "solve_determined"),
    ("betting", "simulate"),
    ("betting", "potential"),
    ("betting", "attractor"),
    ("betting", "validate_betting"),
    ("audit", "audit_game"),
    ("cli", "main"),
)

FRONTIER_OPS = {name for module, name in SPANNED if module == "frontier"}


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.counters: dict[str, float] = {}
        self.policy_keys: set = set()  # distinct (process, policy) evaluated

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over all recorded spans."""
        return aggregate(self.names, self.name_of, self.parent, self.start, self.end)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "parent", "start_ns", "end_ns"])
            for i in range(len(self.start)):
                out.writerow(
                    [i, self.names[self.name_of[i]], self.parent[i],
                     self.start[i], self.end[i]]
                )

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package refers to it."""
        for module, name in SPANNED:
            post = _frontier_post if name in FRONTIER_OPS else None
            if (module, name) == ("mdp", "policy_evaluate"):
                post = _policy_post
            elif (module, name) == ("betting", "simulate"):
                post = _simulate_post
            self._replace(module, name, lambda fn, key: self._spanned(key, fn, post))
        self._replace("determined", "enumerate_md_strategies", self._counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, module: str, name: str, make: Callable) -> None:
        key = f"{module}.{name}"
        home = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(home, name, None)
        if not callable(original):
            self.absent.append(key)
            return
        wrapper = make(original, key)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _spanned(self, key: str, fn: Callable, post) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, key: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.bump("determined.strategies")
                yield item

        return wrapper

    # -- counters ----------------------------------------------------------

    def bump(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def _frontier_post(tracer: Tracer, args, kwargs, result) -> None:
    vertices = result.vertices
    tracer.bump("frontier.vertices_out", len(vertices))
    tracer.peak("frontier.max_vertices", len(vertices))
    bits = max(
        (max(x.denominator.bit_length(), y.denominator.bit_length()) for x, y in vertices),
        default=0,
    )
    tracer.peak("frontier.max_den_bits", bits)


def _policy_post(tracer: Tracer, args, kwargs, result) -> None:
    mdp, pol = args[0], (args[1] if len(args) > 1 else kwargs["pol"])
    tracer.policy_keys.add((mdp, frozenset(pol.items())))


def _simulate_post(tracer: Tracer, args, kwargs, result) -> None:
    tracer.bump("betting.steps", len(result.steps) - 1)


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def aggregate(names, name_of, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per name: span count and summed self time, where a span's self time
    is its duration minus the durations of its direct children."""
    n = len(start)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list] = {}
    for i in range(n):
        rec = out.setdefault(names[name_of[i]], [0, 0])
        rec[0] += 1
        rec[1] += end[i] - start[i] - child[i]
    return {k: (calls, ns / 1e9) for k, (calls, ns) in out.items()}


def load_spans(path: Path) -> list[dict]:
    """Read back a span file written by ``Tracer.write_spans``."""
    with open(path, newline="") as fh:
        return [
            {"span": int(r["span"]), "name": r["name"], "parent": int(r["parent"]),
             "start_ns": int(r["start_ns"]), "end_ns": int(r["end_ns"])}
            for r in csv.DictReader(fh)
        ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, without the absent ones."""
    stats = tracer.self_times()
    out: dict[str, float] = {}
    for module, name in SPANNED:
        key = f"{module}.{name}"
        if key in tracer.absent:
            continue
        calls, self_s = stats.get(key, (0, 0.0))
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
    absent = set(tracer.absent)
    if not {f"frontier.{op}" for op in FRONTIER_OPS} <= absent:
        for name in ("frontier.vertices_out", "frontier.max_vertices", "frontier.max_den_bits"):
            out[name] = tracer.counters.get(name, 0)
    if "mdp.policy_evaluate" not in absent:
        calls = out["mdp.policy_evaluate.calls"]
        distinct = len(tracer.policy_keys)
        out["mdp.policy_evaluate.distinct"] = distinct
        out["mdp.policy_evaluate.useful_ratio"] = distinct / calls if calls else 0.0
    if "determined.enumerate_md_strategies" not in absent:
        out["determined.strategies"] = tracer.counters.get("determined.strategies", 0)
    if "betting.simulate" not in absent:
        out["betting.steps"] = tracer.counters.get("betting.steps", 0)
    return out
