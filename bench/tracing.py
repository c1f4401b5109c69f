"""Layer spans and counters, recorded from outside the library.

``instrument`` replaces the public entry points of each layer with wrappers
that open a span around the call, in every ``exactmetric`` module that
imported them, and ``restore`` puts the originals back.  Spans stay in
memory; a layer's self time is its span time minus the time of the spans it
contains.  Counts marked "computed" are derived from call arguments and
results, so they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from math import comb
from time import perf_counter

# (module, attribute, span).  Attributes with a dot are methods.
SPANS = [
    ("simplex", "simplex_max", "simplex"),
    ("freespace", "aell_norm_dual", "freespace.dual"),
    ("freespace", "aell_norm_primal", "freespace.primal"),
    ("metric", "validate", "metric.validate"),
    ("katetov", "KatetovFunction.__post_init__", "katetov"),
    ("katetov", "hat_extension", "katetov"),
    ("katetov", "star_fragment", "katetov"),
    ("katetov", "tower", "katetov"),
    ("katetov", "prop_k_gap", "katetov"),
    ("actions", "enumerate_isometries", "actions"),
    ("actions", "action_from_closure", "actions"),
    ("actions", "GroupAction.__post_init__", "actions"),
    ("groups", "FiniteGroup.__post_init__", "groups"),
    ("quotients", "pullback_pseudometric", "quotients.pseudometric"),
    ("quotients", "InvariantPseudometric.__post_init__", "quotients.pseudometric"),
    ("quotients", "quotient_space", "quotients.quotient"),
    ("quotients", "orbit_isomorphism", "quotients.orbit"),
    ("quotients", "moving_certificate", "quotients.certificate"),
    ("quotients", "min_fvf_cover", "quotients.fvf"),
]


def _fvf_candidates(args, result) -> int:
    """Subsets ``min_fvf_cover`` tests before it returns (k, F): every subset
    of the sizes 1..k-1, then the k-subsets up to F in lexicographic order."""
    n = args[0].order
    k, f = result
    rank, prev = 0, -1
    for i, x in enumerate(f):
        for y in range(prev + 1, x):
            rank += comb(n - 1 - y, k - 1 - i)
        prev = x
    return sum(comb(n, s) for s in range(1, k)) + rank + 1


# attribute -> function(counter, args, result) adding computed counts
COUNTS = {
    "simplex_max": lambda c, a, r: c.update({
        "simplex.calls": 1,
        "simplex.cells": (len(a[1]) + 1) * (len(a[0]) + len(a[1]) + 1),
    }),
    "aell_norm_primal": lambda c, a, r: c.update({
        "freespace.primal.calls": 1, "freespace.plan_arcs": len(r[1]),
    }),
    "validate": lambda c, a, r: c.update({
        "metric.validate.calls": 1, "metric.triangle_checks": a[0].n ** 3,
    }),
    "hat_extension": lambda c, a, r: c.update({"katetov.hats": 1}),
    "star_fragment": lambda c, a, r: c.update({
        "katetov.attachments": len(r.attached),
        "katetov.fresh": sum(rec.fresh for rec in r.attached),
    }),
    "enumerate_isometries": lambda c, a, r: c.update({"actions.isometries": len(r)}),
    "min_fvf_cover": lambda c, a, r: c.update({
        "quotients.fvf_candidates": _fvf_candidates(a, r),
    }),
}


class Tracer:
    """Spans of one traced pass: [name, parent, request, start, end, child]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, parent, self.request, perf_counter(), 0.0, 0.0])

    def exit(self) -> None:
        rec = self.spans[self.stack.pop()]
        rec[4] = perf_counter()
        if rec[1] >= 0:
            self.spans[rec[1]][5] += rec[4] - rec[3]

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_times(self) -> Counter:
        """Self time per (request, layer); ``metric.validate`` is split by
        whether it ran inside a ``jsonio`` load (read path) or on a space
        the library built (write path)."""
        out: Counter = Counter()
        for name, parent, request, start, end, child in self.spans:
            if name == "metric.validate":
                name = "metric.validate.built"
                while parent >= 0:
                    if self.spans[parent][0] == "jsonio":
                        name = "metric.validate.load"
                        break
                    parent = self.spans[parent][1]
            out[request, name] += end - start - child
        return out


class NullTracer:
    """Stands in for a tracer in untraced passes."""

    request = -1

    @contextmanager
    def span(self, name: str):
        yield


def _wrap(fn, name, tracer, count):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return wrapper


def _count_calls(fn, tracer, key):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "exactmetric" or name.startswith("exactmetric."))]


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer entry point; returns what ``restore`` needs."""
    modules = _library_modules()
    undo = []

    def replace(owner, attr, original, wrapper):
        for holder in [owner] + [m for m in modules if m is not owner]:
            if holder.__dict__.get(attr) is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    lib = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for module, attr, name in SPANS:
        owner = lib[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr]
        replace(owner, attr, original, _wrap(original, name, tracer, COUNTS.get(attr)))
    pivot = lib["simplex"].pivot
    replace(lib["simplex"], "pivot", pivot, _count_calls(pivot, tracer, "simplex.pivots"))
    return undo


def restore(undo) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# Per-layer metrics: (name, unit, better).  Self times are in seconds.
LAYER_METRICS = [
    ("simplex.calls", "count", "lower"),
    ("simplex.self_s", "s", "lower"),
    ("simplex.pivots", "count", "lower"),
    ("simplex.cells", "count", "lower"),
    ("freespace.dual.self_s", "s", "lower"),
    ("freespace.primal.calls", "count", "lower"),
    ("freespace.primal.self_s", "s", "lower"),
    ("freespace.plan_arcs", "count", "lower"),
    ("metric.validate.calls", "count", "lower"),
    ("metric.validate.load_s", "s", "lower"),
    ("metric.validate.built_s", "s", "lower"),
    ("metric.triangle_checks", "count", "lower"),
    ("jsonio.self_s", "s", "lower"),
    ("jsonio.bytes_in", "B", "lower"),
    ("jsonio.bytes_out", "B", "lower"),
    ("katetov.self_s", "s", "lower"),
    ("katetov.hats", "count", "lower"),
    ("katetov.fresh_ratio", "ratio", "higher"),
    ("actions.self_s", "s", "lower"),
    ("actions.isometries", "count", "lower"),
    ("groups.self_s", "s", "lower"),
    ("quotients.pseudometric_s", "s", "lower"),
    ("quotients.quotient_s", "s", "lower"),
    ("quotients.orbit_s", "s", "lower"),
    ("quotients.certificate_s", "s", "lower"),
    ("quotients.fvf_s", "s", "lower"),
    ("quotients.fvf_candidates", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]

# self-time span -> metric name
SELF_METRICS = {
    "simplex": "simplex.self_s",
    "freespace.dual": "freespace.dual.self_s",
    "freespace.primal": "freespace.primal.self_s",
    "metric.validate.load": "metric.validate.load_s",
    "metric.validate.built": "metric.validate.built_s",
    "jsonio": "jsonio.self_s",
    "katetov": "katetov.self_s",
    "actions": "actions.self_s",
    "groups": "groups.self_s",
    "quotients.pseudometric": "quotients.pseudometric_s",
    "quotients.quotient": "quotients.quotient_s",
    "quotients.orbit": "quotients.orbit_s",
    "quotients.certificate": "quotients.certificate_s",
    "quotients.fvf": "quotients.fvf_s",
    "request": "harness.self_s",
}

# The layers each workload is built to stress (self-time metrics summed).
DOMINANT = {
    "norm": ["simplex.self_s"],
    "distance": ["freespace.primal.self_s"],
    "extension": ["metric.validate.built_s", "katetov.self_s"],
    "quotient": [
        "quotients.pseudometric_s", "quotients.quotient_s", "quotients.orbit_s",
        "quotients.certificate_s", "quotients.fvf_s", "actions.self_s", "groups.self_s",
    ],
}


def layer_values(tracers: list[Tracer], scales: list[list[float]]) -> dict[str, float]:
    """Self times and computed counts of the traced passes, by metric name.

    A request's self time in a layer is scaled to reference speed by the
    pass's factor for that request, and is the median over the traced
    passes, as for the end-to-end times; counts come from the first pass."""
    samples: dict = {}
    for tracer, scale in zip(tracers, scales):
        for (request, name), t in tracer.self_times().items():
            samples.setdefault((request, name), []).append(t * scale[request])
    out: Counter = Counter()
    for (_, name), ts in samples.items():
        # a span missing from some pass would be 0 there
        ts += [0.0] * (len(tracers) - len(ts))
        out[SELF_METRICS[name]] += statistics.median(ts)
    out.update(tracers[0].counts)
    attached = out.pop("katetov.attachments", 0)
    fresh = out.pop("katetov.fresh", 0)
    out["katetov.fresh_ratio"] = fresh / attached if attached else 0.0
    return dict(out)
