"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks that
1. the same seed gives byte-identical request documents, and another seed
   different ones;
2. a planted wrong answer is counted as failed: a norm off by 1/1000 on
   both routes (so only the oracle can see it), and an FVF cover missing
   one element;
3. traced and untraced passes give the same output digest, with no failure;
4. ``BENCHMARK.json`` names exactly the metrics the benchmark reports.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
import tracing
from workloads import WORKLOADS

OFF = Fraction(1, 1000)


def tiny(workload, seed=0):
    L, requests, _, problems = run.timed_setup(workload, seed, scale="tiny")
    if problems:
        raise RuntimeError("; ".join(problems))
    return L, requests


def checked_pass(L, requests, tracer=None):
    p = run.run_pass(L, requests, tracer or tracing.NullTracer())
    run.check_pass(p, requests, None)
    return p


def check_documents():
    for w in WORKLOADS:
        first, again, other = tiny(w, 0)[1], tiny(w, 0)[1], tiny(w, 1)[1]
        if first != again:
            return f"{w}: seed 0 gave different documents"
        if first == other:
            return f"{w}: seeds 0 and 1 gave the same documents"
    return None


def check_planted_norm():
    for w in ("norm", "distance"):
        L, requests = tiny(w)
        fs = L.freespace
        dual, primal = fs.aell_norm_dual, fs.aell_norm_primal
        fs.aell_norm_dual = lambda m: (lambda r: (r[0] + OFF, r[1]))(dual(m))
        fs.aell_norm_primal = lambda m: (lambda r: (r[0] + OFF, r[1]))(primal(m))
        p = checked_pass(L, requests)
        if len(p.errors) != len(requests):
            return f"{w}: {len(p.errors)} of {len(requests)} planted wrong norms counted"
    return None


def check_planted_fvf():
    L, requests = tiny("quotient")
    cover = L.quotients.min_fvf_cover
    L.quotients.min_fvf_cover = lambda g, v: (lambda r: (r[0], r[1][:-1]))(cover(g, v))
    p = checked_pass(L, requests)
    fvf = {i for i, (kind, _) in enumerate(requests) if kind == "fvf"}
    if set(p.errors) != fvf:
        return f"planted FVF covers: failed {sorted(p.errors)}, expected {sorted(fvf)}"
    return None


def check_traced_digest():
    for w in WORKLOADS:
        L, requests = tiny(w)
        plain = checked_pass(L, requests)
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        try:
            traced = checked_pass(L, requests, tracer)
        finally:
            tracing.restore(undo)
        if plain.errors or traced.errors:
            return f"{w}: failures {plain.errors or traced.errors}"
        if plain.digest() != traced.digest():
            return f"{w}: traced and untraced digests differ"
        if not tracer.spans:
            return f"{w}: the traced pass recorded no span"
    return None


def check_manifest():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    L, requests = tiny("norm")
    p = checked_pass(L, requests)
    reported = {k: u for k, (_, u) in run.end_to_end([p], [0.1]).items()}
    if declared != reported:
        return f"end_to_end: BENCHMARK.json {declared}, reported {reported}"
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracing.LAYER_METRICS:
        return "per_layer in BENCHMARK.json differs from tracing.LAYER_METRICS"
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        return "workloads in BENCHMARK.json differ from the benchmark's"
    return None


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for check in (check_documents, check_planted_norm, check_planted_fvf,
                  check_traced_digest, check_manifest):
        problem = check()
        failed += problem is not None
        print(f"{'FAIL' if problem else 'ok  '} {check.__name__}" + (f": {problem}" if problem else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
