"""Seeded end-to-end benchmark of the exactmetric library.

    python3 bench/run.py --workload norm --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  Set-up imports ``exactmetric`` and generates the
workload's request documents from the seed, SETUP_REPS times, and reports
the median.  The timed phase is a closed loop: one client, one request at a
time, the same fixed request list answered in passes until ``--seconds``
would be exceeded (at least MIN_ROUNDS passes).  Every answer is checked by
an oracle that does not use the library; oracle time is outside every
timing.

Timings are in reference-speed seconds.  A shared host runs the same code at
between 1x and 2.2x of its best time, changing within seconds and for
minutes at a stretch, so measured seconds from different runs cannot be
compared.  A short probe loop (``probe``) runs before and after every
request and every set-up; each measured time is multiplied by
PROBE_REF_S / (mean probe time next to it).  A request's time is then its
median over the passes.  The summary lines also print the measured seconds.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and it reports per-layer
self times and computed counts from the traced passes, plus the tracing
overhead.  Lines before it give a readable summary, the output digest and
any failures.  Exit status: 0 after a run (a failed check shows as
``"correct": false``), 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing
from oracles import CHECKS
from workloads import HANDLERS, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_ROUNDS = 1
# The host-speed probe: a fixed loop of Fraction additions, the library's
# staple operation.  PROBE_REF_S is about its typical time on the reference
# host (a shared 2-core VM, Python 3.11), so reference-speed seconds are
# close to the seconds a run there usually measures.
PROBE_ITERS = 400
PROBE_REF_S = 0.0015
MODULES = ("jsonio", "metric", "simplex", "freespace", "katetov", "groups",
           "actions", "quotients", "randgen")


class Library:
    """The freshly imported ``exactmetric`` package and its modules."""

    def __init__(self):
        for name in [m for m in sys.modules if m.split(".")[0] == "exactmetric"]:
            del sys.modules[name]
        self.package = importlib.import_module("exactmetric")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"exactmetric.{name}"))


def probe() -> float:
    """Seconds the probe loop takes now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERS):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def emit_text(payload) -> str:
    """The bytes the CLI would print for this payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class Pass:
    """One pass over the request list.  ``times`` and ``cpu_times`` are
    measured seconds; ``scale`` converts them to reference-speed seconds."""

    times: list = field(default_factory=list)
    cpu_times: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # request index -> message

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update((text or "<failed>\n").encode())
        return h.hexdigest()


def run_pass(L, requests, tracer) -> Pass:
    """Answer every request once: load, layer call and emission are timed."""
    clock, cpu = time.perf_counter, time.process_time
    out = Pass()
    before = probe()
    for i, (kind, doc) in enumerate(requests):
        load, call, emit = HANDLERS[kind]
        tracer.request = i
        c0, t0 = cpu(), clock()
        try:
            with tracer.span("request"):
                with tracer.span("jsonio"):
                    obj = load(L, json.loads(doc))
                result = call(L, obj)
                with tracer.span("jsonio"):
                    text = emit_text(emit(L, result))
        except Exception as exc:  # a failed request is counted, not fatal
            text = None
            out.errors[i] = f"{kind}: {type(exc).__name__}: {exc}"
        t1, c1 = clock(), cpu()
        after = probe()
        out.times.append(t1 - t0)
        out.cpu_times.append(c1 - c0)
        out.scale.append(2 * PROBE_REF_S / (before + after))
        out.texts.append(text)
        before = after
    return out


def check_pass(p: Pass, requests, reference: Pass | None) -> None:
    """Record oracle failures in ``p.errors``.  The oracles run on the first
    pass; later passes must repeat its answers byte for byte."""
    for i, ((kind, doc), text) in enumerate(zip(requests, p.texts)):
        if text is None:
            continue
        if reference is not None:
            if text != reference.texts[i]:
                p.errors[i] = f"{kind}: answer differs from the first pass"
            continue
        try:
            problems = CHECKS[kind](json.loads(doc), json.loads(text))
        except Exception as exc:  # a malformed answer fails its check
            problems = [f"oracle could not read the answer: {type(exc).__name__}: {exc}"]
        if problems:
            p.errors[i] = f"{kind}: " + "; ".join(problems)


def timed_setup(workload, seed, scale="full"):
    """Import the library and generate the documents SETUP_REPS times.
    Returns (library, requests, reference-speed set-up seconds per rep,
    problems)."""
    times, docs = [], None
    problems = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        L = Library()
        requests = [(kind, json.dumps(doc, sort_keys=True))
                    for kind, doc in generate(L, workload, seed, scale)]
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2 * PROBE_REF_S / (before + probe()))
        if docs is not None and requests != docs:
            problems.append("set-up produced different documents for the same seed")
        docs = requests
    return L, docs, times, problems


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record_digest(workload, seed, digest) -> str | None:
    """Keep the digest of (code, workload, seed); return the one recorded
    by an earlier run when it differs."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    key = f"{source_hash()}:{workload}:{seed}"
    earlier = book.setdefault(key, digest)
    if earlier == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return earlier


def per_request(passes, attr="times") -> list[float]:
    """Each request's median over the passes, in reference-speed seconds."""
    return [statistics.median(x) for x in zip(*(
        [t * k for t, k in zip(getattr(p, attr), p.scale)] for p in passes))]


def measure(L, requests, seconds, trace_mode):
    """Run rounds of one untraced pass (and, when tracing, one traced pass)
    until the next round would end after ``seconds``, and at least
    MIN_ROUNDS.  Returns the untraced passes, the traced passes and their
    tracers."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(L, requests, tracing.NullTracer()))
        check_pass(plain[-1], requests, plain[0] if len(plain) > 1 else None)
        if trace_mode:
            tracer = tracing.Tracer()
            undo = tracing.instrument(tracer)
            try:
                traced.append(run_pass(L, requests, tracer))
            finally:
                tracing.restore(undo)
            tracers.append(tracer)
            check_pass(traced[-1], requests, plain[0])
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_ROUNDS and elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, traced, tracers


def end_to_end(plain, setup_times):
    ops = per_request(plain)
    return {
        "wall_s": (sum(ops), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_p90_s": (statistics.quantiles(ops, n=10)[8], "s"),
        "cpu_s": (sum(per_request(plain, "cpu_times")), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(plain, traced, tracers, requests):
    """Per-layer metrics and any problem with the computed counts."""
    values = tracing.layer_values(tracers, [p.scale for p in traced])
    metrics = {name: (values.get(name, 0), unit) for name, unit, _ in tracing.LAYER_METRICS}
    metrics["jsonio.bytes_in"] = (sum(len(doc) for _, doc in requests), "B")
    metrics["jsonio.bytes_out"] = (sum(len(t or "") for t in plain[0].texts), "B")
    overhead = sum(per_request(traced)) / sum(per_request(plain)) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    same = all(t.counts == tracers[0].counts for t in tracers)
    return metrics, [] if same else ["computed counts differ between traced passes"]


def write_spans(workload, seed, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for pass_no, tracer in enumerate(tracers):
            t0 = tracer.spans[0][3] if tracer.spans else 0.0
            for name, parent, request, start, end, _ in tracer.spans:
                fh.write(json.dumps([pass_no, request, name, parent,
                                     round(start - t0, 9), round(end - t0, 9)]) + "\n")
    return path


def dominant_report(workload, metrics) -> str:
    """Whether the layers the workload is built to stress hold more self time
    than any other layer."""
    layers = {k: v for k, (v, unit) in metrics.items() if unit == "s" and k != "harness.self_s"}
    intended = tracing.DOMINANT[workload]
    share = sum(layers[k] for k in intended)
    others = max(v for k, v in layers.items() if k not in intended)
    top = max(layers, key=layers.get)
    verdict = "holds" if share > others else "DOES NOT hold"
    return (f"dominant layer: {' + '.join(intended)} = {share / sum(layers.values()):.1%} "
            f"of layer self time ({verdict}); largest single self time: {top}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "exactmetric" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/exactmetric", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    L, requests, setup_times, problems = timed_setup(args.workload, args.seed)
    if not Path(L.package.__file__).resolve().is_relative_to(SRC):
        print(f"error: exactmetric imported from {L.package.__file__}", file=sys.stderr)
        return 2
    plain, traced, tracers = measure(L, requests, args.seconds, args.trace == 1)

    digest = plain[0].digest()
    for p in plain[1:] + traced:
        if p.digest() != digest:
            problems.append("a pass gave a different output digest")
    earlier = record_digest(args.workload, args.seed, digest)
    if earlier is not None:
        problems.append(f"digest differs from an earlier run of this code and seed ({earlier})")

    attempted = sum(len(p.texts) for p in plain + traced)
    failed = sum(len(p.errors) for p in plain + traced)
    if problems:  # a run-level mismatch fails every request of the run
        failed = attempted
    if args.trace:
        metrics, count_problems = per_layer(plain, traced, tracers, requests)
        if count_problems:
            problems += count_problems
            failed = attempted
    else:
        metrics = end_to_end(plain, setup_times)

    kinds = sorted({kind for kind, _ in requests})
    measured = statistics.median(sum(p.times) for p in plain)
    slowdown = statistics.median(1 / k for p in plain for k in p.scale)
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests "
          f"({', '.join(kinds)}), {len(plain)} untraced + {len(traced)} traced passes; "
          f"{len(requests)} latency samples, each a request's median over the passes")
    print(f"measured: median pass {measured:.4f} s, at {slowdown:.2f}x the probe's "
          f"reference time (median)")
    print(f"output digest sha256:{digest}")
    for msg in problems:
        print(f"FAILED: {msg}")
    for p in plain + traced:
        for i, msg in sorted(p.errors.items()):
            print(f"FAILED request {i}: {msg}")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if args.trace:
        print(f"spans written to {write_spans(args.workload, args.seed, tracers).relative_to(ROOT)}")
        print(dominant_report(args.workload, metrics))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
