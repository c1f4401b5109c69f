"""The benchmark harness reaches into the library by name; these tests make
a rename or a wrong answer fail tier-1, not only a benchmark run."""

import contextlib
import hashlib
import importlib
import io
import json
import subprocess
import sys
from random import Random
from types import SimpleNamespace

import pytest

from exactmetric import actions, cli, freespace, jsonio, katetov, quotients, randgen, simplex
from exactmetric.freespace import Molecule, aell_norm_dual, aell_norm_primal
from exactmetric.randgen import (
    rand_coeffs,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)

from conftest import BENCH, FIXTURES, bench_module, cli_env
from test_simplex import _difference_rows, _dual_args, _rational_simplex_max


def test_tracing_wraps_every_layer_entry_point():
    tracing = bench_module("tracing")
    for module in {m for m, _, _ in tracing.SPANS}:
        importlib.import_module(f"exactmetric.{module}")
    post_init = quotients.InvariantPseudometric.__post_init__
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        wrapped = {attr for _, attr, _ in undo}
        spans = {attr.split(".")[-1] for _, attr, _ in tracing.SPANS}
        assert spans | {"pivot"} <= wrapped
        quotients.pullback_pseudometric(rotation_action(4), "0")
    finally:
        tracing.restore(undo)
    assert quotients.InvariantPseudometric.__post_init__ is post_init
    assert [s[0] for s in tracer.spans].count("quotients.pseudometric") == 2


def test_traced_pivot_count_matches_the_rational_tableau(monkeypatch):
    """``simplex.pivots`` counts calls of ``simplex.pivot``, one per pivot
    of the tableau that the rational oracle pivots: in ``simplex_max`` on
    the rows of a dual norm LP, which counts one ``simplex.calls``, and in
    ``aell_norm_dual``, which poses that LP to ``difference_max``."""
    tracing = bench_module("tracing")
    rng = Random(104)
    space = rand_metric_space(rng, 10)
    pointed = rand_pointed(rng, space)
    m = Molecule.make(pointed, {x: randgen.rand_fraction(rng, -5, 5) for x in space.points})
    lp = _difference_rows(*_dual_args(monkeypatch, m))
    tracers = []
    for run in (lambda: simplex.simplex_max(*lp), lambda: aell_norm_dual(m)):
        tracers.append(tracing.Tracer())
        undo = tracing.instrument(tracers[-1])
        try:
            run()
        finally:
            tracing.restore(undo)
    pivots = []
    _rational_simplex_max(*lp, pivots)
    rows, dual = (tracer.counts for tracer in tracers)
    assert rows["simplex.calls"] == 1
    assert rows["simplex.pivots"] == dual["simplex.pivots"] == len(pivots) > 10


def test_norms_match_the_network_simplex_oracle():
    """Both norm routes equal networkx's min-cost flow on the integer-scaled
    transport problem, a third solver sharing no code with the library."""
    pytest.importorskip("networkx")
    oracles = bench_module("oracles")
    rng = Random(103)
    for _ in range(200):
        space = rand_metric_space(rng, rng.randint(2, 8))
        pointed = rand_pointed(rng, space)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        balance = oracles.molecule_balance(
            space.points, pointed.basepoint_label, dict(m.coeffs)
        )
        expected = oracles.transport_cost(space.points, space.dist, balance)
        assert aell_norm_primal(m)[0] == expected
        assert aell_norm_dual(m)[0] == expected


def test_bench_selftest_passes():
    """Every bench handler and oracle still runs against the library: the
    self-test answers each workload at tiny sizes and checks the answers."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# sha256 of each workload's full-scale request list at seed 1, recorded
# before the random generators moved to integer closures.
PINNED_REQUESTS = {
    "norm": "30a9a727684e86a69cd8845341a8e014b281dea97f1df2ffa0d690fd4d3500ff",
    "distance": "d333ff0cde351e2615dd341e53aa7fc26e902513388f3f7b7aa8351d0853ec4e",
    "extension": "a1eb1bf8e6cfb7529ae130a9cc3d5929bfcf93705ca6516dca8c5de418c3596f",
    "quotient": "39ce2b8cb073e642c4ffd15ca37848540a4e0d8ace959b3306fecd9741cb390f",
}


def test_benchmark_requests_are_pinned(monkeypatch):
    """The benchmark compares documents only within one run, so a generator
    change could silently give two commits different inputs.  This hashes
    the requests as ``run.timed_setup`` serializes them."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = bench_module("workloads")
    L = SimpleNamespace(randgen=randgen)
    for workload, expected in PINNED_REQUESTS.items():
        h = hashlib.sha256()
        for kind, doc in workloads.generate(L, workload, 1):
            h.update(f"{kind}\n{json.dumps(doc, sort_keys=True)}\n".encode())
        assert h.hexdigest() == expected, workload


# sha256 of one tiny-scale pass's answers per workload at seed 0, recorded
# before the Katetov layer moved to integers.
PINNED_TINY_ANSWERS = {
    "norm": "11cb8c2912875c3e5f3e3951938c25c7ec66bdc847230f9bd38b49cfd7f27371",
    "distance": "8583334918f7e5fff30244ec92c1a66cbf603331ece054cc1671f1d65d1a765b",
    "extension": "030e6167ac118125b701df305bd2e1eaa9788e39e9d99630f8406a2446c195d7",
    "quotient": "d9051fdcb0a96735ec88b2f77146947f26bcb762782929ec3da1c642d8f2b21b",
}


def test_tiny_benchmark_answers_are_pinned(monkeypatch):
    """A change to any answer the benchmark checks fails tier-1, not only a
    benchmark run.  ``run.timed_setup`` re-imports ``exactmetric``; the
    modules every other test imported are put back afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = bench_module("run")
    ours = [m for m in sys.modules if m.split(".")[0] == "exactmetric"]
    for name in ours:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    for workload, expected in PINNED_TINY_ANSWERS.items():
        L, requests, _, problems = run.timed_setup(workload, 0, scale="tiny")
        answers = run.run_pass(L, requests, run.tracing.NullTracer())
        assert not problems and not answers.errors, workload
        assert answers.digest() == expected, workload


# (kind, fixture) for each benchmark handler that answers a CLI subcommand
# from the same input keys.
SHARED_KINDS = [
    ("norm", "molecule.json"),
    ("star", "star.json"),
    ("star", "star_dedup.json"),
    ("hat-extend", "function.json"),
    ("prop-k", "prop_k.json"),
    ("iso-enum", "space_line.json"),
    ("pullback", "action_c6.json"),
    ("quotient", "pseudometric_s3.json"),
    ("fvf", "group_z5.json"),
    ("fvf", "group_d12.json"),
]


@pytest.mark.parametrize("kind,name", SHARED_KINDS)
def test_bench_handlers_answer_as_the_cli(monkeypatch, kind, name):
    """The benchmark answers these kinds with its own load, call and emit,
    so it times a copy of the subcommand; on each fixture the copy's payload
    is the one ``cli.main`` prints."""
    monkeypatch.syspath_prepend(str(BENCH))
    load, call, emit = bench_module("workloads").HANDLERS[kind]
    L = SimpleNamespace(
        actions=actions, freespace=freespace, jsonio=jsonio,
        katetov=katetov, quotients=quotients,
    )
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    payload = emit(L, call(L, load(L, doc)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([kind, "--in", str(FIXTURES / name)]) == 0
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
