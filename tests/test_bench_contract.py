"""The benchmark harness reaches into the library by name; these tests make
a rename or a wrong answer fail tier-1, not only a benchmark run."""

import importlib
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from exactmetric import quotients
from exactmetric.freespace import Molecule, aell_norm_dual, aell_norm_primal
from exactmetric.randgen import (
    rand_coeffs,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)

from conftest import BENCH, bench_module, cli_env


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
            space.points, pointed.basepoint_label, m.as_dict()
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
