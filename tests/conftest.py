import importlib.util
import os
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from exactmetric import FiniteMetricSpace, Isometry, PointedSpace

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parent.parent
BENCH = ROOT / "bench"


def F(v):
    return Fraction(v)


def space_from_rows(labels, rows, pseudo=False):
    return FiniteMetricSpace(
        tuple(labels),
        tuple(tuple(Fraction(v) for v in row) for row in rows),
        pseudo,
    )


def _load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def bench_module(name):
    """A module of the benchmark harness, loaded from its file (``bench`` is
    a directory of scripts, not a package)."""
    return _load_script(f"bench_{name}", BENCH / f"{name}.py")


def fixture_generator():
    """``tests/fixtures/generate.py``, which also lists the recorded CLI
    invocations and solver cases."""
    return _load_script("fixture_generator", FIXTURES / "generate.py")


def cli_env():
    """The environment for a ``python -m exactmetric.cli`` subprocess, with
    ``src`` on ``PYTHONPATH`` so that no install is needed."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


class Overrun(Exception):
    """A case ran past its bound."""


def within_bound(run, *args, bound):
    """``run(*args)``, interrupted by ``Overrun`` after ``bound`` seconds of
    this process's real time; the timer and the previous ``SIGALRM``
    handler are restored afterwards."""

    def expire(signum, frame):
        raise Overrun(f"no answer within {bound} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        return run(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def isometry_checks(monkeypatch):
    """The permutation of each ``Isometry`` checked while the test runs."""
    checked = []
    check = Isometry.__post_init__

    def counted(self):
        checked.append(self.perm)
        check(self)

    monkeypatch.setattr(Isometry, "__post_init__", counted)
    return checked


@pytest.fixture
def line013():
    """The three-point line 0 -- 1 -- 3 used throughout the examples."""
    return space_from_rows(["0", "1", "3"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


@pytest.fixture
def line013_pointed(line013):
    return PointedSpace(line013, 0)
