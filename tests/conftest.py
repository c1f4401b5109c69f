import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from exactmetric import FiniteMetricSpace, PointedSpace

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).parent.parent / "bench"


def F(v):
    return Fraction(v)


def space_from_rows(labels, rows, pseudo=False):
    return FiniteMetricSpace(
        tuple(labels),
        tuple(tuple(Fraction(v) for v in row) for row in rows),
        pseudo,
    )


def bench_module(name):
    """A module of the benchmark harness, loaded from its file (``bench`` is
    a directory of scripts, not a package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def line013():
    """The three-point line 0 -- 1 -- 3 used throughout the examples."""
    return space_from_rows(["0", "1", "3"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


@pytest.fixture
def line013_pointed(line013):
    return PointedSpace(line013, 0)
