"""Finite (pseudo)metric spaces over exact rationals.

Every distance is a ``fractions.Fraction`` at the API; no floating point
enters any computation, so axiom checks and inequalities are decided exactly.
The scans and solvers read the int form, ``space.scaled``: the distances
times the lcm of their denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from math import gcd, lcm
from operator import sub
from typing import Iterable, Optional, Sequence

from .errors import DomainError, StructuralError


def scale(
    values: Sequence[Fraction], what: str, unit: int = 1
) -> tuple[int, list[int]]:
    """``(den, ints)``: the lcm of ``unit`` and the denominators of the
    values, and the values times it, ``ints[i] == den * values[i]``.  Raises
    ``DomainError`` naming ``what`` when a value is not an exact rational."""
    try:
        den = lcm(unit, *{v.denominator for v in values})
        return den, [v.numerator * (den // v.denominator) for v in values]
    except AttributeError:
        raise DomainError(f"{what} must be exact rationals") from None


def scale_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``scale`` over a rational matrix: ``(den, ints)`` with the int matrix
    ``ints[i][j] == den * rows[i][j]``."""
    den, flat = scale([v for row in rows for v in row], "distances")
    it = iter(flat)
    return den, tuple(tuple(islice(it, len(row))) for row in rows)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with a square rational distance matrix.

    ``pseudo=True`` permits d(x, y) = 0 for distinct x, y.  Construction does
    not validate the axioms; call :func:`validate` (loaders do this for you).
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    pseudo: bool = False

    def __post_init__(self):
        n = len(self.points)
        index = {label: i for i, label in enumerate(self.points)}
        if len(index) != n:
            raise StructuralError("duplicate point labels")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise StructuralError(
                "distance matrix shape does not match point count"
            )
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_scaled(cls, points, den: int, rows, pseudo: bool = False):
        """The space with distances ``rows[i][j] / den`` (``den > 0``), one
        ``Fraction`` per distinct value.  ``(den, rows)``, reduced by their
        gcd so that it equals ``scale_rows(dist)``, is stored as ``scaled``."""
        distinct = set(chain.from_iterable(rows))
        g = gcd(den, *distinct)
        value = {v // g: Fraction(v, den) for v in distinct}
        rows = tuple(tuple(map(g.__rfloordiv__, row)) for row in rows)
        dist = tuple(tuple(map(value.__getitem__, row)) for row in rows)
        space = cls(tuple(points), dist, pseudo)
        space.__dict__["scaled"] = den // g, rows
        return space

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise DomainError(f"unknown point label {label!r}") from None

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``scale_rows(dist)``, the int form of the distances that the
        solvers read.  Set by :meth:`from_scaled`, else computed on first
        use; not a field, so ``==`` and hashing ignore it."""
        return scale_rows(self.dist)

    def d_label(self, a: str, b: str) -> Fraction:
        return self.dist[self.index(a)][self.index(b)]


@dataclass(frozen=True)
class PointedSpace:
    """A metric space with a distinguished basepoint (the origin of the
    free space built over it)."""

    space: FiniteMetricSpace
    basepoint: int

    def __post_init__(self):
        if not 0 <= self.basepoint < self.space.n:
            raise StructuralError("basepoint index out of range")

    @property
    def basepoint_label(self) -> str:
        return self.space.points[self.basepoint]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    axiom: Optional[str] = None  # symmetry | diagonal | triangle | separation
    witness: Optional[tuple[str, ...]] = None

    def as_json(self):
        if self.ok:
            return {"ok": True}
        return {"ok": False, "axiom": self.axiom, "witness": list(self.witness)}


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check the (pseudo)metric axioms, returning the first violation found.

    Checks run in the order symmetry, zero diagonal, triangle inequality,
    separation (skipped for pseudometrics).  Negative entries surface as
    triangle violations via d(x, x) <= 2 d(x, y).

    The scans read the int matrix of ``space.scaled``, so every comparison
    is an int comparison.  A distance that is not an exact rational (a
    float, a string, ``None``) raises ``DomainError("distances must be exact
    rationals")`` instead of a report.

    The witness is the lexicographically first violating index tuple, and
    each scan visits only the half of the tuples that can be first.  A pair
    (i, j) is asymmetric exactly when (j, i) is, so symmetry scans j > i.
    Once d is symmetric, d(i, k) > d(i, j) + d(j, k) holds exactly when
    d(k, i) > d(k, j) + d(j, i), so the first violating triple has i <= k and
    the triangle scan runs k from i; k = i still tests d(i, i) <= 2 d(i, j).
    Each pair (i, j) is first pre-tested at C level, by the largest
    d(i, k) - d(j, k) over k >= i, and k is scanned for the first violating
    index only when that test fires; the witness order is unchanged.
    """
    return _scan(space, space.scaled[1])


def _scan(space: FiniteMetricSpace, d: Sequence[Sequence]) -> ValidationReport:
    """``validate``'s scans over ``d``, one of ``space``'s own matrices: its
    int rows, or its ``Fraction`` rows for ``katetov.star_fragment``'s
    self-check.  Both are the distances up to one positive factor, so they
    give the same report."""
    pts = space.points
    n = space.n
    for i, di in enumerate(d):
        for j in range(i + 1, n):
            if di[j] != d[j][i]:
                return ValidationReport(False, "symmetry", (pts[i], pts[j]))
    for i, di in enumerate(d):
        if di[i] != 0:
            return ValidationReport(False, "diagonal", (pts[i],))
    for i, di in enumerate(d):
        tail = di[i:]
        for j, dj in enumerate(d):
            dij = di[j]
            if max(map(sub, tail, dj[i:])) > dij:
                k = next(k for k in range(i, n) if di[k] > dij + dj[k])
                return ValidationReport(
                    False, "triangle", (pts[i], pts[j], pts[k])
                )
    if not space.pseudo:
        for i, di in enumerate(d):
            for j in range(i + 1, n):
                if di[j] == 0:
                    return ValidationReport(
                        False, "separation", (pts[i], pts[j])
                    )
    return ValidationReport(True)


def require_valid(space: FiniteMetricSpace) -> FiniteMetricSpace:
    report = validate(space)
    if not report.ok:
        raise DomainError(
            f"metric axiom violated: {report.axiom} at {report.witness}"
        )
    return space


def set_distance(
    space: FiniteMetricSpace, a: Iterable[str], b: Iterable[str]
) -> Fraction:
    """min over (x, y) in A x B of d(x, y)."""
    ia = [space.index(x) for x in a]
    ib = [space.index(x) for x in b]
    if not ia or not ib:
        raise DomainError("set_distance requires non-empty sets")
    return min(space.dist[i][j] for i, j in product(ia, ib))
