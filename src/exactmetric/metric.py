"""Finite (pseudo)metric spaces over exact rationals.

A space stores its distances once, as int rows over a common denominator,
``space.scaled``, which the scans and solvers read; the ``Fraction`` matrix
of the API, ``space.dist``, is made from it when first read.  No floating
point enters any computation, so every check is decided exactly.
``validate`` certifies a valid space on its int rows packed one int each
(``pack_rows``), testing each pair of points once in one int of twice a
row's width, and finds the first violation of any other by ``_scan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, islice, product, repeat
from math import gcd, lcm
from operator import add, and_, getitem, lshift, lt, ne, sub
from typing import Iterable, Optional, Sequence

from .errors import DomainError, StructuralError, refusing

_INEXACT = refusing(DomainError, "distances must be exact rationals")


def scale(
    values: Sequence[Fraction], what: str, unit: int = 1
) -> tuple[int, list[int]]:
    """``(den, ints)``: the lcm of ``unit`` and the denominators of the
    values, and the values times it, ``ints[i] == den * values[i]``.  Raises
    ``DomainError`` naming ``what`` when a value is not an exact rational."""
    with refusing(DomainError, f"{what} must be exact rationals"):
        den = lcm(unit, *{v.denominator for v in values})
        return den, [v.numerator * (den // v.denominator) for v in values]


@dataclass(frozen=True, init=False)
class FiniteMetricSpace:
    """Labeled points with a square rational distance matrix, stored once as
    ``scaled = (den, rows)``: int rows over ``den``, reduced by the gcd of
    ``den`` and every entry, so that equal matrices store equal ints.  The
    fields ``points``, ``scaled`` and ``pseudo`` make equality and hashing.

    ``pseudo=True`` permits d(x, y) = 0 for distinct x, y.  Construction does
    not validate the axioms; call :func:`validate` (loaders do this for you).
    """

    points: tuple[str, ...]
    scaled: tuple[int, tuple[tuple[int, ...], ...]]
    pseudo: bool = False

    def __init__(self, points, dist, pseudo: bool = False):
        """The space with the rational matrix ``dist``, read once."""
        with _INEXACT:
            rows = [tuple(row) for row in dist]
        den, flat = scale(list(chain.from_iterable(rows)), "distances")
        it = iter(flat)
        self._store(points, den, [tuple(islice(it, len(r))) for r in rows], pseudo)

    @classmethod
    def from_scaled(cls, points, den: int, rows, pseudo: bool = False):
        """The space with distances ``rows[i][j] / den`` (``den > 0``), stored
        as ints; no ``Fraction`` is made."""
        return object.__new__(cls)._store(points, den, rows, pseudo)

    def _store(self, points, den: int, rows, pseudo: bool):
        """Both constructors' one store step: labels, rows read once, shape, gcd."""
        with refusing(StructuralError,
                      "distance matrix shape does not match point count") as refuse:
            points = tuple(points)
            rows = tuple(map(tuple, rows))
            index = {label: i for i, label in enumerate(points)}
            if len(index) != len(points):
                raise StructuralError("duplicate point labels")
            refuse.unless({len(rows), *map(len, rows)} == {len(points)})
        with _INEXACT as refuse:
            refuse.unless(den > 0)
            g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows = tuple(tuple(map(g.__rfloordiv__, r)) for r in rows)
        scaled = den // g, rows
        self.__dict__.update(points=points, scaled=scaled, pseudo=pseudo, _index=index)
        return self

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise DomainError(f"unknown point label {label!r}") from None

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as ``Fraction`` rows, one ``Fraction`` per distinct
        value, made the first time they are read."""
        den, rows = self.scaled
        value = {v: Fraction(v, den) for v in set(chain.from_iterable(rows))}
        return tuple(tuple(map(value.__getitem__, row)) for row in rows)

    def d_label(self, a: str, b: str) -> Fraction:
        return self.dist[self.index(a)][self.index(b)]


@dataclass(frozen=True)
class PointedSpace:
    """A metric space with a distinguished basepoint (the origin of the
    free space built over it)."""

    space: FiniteMetricSpace
    basepoint: int

    def __post_init__(self):
        if not isinstance(self.basepoint, int):
            raise StructuralError("basepoint must be an integer index")
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
    triangle violations via d(x, x) <= 2 d(x, y).  Both steps below read the
    int matrix of ``space.scaled``, which holds only exact rationals.

    First a certificate: a symmetric matrix, a zero diagonal, no negative
    entry, n zeros unless ``pseudo``, and a pair test in one C-level
    pipeline over the pairs i < j.  On the rows P of ``pack_rows``, with G
    their guards and h = n·w bits a row, the pair's int holds two rows of
    fields.  Its low h bits are ``P[j] + d(i, j)·ONES - (P[i] ^ G)``, whose
    field k is the guard plus d(i, j) + d(j, k) - d(i, k); the bits above
    them are the same with i and j swapped.  So one pair tests the
    triangles through j from i and through i from j, and the pair (i, i)
    would test only d(i, k) <= d(i, k).  The int is ``lo[j] + hi[i] +
    spread[d(i, j)]``, with ``lo[j] = P[j] - ((P[j] ^ G) << h)``,
    ``hi[i] = (P[i] << h) - (P[i] ^ G)`` and ``spread[v] = t | t << h``
    for ``t = v·ONES``, one product per distinct value.  No borrow or
    carry crosses a field, nor the halves: the guard is 2**(w-1) > 2·max,
    so every field lies in [guard - max, guard + 2·max], within 0 and
    2**w.  The space is certified when every guard of both halves is set
    in every pair's int; otherwise ``_scan`` runs.
    """
    d, n = space.scaled[1], space.n
    if (d == tuple(zip(*d)) and not any(map(getitem, d, range(n)))
            and min(chain.from_iterable(d), default=0) >= 0
            and (space.pseudo or sum(map(tuple.count, d, repeat(0))) == n)):
        w, _, ones, guards, packed = pack_rows(d)
        h, r = n * w, range(n)
        lo = [p - ((p ^ guards) << h) for p in packed]
        hi = [(p << h) - (p ^ guards) for p in packed]
        spread = {v: (t := v * ones) | t << h for v in set(chain(*d))}
        pairs = map(add, chain.from_iterable([lo[i + 1:] for i in r]),
                    map(add, chain.from_iterable(map(repeat, hi, reversed(r))),
                        map(spread.__getitem__,
                            chain.from_iterable([di[i + 1:] for i, di in enumerate(d)]))))
        both = guards | guards << h
        if reduce(and_, pairs, both) == both:
            return ValidationReport(True)
    return _scan(space, d)


def _scan(space: FiniteMetricSpace, d: Sequence[Sequence]) -> ValidationReport:
    """``validate``'s scans over ``d``, one of ``space``'s own matrices: its
    int rows, or its ``Fraction`` rows for ``katetov.star_fragment``'s
    self-check.  Both are the distances up to one positive factor, so they
    give the same report.

    The witness is the lexicographically first violating index tuple.  Each
    check tests a whole row (symmetry: the whole matrix) in one C-level
    expression, and loops over pairs or triples in Python only where that
    test fails, to find the first witness.  A pair (i, j) is asymmetric
    exactly when (j, i) is, so symmetry scans j > i.  Once d is symmetric,
    d(i, k) > d(i, j) + d(j, k) holds exactly when d(k, i) > d(k, j) +
    d(j, i), so the first violating triple has i <= k: row i fails when
    d(i, k) exceeds the least d(k, j) + d(i, j) over j, for some k >= i.
    k = i tests d(i, i) <= 2 d(i, j), which catches negative entries.  With
    a zero diagonal, a row has an off-diagonal zero exactly when it holds
    two zeros, and the first such row has its off-diagonal zeros at j > i.
    """
    pts = space.points
    n = space.n
    if any(map(ne, d, zip(*d))):
        for i, di in enumerate(d):
            for j in range(i + 1, n):
                if di[j] != d[j][i]:
                    return ValidationReport(False, "symmetry", (pts[i], pts[j]))
    for i, di in enumerate(d):
        if di[i] != 0:
            return ValidationReport(False, "diagonal", (pts[i],))
    for i, di in enumerate(d):
        # min over j of d(k, j) + d(i, j), for each k >= i, below d(i, k)
        if any(map(lt, map(min, map(map, repeat(add), d[i:], repeat(di))), di[i:])):
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
            if di.count(0) > 1:
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


def pack_rows(rows: Sequence[Sequence[int]]):
    """``(w, shifts, ones, guards, packed)``: a square matrix of non-negative
    ints packed one int per row with a guard bit per field (Lamport's SWAR):
    field j of row i is rows[i][j] below a set guard, in ``w`` bits, which
    leaves room for a sum of two entries, so no field borrows or carries
    into the next.  ``ones`` has a 1 in each field, ``guards`` each guard."""
    w = (2 * max(map(max, rows), default=0)).bit_length() + 1
    shifts = range(0, len(rows) * w, w)
    ones = sum(map(lshift, repeat(1), shifts))
    guards = ones << w - 1
    return w, shifts, ones, guards, [sum(map(lshift, r, shifts), guards) for r in rows]


def min_plus(rows: Sequence[Sequence[int]], values: Iterable[int]) -> tuple[int, ...]:
    """The min-plus extension: at each point x, the least v + row[x] over
    ``rows`` paired in order with ``values``.  Rows are drawn first, so a
    shared iterator gives exactly ``len(rows)`` values per call."""
    return tuple(map(min, zip(*map(map, repeat(add), rows, map(repeat, values)))))


def set_distance(
    space: FiniteMetricSpace, a: Iterable[str], b: Iterable[str]
) -> Fraction:
    """min over (x, y) in A x B of d(x, y), read from ``space.scaled``."""
    with refusing(DomainError, "set_distance requires non-empty sets") as refuse:
        ia = [space.index(x) for x in a]
        ib = [space.index(x) for x in b]
        refuse.unless(ia and ib)
    den, d = space.scaled
    return Fraction(min(d[i][j] for i, j in product(ia, ib)), den)
