"""Exact simplex with unit pivots on a condensed integer tableau.

Solves   maximize c.x   subject to  A x <= b,  x >= 0
for an ``int`` matrix A and rational (``int`` or ``Fraction``) c and b >= 0,
so the slack basis is feasible and a single phase suffices.  Entering
variable: Dantzig rule (largest positive reduced cost, smallest variable
index among equals), switching to Bland's rule after a pivot budget to
guarantee termination; leaving variable: minimum ratio with smallest-index
tie break.

The tableau is condensed (Tucker's dictionary form, as in Avis's lrs): it
stores the columns of the nonbasic variables only, not the identity block of
the basic ones.  It holds A as is, the right-hand side times the lcm of b's
denominators and the objective row times c's.  Every pivot entry must be 1,
as it is when A is totally unimodular, like the dual norm LP's rows e_x and
e_x - e_y (Hoffman and Kruskal 1956).  Then the tableau stays equal to the
rational tableau ``[A | I]``, up to the scaling of its last column and row,
the ratio test compares right-hand sides, and every pivot choice is the
rational tableau's.  A positive entry other than 1 in an entering column
raises ``DomainError``.  Fractions appear only in the result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import index, neg
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .metric import scale

ZERO = Fraction(0)
_POSITIVE = (0).__lt__
# Dantzig's rule chooses the first DANTZIG_FACTOR * (m + n) pivots, Bland's
# rule the rest
DANTZIG_FACTOR = 20


def simplex_max(
    c: Sequence[Fraction],
    a: Sequence[Sequence[int]],
    b: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x) of max c.x s.t. A x <= b, x >= 0."""
    m = len(a)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise DomainError("inconsistent LP dimensions")
    try:
        tab = [list(map(index, col)) for col in (zip(*a) if m else [()] * n)]
    except TypeError:
        raise DomainError("LP constraint matrix must hold ints") from None
    lb, rhs = scale(b, "LP data")
    _, obj = scale(c, "LP data")
    if any(bi < 0 for bi in rhs):
        raise DomainError("right-hand side must be non-negative")
    for col, cj in zip(tab, obj):
        col.append(cj)
    rhs.append(0)
    tab.append(rhs)
    cols = list(range(n))
    basis = list(range(n, n + m))

    dantzig_budget = DANTZIG_FACTOR * (m + n)
    max_pivots = 2000 * (m + n)
    pivots = 0
    while True:
        if pivots > max_pivots:
            raise InternalCheckError("simplex pivot budget exhausted")
        enter = -1
        if pivots > dantzig_budget:
            # Bland: the smallest variable with a positive reduced cost
            for s in range(n):
                if tab[s][m] > 0 and (enter < 0 or cols[s] < cols[enter]):
                    enter = s
        else:
            best = 0
            for s in range(n):
                cost = tab[s][m]
                if cost > best or (cost == best > 0 and cols[s] < cols[enter]):
                    best = cost
                    enter = s
        if enter < 0:
            break
        # every candidate pivot entry is 1, so the ratios are the rhs entries
        col = tab[enter]
        leave = -1
        for i in compress(range(m), map(_POSITIVE, col)):
            if col[i] != 1:
                raise DomainError(
                    f"pivot entry {col[i]} is not 1: the constraint matrix "
                    "is not totally unimodular"
                )
            if leave < 0 or rhs[i] < rhs[leave] or (
                rhs[i] == rhs[leave] and basis[i] < basis[leave]
            ):
                leave = i
        if leave < 0:
            raise DomainError("linear program is unbounded")
        # a module-global call, so that a wrapper (the benchmark's pivot
        # counter) sees every pivot
        pivot(tab, cols, basis, leave, enter)
        pivots += 1

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rhs[i], lb)
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return value, x


def pivot(tab, cols, basis, r, e):
    """Unit pivot on ``tab[e][r] == 1``: entering variable ``cols[e]`` swaps
    with leaving variable ``basis[r]``.  Off row ``r``, every other column
    ``j`` loses ``P_j`` times column ``e``, where ``P`` is the pivot row, so
    columns with ``P_j == 0`` keep their entries; column ``e`` becomes the
    leaving variable's, its negation with 1 in row ``r``."""
    f = tab[e]
    nonzero = [(i, f[i]) for i in compress(range(len(f)), f) if i != r]
    for j, col in enumerate(tab):
        pj = col[r]
        if pj and j != e:
            for i, fi in nonzero:
                col[i] -= fi * pj
    new = list(map(neg, f))
    new[r] = 1
    tab[e] = new
    cols[e], basis[r] = basis[r], cols[e]
