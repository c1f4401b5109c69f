"""Exact rational simplex for small linear programs.

Solves   maximize c.x   subject to  A x <= b,  x >= 0
with all data ``Fraction`` and b >= 0, so the slack basis is feasible and a
single phase suffices.  Entering variable: Dantzig rule, switching to Bland's
rule after a pivot budget to guarantee termination; leaving variable: minimum
ratio with smallest-index tie break.  All arithmetic is exact, so the optimum
and the optimal vertex are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InternalCheckError

ZERO = Fraction(0)


def simplex_max(
    c: Sequence[Fraction],
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x) of max c.x s.t. A x <= b, x >= 0."""
    m = len(a)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise DomainError("inconsistent LP dimensions")
    if any(bi < ZERO for bi in b):
        raise DomainError("right-hand side must be non-negative")

    # tableau rows: m constraint rows of [A | I | b], then the objective row
    # holding reduced costs (maximization: stop when none positive).
    rows = []
    for i in range(m):
        row = [ZERO] * (n + m + 1)
        for j in range(n):
            row[j] = Fraction(a[i][j])
        row[n + i] = Fraction(1)
        row[-1] = Fraction(b[i])
        rows.append(row)
    obj = [Fraction(c[j]) for j in range(n)] + [ZERO] * (m + 1)
    rows.append(obj)
    basis = list(range(n, n + m))

    dantzig_budget = 20 * (m + n)
    max_pivots = 2000 * (m + n)
    pivots = 0
    while True:
        if pivots > max_pivots:
            raise InternalCheckError("simplex pivot budget exhausted")
        use_bland = pivots > dantzig_budget
        enter = -1
        if use_bland:
            for j in range(n + m):
                if obj[j] > ZERO:
                    enter = j
                    break
        else:
            best = ZERO
            for j in range(n + m):
                if obj[j] > best:
                    best = obj[j]
                    enter = j
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            aij = rows[i][enter]
            if aij > ZERO:
                ratio = rows[i][-1] / aij
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise DomainError("linear program is unbounded")
        pivot(rows, leave, enter)
        basis[leave] = enter
        pivots += 1

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    value = sum((Fraction(c[j]) * x[j] for j in range(n)), ZERO)
    return value, x


def pivot(rows, r, col):
    """Scale row ``r`` to a 1 in column ``col`` and eliminate that column
    from every other row, the objective row included."""
    prow = rows[r]
    inv = Fraction(1) / prow[col]
    if inv != 1:
        rows[r] = prow = [v * inv for v in prow]
    nonzero = [(j, pj) for j, pj in enumerate(prow) if pj]
    for row in rows:
        if row is prow:
            continue
        factor = row[col]
        if factor:
            for j, pj in nonzero:
                row[j] -= factor * pj
