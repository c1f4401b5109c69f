"""Exact simplex on an integer tableau for small linear programs.

Solves   maximize c.x   subject to  A x <= b,  x >= 0
with rational (``int`` or ``Fraction``) data and b >= 0, so the slack basis
is feasible and a single phase suffices.  Entering variable: Dantzig rule,
switching to Bland's rule after a pivot budget to guarantee termination;
leaving variable: minimum ratio with smallest-index tie break.

The tableau holds integers: constraint rows are scaled by the lcm of A's
denominators, the right-hand side by b's and the objective row by c's.
Pivots are fraction-free (Edmonds 1967; Bareiss 1968): each row stays a
positive multiple of its rational counterpart, so every pivot choice is the
one the rational tableau makes.  Fractions appear only in the result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .metric import scale

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
    la, flat = scale([v for row in a for v in row], "LP data")
    lb, scaled_b = scale(b, "LP data")
    _, obj = scale(c, "LP data")
    if any(bi < 0 for bi in scaled_b):
        raise DomainError("right-hand side must be non-negative")

    # tableau rows: m constraint rows of la * [A | I] with the scaled b, then
    # the objective row holding reduced costs (maximization: stop when none
    # positive).
    rows = []
    for i in range(m):
        row = flat[i * n:(i + 1) * n] + [0] * (m + 1)
        row[n + i] = la
        row[-1] = scaled_b[i]
        rows.append(row)
    obj += [0] * (m + 1)
    rows.append(obj)
    basis = list(range(n, n + m))

    dantzig_budget = 20 * (m + n)
    max_pivots = 2000 * (m + n)
    pivots = 0
    det = 1
    while True:
        if pivots > max_pivots:
            raise InternalCheckError("simplex pivot budget exhausted")
        use_bland = pivots > dantzig_budget
        enter = -1
        if use_bland:
            for j in range(n + m):
                if obj[j] > 0:
                    enter = j
                    break
        else:
            best = 0
            for j in range(n + m):
                if obj[j] > best:
                    best = obj[j]
                    enter = j
        if enter < 0:
            break
        # ratios rows[i][-1] / rows[i][enter], compared by cross-multiplying
        # (every denominator is positive)
        leave = -1
        for i in range(m):
            aij = rows[i][enter]
            if aij > 0:
                if leave < 0:
                    leave, num, den = i, rows[i][-1], aij
                    continue
                lhs = rows[i][-1] * den
                rhs = num * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, rows[i][-1], aij
        if leave < 0:
            raise DomainError("linear program is unbounded")
        det = pivot(rows, leave, enter, det)
        basis[leave] = enter
        pivots += 1

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1] * la, rows[i][bi] * lb)
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return value, x


def pivot(rows, r, col, det):
    """Fraction-free pivot on ``rows[r][col]``, the previous pivot being
    ``det``: every other row, the objective row included, becomes
    ``(p * row - row[col] * prow) // det``, an exact division.  Returns the
    pivot ``p``, the ``det`` of the next pivot."""
    prow = rows[r]
    p = prow[col]
    # when p == det (every pivot of a totally unimodular [A | I]), rows with
    # row[col] == 0 and columns with prow[j] == 0 keep their entries
    nonzero = [(j, pj) for j, pj in enumerate(prow) if pj]
    for row in rows:
        if row is prow:
            continue
        factor = row[col]
        if p != det:
            row[:] = [(p * v - factor * pj) // det for v, pj in zip(row, prow)]
        elif factor:
            for j, pj in nonzero:
                row[j] -= factor * pj // det
    return p
