"""Exact simplex on a condensed integer tableau for small linear programs.

Solves   maximize c.x   subject to  A x <= b,  x >= 0
with rational (``int`` or ``Fraction``) data and b >= 0, so the slack basis
is feasible and a single phase suffices.  Entering variable: Dantzig rule
(largest positive reduced cost, smallest variable index among equals),
switching to Bland's rule after a pivot budget to guarantee termination;
leaving variable: minimum ratio with smallest-index tie break.

The tableau is condensed (Tucker's dictionary form, as in Avis's lrs): it
stores the columns of the nonbasic variables only, not the identity block of
the basic ones, and it holds integers.  A is scaled by the lcm of its
denominators, the right-hand side by b's and the objective row by c's.
Pivots are fraction-free (Edmonds 1967; Bareiss 1968): each row stays a
positive multiple of its rational counterpart, and ``diag`` keeps each row's
entry in its basic variable's column, which is not stored.  So every pivot
choice is the one the rational tableau ``[A | I]`` makes.  Fractions appear
only in the result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from operator import floordiv, index, mul
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .metric import scale

ZERO = Fraction(0)
_POSITIVE = (0).__lt__


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
    la, tab = _scaled_columns(a, m, n)
    lb, scaled_b = scale(b, "LP data")
    _, obj = scale(c, "LP data")
    if any(bi < 0 for bi in scaled_b):
        raise DomainError("right-hand side must be non-negative")
    for col, cj in zip(tab, obj):
        col.append(cj)
    rhs = scaled_b + [0]
    tab.append(rhs)
    cols = list(range(n))
    basis = list(range(n, n + m))
    # row i's entry in its basic variable's column, the column not stored
    diag = [la] * m

    dantzig_budget = 20 * (m + n)
    max_pivots = 2000 * (m + n)
    pivots = 0
    det = 1
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
        # ratios rhs[i] / col[i], compared by cross-multiplying (every
        # denominator is positive)
        col = tab[enter]
        leave = -1
        for i in compress(range(m), map(_POSITIVE, col)):
            aij = col[i]
            if leave < 0:
                leave, num, den = i, rhs[i], aij
                continue
            lhs = rhs[i] * den
            bound = num * aij
            if lhs < bound or (lhs == bound and basis[i] < basis[leave]):
                leave, num, den = i, rhs[i], aij
        if leave < 0:
            raise DomainError("linear program is unbounded")
        # a module-global call, so that a wrapper (the benchmark's pivot
        # counter) sees every pivot
        det = pivot(tab, diag, cols, basis, leave, enter, det)
        pivots += 1

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rhs[i] * la, diag[i] * lb)
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return value, x


def _scaled_columns(a, m, n):
    """``(la, columns)``: the lcm of A's denominators, and A's columns
    times it as int lists.  Integer data, the dual norm LP's, is copied
    as is."""
    columns = list(zip(*a)) if m else [()] * n
    try:
        return 1, [list(map(index, col)) for col in columns]
    except TypeError:
        la, flat = scale(list(chain.from_iterable(columns)), "LP data")
        return la, [flat[j * m:(j + 1) * m] for j in range(n)]


def pivot(tab, diag, cols, basis, r, e, det):
    """Fraction-free pivot on ``tab[e][r]``, the previous pivot being
    ``det``: entering variable ``cols[e]`` swaps with leaving variable
    ``basis[r]``.  Off row ``r``, every other column becomes
    ``(p * v - f_i * P_j) // det``, an exact division, where ``f`` is column
    ``e`` and ``P`` the pivot row; column ``e`` becomes the leaving
    variable's, and the basic entries in ``diag`` follow.  Returns the pivot
    ``p``, the ``det`` of the next pivot."""
    f = tab[e]
    p = f[r]
    dr = diag[r]
    if p == det:
        # every pivot of a totally unimodular [A | I]: rows with f_i == 0 and
        # columns with P_j == 0 keep their entries, and so does diag
        nonzero = [(i, f[i]) for i in compress(range(len(f)), f) if i != r]
        for j, col in enumerate(tab):
            pj = col[r]
            if pj and j != e:
                for i, fi in nonzero:
                    col[i] -= fi * pj // det
    else:
        for j, col in enumerate(tab):
            if j != e:
                pj = col[r]
                col[:] = [(p * v - fi * pj) // det for v, fi in zip(col, f)]
                col[r] = pj
        diag[:] = [p * v // det for v in diag]
    new = list(map(floordiv, map(mul, f, repeat(-dr)), repeat(det)))
    new[r] = dr
    tab[e] = new
    diag[r] = p
    cols[e], basis[r] = basis[r], cols[e]
    return p
