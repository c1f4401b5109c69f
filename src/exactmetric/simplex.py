"""Exact simplex with unit pivots on a ternary bitmask tableau.

Solves   maximize c.x   subject to  A x <= b,  x >= 0
for a totally unimodular ``int`` matrix A, like the dual norm LP's rows e_x
and e_x - e_y (Hoffman and Kruskal 1956), and ``int`` c and b >= 0, so the
slack basis is feasible, a single phase suffices, and the optimal vertex and
value are ints.  Entering variable: Dantzig rule (largest positive reduced
cost, smallest variable index among equals), switching to Bland's rule after
a pivot budget to guarantee termination; leaving variable: minimum ratio
with smallest-index tie break.

The tableau is condensed (Tucker's dictionary form, as in Avis's lrs): it
stores the columns of the nonbasic variables only.  By Cramer's rule every
entry of B^-1 [A | I] is 0, 1 or -1, so a column is two ints, ``pos`` and
``neg``, whose byte i is 1 where row i holds 1 and -1 respectively; the
reduced costs and the right-hand side are int lists.  Every pivot entry is
1, so every pivot is the rational tableau's.  An entry of A outside
{-1, 0, 1}, or one that a pivot would make, raises ``DomainError``.

No library path calls ``simplex_max``: the dual norm route solves its LP's
own dual, a min-cost flow, with ``freespace``'s network simplex.  The
tableau stays for the benchmark, which traces ``simplex_max`` and
``pivot``, and for the tests, which solve the dual norm LP with it, until
the benchmark stops reading it."""

from __future__ import annotations

from itertools import compress
from operator import index, mul
from typing import Sequence

from .errors import DomainError, InternalCheckError, refusing

_DIMENSIONS = refusing(DomainError, "inconsistent LP dimensions")
# Dantzig's rule chooses the first DANTZIG_FACTOR * (m + n) pivots, Bland's
# rule the rest
DANTZIG_FACTOR = 20


def simplex_max(
    c: Sequence[int],
    a: Sequence[Sequence[int]],
    b: Sequence[int],
) -> tuple[int, list[int]]:
    """Return (optimal value, optimal x) of max c.x s.t. A x <= b, x >= 0."""
    n = len(c)
    _DIMENSIONS.unless(len(b) == len(a) and all(len(row) == n for row in a))
    with refusing(DomainError, "LP constraint matrix must hold ints"):
        rows = [list(map(index, row)) for row in a]
    obj, rhs = _int_data(c, b)
    if any(v not in (-1, 0, 1) for row in rows for v in row):
        raise DomainError("LP constraint matrix is not totally unimodular")
    pos = [int.from_bytes(bytes(r[j] == 1 for r in rows), "little") for j in range(n)]
    neg = [int.from_bytes(bytes(r[j] == -1 for r in rows), "little") for j in range(n)]
    return _solve(obj, pos, neg, rhs)


def _int_data(c: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """``c`` and ``b`` as int lists, once they are ints and b >= 0."""
    with refusing(DomainError, "LP data must be ints"):
        rhs, obj = list(map(index, b)), list(map(index, c))
    if min(rhs, default=0) < 0:
        raise DomainError("right-hand side must be non-negative")
    return obj, rhs


def _solve(
    obj: list[int], pos: list[int], neg: list[int], rhs: list[int]
) -> tuple[int, list[int]]:
    """The pivot loop on the condensed tableau of the slack basis: column j
    of A is ``pos[j]`` and ``neg[j]``, and ``rhs`` is b."""
    m = len(rhs)
    n = len(obj)
    cost = obj[:]
    tab = (pos, neg, cost, rhs)
    cols = list(range(n))
    basis = list(range(n, n + m))

    dantzig_budget = DANTZIG_FACTOR * (m + n)
    max_pivots = 2000 * (m + n)
    pivots = 0
    while True:
        if pivots > max_pivots:
            raise InternalCheckError("simplex pivot budget exhausted")
        best = max(cost, default=0)
        if best <= 0:
            break
        if pivots <= dantzig_budget and cost.count(best) == 1:
            enter = cost.index(best)
        else:
            # the smallest variable with the largest (Dantzig) or a positive
            # (Bland) reduced cost
            ready = best.__eq__ if pivots <= dantzig_budget else (0).__lt__
            enter = min(compress(range(n), map(ready, cost)), key=cols.__getitem__)
        # every candidate pivot entry is 1, so the ratios are the rhs entries
        leave = -1
        for i in compress(range(m), pos[enter].to_bytes(m, "little")):
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

    x = [0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rhs[i]
    return sum(map(mul, obj, x)), x


def pivot(tab, cols, basis, r, e):
    """Unit pivot on entry 1 in row ``r`` of column ``e``: entering variable
    ``cols[e]`` swaps with leaving variable ``basis[r]``.  Off row ``r``,
    every other column ``j`` loses ``P_j`` times column ``e``, where ``P`` is
    the pivot row; column ``e`` becomes the leaving variable's, its negation
    with 1 in row ``r``."""
    pos, neg, cost, rhs = tab
    bit = 1 << 8 * r
    off, ne, ce = pos[e] ^ bit, neg[e], cost[e]  # column e off row r
    # column j gains -P_j times column e off row r
    for j, pj in enumerate(pos):
        nj = neg[j]
        if pj & bit and j != e:
            add_pos, add_neg, cost[j] = ne, off, cost[j] - ce
        elif nj & bit:
            add_pos, add_neg, cost[j] = off, ne, cost[j] + ce
        else:
            continue
        if pj & add_pos or nj & add_neg:
            raise DomainError("a pivot makes an entry 2 or -2: not totally unimodular")
        up, down = pj | add_pos, nj | add_neg
        both = up & down  # where 1 and -1 cancel
        pos[j], neg[j] = up ^ both, down ^ both
    pos[e], neg[e], cost[e] = ne | bit, off, -ce
    if t := rhs[r]:
        m = len(rhs)
        for i in compress(range(m), off.to_bytes(m, "little")):
            rhs[i] -= t
        for i in compress(range(m), ne.to_bytes(m, "little")):
            rhs[i] += t
    cols[e], basis[r] = basis[r], cols[e]
