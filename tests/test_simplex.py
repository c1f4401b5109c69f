from fractions import Fraction
from random import Random

import pytest

from exactmetric import DomainError, InternalCheckError, Molecule, freespace, simplex
from exactmetric.randgen import rand_coeffs, rand_fraction, rand_metric_space, rand_pointed
from exactmetric.simplex import simplex_max

F = Fraction
ZERO = F(0)

BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ],
    [F(0), F(0), F(1)],
)


def test_single_variable():
    value, x = simplex_max([F(3)], [[F(1)]], [F(2)])
    assert value == 6 and x == [F(2)]


def test_two_variable_textbook():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    value, x = simplex_max(
        [F(3), F(5)],
        [[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]],
        [F(4), F(12), F(18)],
    )
    assert value == 36 and x == [F(2), F(6)]


def test_exact_rational_data():
    value, x = simplex_max(
        [F(1, 3), F(1, 7)],
        [[F(1, 2), F(1, 5)]],
        [F(3, 4)],
    )
    # y yields 5/7 per unit of the constraint, x only 2/3
    assert value == F(15, 28)
    assert x == [F(0), F(15, 4)]


def test_no_profitable_direction():
    value, x = simplex_max([F(-1), F(-2)], [[F(1), F(1)]], [F(5)])
    assert value == 0 and x == [F(0), F(0)]


def test_unbounded_detected():
    with pytest.raises(DomainError):
        simplex_max([F(1)], [[F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(DomainError):
        simplex_max([F(1)], [[F(1)]], [F(-1)])


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        simplex_max([F(1), F(1)], [[F(1)]], [F(1)])


def test_degenerate_cycling_candidate():
    # classic Beale-style degeneracy; must terminate with the right optimum
    value, _ = simplex_max(*BEALE)
    assert value == F(1, 20)


@pytest.mark.parametrize("c, a, b", [
    ([0.1], [[1]], [1]),
    ([1], [[F(1)]], [0.5]),
    ([1], [[1.0]], [1]),
])
def test_float_data_is_a_domain_error(c, a, b):
    with pytest.raises(DomainError, match="exact rationals"):
        simplex_max(c, a, b)


def _rational_simplex_max(c, a, b, pivots):
    """The simplex on a ``Fraction`` tableau that the integer tableau
    replaced, kept as the oracle: the same rules, with each pivot's
    ``(row, column)`` appended to ``pivots``."""
    m = len(a)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise DomainError("inconsistent LP dimensions")
    if any(bi < ZERO for bi in b):
        raise DomainError("right-hand side must be non-negative")
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
    while True:
        if len(pivots) > max_pivots:
            raise InternalCheckError("simplex pivot budget exhausted")
        enter = -1
        if len(pivots) > dantzig_budget:
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
        pivots.append((leave, enter))
        prow = rows[leave]
        inv = Fraction(1) / prow[enter]
        if inv != 1:
            rows[leave] = prow = [v * inv for v in prow]
        nonzero = [(j, pj) for j, pj in enumerate(prow) if pj]
        for row in rows:
            if row is not prow and row[enter]:
                factor = row[enter]
                for j, pj in nonzero:
                    row[j] -= factor * pj
        basis[leave] = enter
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return sum((Fraction(c[j]) * x[j] for j in range(n)), ZERO), x


def _dual_lps(monkeypatch, count):
    """The LPs ``aell_norm_dual`` solves for seeded molecules over spaces of
    2..10 points, every other space with distances from {1, 2, 3}."""
    rng = Random(5005)
    lps = []

    def capture(c, a, b):
        lps.append((c, a, b))
        return simplex_max(c, a, b)

    palette = [F(1), F(2), F(3)]
    with monkeypatch.context() as patch:
        patch.setattr(freespace, "simplex_max", capture)
        while len(lps) < count:
            k = len(lps)
            space = rand_metric_space(rng, 2 + k % 9, palette=palette if k % 2 else None)
            pointed = rand_pointed(rng, space)
            freespace.aell_norm_dual(Molecule.make(pointed, rand_coeffs(rng, pointed, space.n)))
    return lps


def _random_lps(count):
    """Seeded LPs with fractional data; zeros in b make degenerate vertices,
    and a column of A with no positive entry can make the LP unbounded."""
    rng = Random(6006)
    lps = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        a = [
            [rand_fraction(rng, -3, 3) if rng.random() < 0.7 else ZERO for _ in range(n)]
            for _ in range(m)
        ]
        b = [ZERO if rng.random() < 0.3 else rand_fraction(rng, 0, 5) for _ in range(m)]
        c = [rand_fraction(rng, -3, 4) for _ in range(n)]
        lps.append((c, a, b))
    return lps


def test_integer_tableau_matches_the_rational_tableau(monkeypatch):
    """Same optimum, same vertex and the same pivots, in order, as the
    ``Fraction`` tableau, on dual-norm LPs, random fractional LPs and Beale's
    cycling example (which reaches Bland's rule)."""
    lps = _dual_lps(monkeypatch, 150) + _random_lps(150) + [BEALE]
    seen = []
    unit_pivot = set()
    real_pivot = simplex.pivot

    def record(tab, diag, cols, basis, r, e, det):
        # the condensed column e holds the entering variable cols[e]
        seen.append((r, cols[e]))
        unit_pivot.add(tab[e][r] == det)
        return real_pivot(tab, diag, cols, basis, r, e, det)

    monkeypatch.setattr(simplex, "pivot", record)
    outcomes = set()
    for c, a, b in lps:
        want_pivots = []
        seen.clear()
        try:
            want = _rational_simplex_max(c, a, b, want_pivots)
        except DomainError:
            want = "unbounded"
        try:
            got = simplex_max(c, a, b)
        except DomainError:
            got = "unbounded"
        assert got == want and seen == want_pivots, (c, a, b)
        outcomes.add(want if want == "unbounded" else bool(want_pivots))
    assert len(seen) > 20 * 7  # Beale's LP, last, went past the Dantzig budget
    # both branches of the pivot ran, and all three kinds of outcome occurred
    assert unit_pivot == {True, False}
    assert outcomes == {"unbounded", True, False}


def test_against_brute_force_vertices():
    # random small LPs checked against enumeration of basic feasible points
    # on a bounded box, using the fact that an optimum sits at a vertex of
    # the polytope {0 <= x <= box, A x <= b}
    rng = Random(71)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        a = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(0, 6)) for _ in range(m)]
        box = 10
        a_full = a + [[F(1 if j == k else 0) for j in range(n)] for k in range(n)]
        b_full = b + [F(box)] * n
        value, x = simplex_max(c, a_full, b_full)
        assert all(
            sum(a_full[i][j] * x[j] for j in range(n)) <= b_full[i]
            for i in range(len(a_full))
        )
        # grid search over integer points cannot beat the LP optimum
        best = F(0)
        grid = [F(v) for v in range(box + 1)]

        def rec(j, point):
            nonlocal best
            if j == n:
                if all(
                    sum(a[i][k] * point[k] for k in range(n)) <= b[i]
                    for i in range(m)
                ):
                    best = max(best, sum(c[k] * point[k] for k in range(n)))
                return
            for v in grid:
                rec(j + 1, point + [v])

        rec(0, [])
        assert value >= best
