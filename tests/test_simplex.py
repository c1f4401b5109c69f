from fractions import Fraction
from itertools import product
from random import Random

import pytest

from exactmetric import DomainError, InternalCheckError, Molecule, freespace, simplex
from exactmetric.metric import scale
from exactmetric.randgen import rand_coeffs, rand_fraction, rand_metric_space, rand_pointed
from exactmetric.simplex import difference_max, simplex_max

F = Fraction
ZERO = F(0)

# the constraint matrix of Beale's cycling example: it is fractional,
# outside the unit-pivot contract
BEALE_A = [
    [F(1, 4), F(-60), F(-1, 25), F(9)],
    [F(1, 2), F(-90), F(-1, 50), F(3)],
    [F(0), F(0), F(1), F(0)],
]
# the Dantzig budget factor of ``_rational_simplex_max``, simplex's own
DANTZIG_FACTOR = 20


def test_single_variable():
    value, x = simplex_max([3], [[1]], [2])
    assert value == 6 and x == [2]


def test_two_variable_textbook():
    # max 3x + 5y s.t. x <= 4, y <= 6, x + y <= 8
    value, x = simplex_max(
        [3, 5],
        [[1, 0], [0, 1], [1, 1]],
        [4, 6, 8],
    )
    assert value == 36 and x == [2, 6]


def test_no_profitable_direction():
    value, x = simplex_max([-1, -2], [[1, 1]], [5])
    assert value == 0 and x == [0, 0]


def test_unbounded_detected():
    with pytest.raises(DomainError):
        simplex_max([1], [[-1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(DomainError):
        simplex_max([1], [[1]], [-1])


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        simplex_max([1, 1], [[1]], [1])


# max x1 + x2 + x3 over a cycle of difference constraints, all tight at the
# origin, and a bound on x1
DEGENERATE = (
    [1, 1, 1],
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1], [1, 0, 0]],
    [0, 0, 0, 1],
)


def test_degenerate_cycling_candidate(monkeypatch):
    # degenerate pivots at the origin; must terminate with the right optimum
    # under Dantzig's rule and under Bland's from the second pivot on
    for factor in (DANTZIG_FACTOR, 0):
        monkeypatch.setattr(simplex, "DANTZIG_FACTOR", factor)
        value, x = simplex_max(*DEGENERATE)
        assert value == 3 and x == [1] * 3


def test_pivot_budget_stops_a_simplex_that_never_moves(monkeypatch):
    """Tampered: a pivot that changes nothing leaves the same entering
    column forever, and the run stops after 2000 (m + n) + 1 pivots."""
    pivots = []
    monkeypatch.setattr(simplex, "pivot", lambda *args: pivots.append(args[3:]))
    with pytest.raises(InternalCheckError, match="^simplex pivot budget exhausted$"):
        simplex_max([1], [[1]], [2])
    assert pivots == [(0, 0)] * (2000 * (1 + 1) + 1)


@pytest.mark.parametrize("c, a, b", [
    ([0.1], [[1]], [1]),
    ([1], [[1]], [0.5]),
    ([1, 1.0], [[1, 0]], [1]),
    ([1], [[1]], [F(1, 2)]),
])
def test_float_data_is_a_domain_error(c, a, b):
    with pytest.raises(DomainError, match="LP data must be ints"):
        simplex_max(c, a, b)


@pytest.mark.parametrize("a", [[[1.0]], [[F(1)]], [[F(1, 2)]], BEALE_A])
def test_non_int_constraint_matrix_is_a_domain_error(a):
    c = [1] * len(a[0])
    with pytest.raises(DomainError, match="constraint matrix must hold ints"):
        simplex_max(c, a, [1] * len(a))


@pytest.mark.parametrize("c, a, b", [
    ([1], [[2]], [1]),
    # Beale's LP times 100, row by row, and its objective times 100: its
    # entering column has 25 and 50
    ([75, -15000, 2, -600],
     [[25, -6000, -4, 900], [50, -9000, -2, 300], [0, 0, 1, 0]],
     [0, 0, 1]),
    # a 3 in the column that enters second
    ([2, 1], [[1, 0], [0, 1], [0, 3]], [1, 1, 1]),
    # a 2 that the first pivot makes: max x + y s.t. x - y <= 0, x + y <= 2
    ([1, 1], [[1, -1], [1, 1]], [0, 2]),
])
def test_non_unit_pivot_entry_is_a_domain_error(c, a, b):
    with pytest.raises(DomainError, match="not totally unimodular"):
        simplex_max(c, a, b)


def _rational_simplex_max(c, a, b, pivots):
    """The simplex on a ``Fraction`` tableau that the integer tableau
    replaced, kept as the oracle: the same rules, with each pivot's
    ``(row, column)`` appended to ``pivots``.  It divides by any pivot, so
    it also solves LPs that the unit-pivot tableau refuses."""
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
    dantzig_budget = DANTZIG_FACTOR * (m + n)
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


def _difference_rows(c, upper, w):
    """``(c, A, b)`` of the LP ``difference_max(c, upper, w)`` solves, as
    ``simplex_max`` reads it: for each i, the row x_i <= upper[i], then
    x_i - x_j <= w[i][j] for each j != i, in order."""
    n = len(c)
    a, b = [], []
    for i in range(n):
        only_i = [0] * n
        only_i[i] = 1
        a.append(only_i)
        b.append(upper[i])
        for j in range(n):
            if j != i:
                row = only_i.copy()
                row[j] = -1
                a.append(row)
                b.append(w[i][j])
    return c, a, b


def _dual_args(monkeypatch, m):
    """The arguments ``(c, upper, w)`` that ``aell_norm_dual(m)`` passes to
    ``difference_max``, or ``None`` for the zero molecule, which poses no LP;
    a non-zero molecule whose LP goes elsewhere fails at once."""
    calls = []

    def capture(*args):
        calls.append(args)
        return difference_max(*args)

    with monkeypatch.context() as patch:
        patch.setattr(freespace, "difference_max", capture)
        freespace.aell_norm_dual(m)
    assert len(calls) == any(m.ints), "aell_norm_dual posed no LP to difference_max"
    return calls[0] if calls else None


def _dual_lps(monkeypatch, count):
    """The LPs ``aell_norm_dual`` solves for seeded molecules over spaces of
    2..10 points, every other space with distances from {1, 2, 3}, as rows."""
    rng = Random(5005)
    lps = []
    palette = [F(1), F(2), F(3)]
    while len(lps) < count:
        k = len(lps)
        space = rand_metric_space(rng, 2 + k % 9, palette=palette if k % 2 else None)
        pointed = rand_pointed(rng, space)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed, space.n))
        if args := _dual_args(monkeypatch, m):
            lps.append(_difference_rows(*args))
    return lps


def _unit_lps(count):
    """Seeded LPs whose rows have at most one +1 and one -1, so A is totally
    unimodular (its transpose is a node-arc incidence matrix) and every
    pivot is 1; zeros in b make degenerate vertices, and a column of A with
    no positive entry can make the LP unbounded."""
    rng = Random(6006)
    lps = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        a = []
        for _ in range(m):
            row = [0] * n
            plus, minus = rng.sample(range(-1, n), 2)  # -1: no such entry
            if plus >= 0 and rng.random() < 0.8:
                row[plus] = 1
            if minus >= 0:
                row[minus] = -1
            a.append(row)
        b = [ZERO if rng.random() < 0.3 else rand_fraction(rng, 0, 5) for _ in range(m)]
        c = [rand_fraction(rng, -3, 4) for _ in range(n)]
        # b and c as ints: scaling each by a positive factor keeps the pivots
        lps.append((scale(c, "c")[1], a, scale(b, "b")[1]))
    return lps


def _pivot_sequences(monkeypatch, lps):
    """Per LP, ``(answer, pivots)`` of the library and of the rational
    oracle, where the answer is ``(value, x)`` or ``"unbounded"`` and the
    pivots are ``(row, variable)`` pairs."""
    real_pivot = simplex.pivot
    seen = []

    def record(tab, cols, basis, r, e):
        # the condensed column e holds the entering variable cols[e]
        seen.append((r, cols[e]))
        return real_pivot(tab, cols, basis, r, e)

    pairs = []
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "pivot", record)
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
            pairs.append(((got, list(seen)), (want, want_pivots)))
    return pairs


def test_integer_tableau_matches_the_rational_tableau(monkeypatch):
    """Same optimum, same vertex and the same pivots, in order, as the
    ``Fraction`` tableau, on dual-norm LPs and random unimodular LPs; the
    optimum and the vertex are ints."""
    assert simplex.DANTZIG_FACTOR == DANTZIG_FACTOR
    lps = _dual_lps(monkeypatch, 150) + _unit_lps(150)
    outcomes = set()
    for (c, a, b), (got, want) in zip(lps, _pivot_sequences(monkeypatch, lps)):
        assert got == want, (c, a, b)
        answer, pivots = want
        if answer != "unbounded":
            value, x = got[0]
            assert {type(value), *map(type, x)} == {int}
        outcomes.add(answer if answer == "unbounded" else bool(pivots))
    # all three kinds of outcome occurred
    assert outcomes == {"unbounded", True, False}


def test_blands_rule_matches_the_rational_tableau(monkeypatch):
    """With no Dantzig budget, both tableaux pick every pivot after the
    first by Bland's rule, and still agree; on some LPs that changes the
    pivots."""
    lps = _dual_lps(monkeypatch, 150) + _unit_lps(150)
    dantzig = _pivot_sequences(monkeypatch, lps)
    monkeypatch.setattr(simplex, "DANTZIG_FACTOR", 0)
    monkeypatch.setitem(globals(), "DANTZIG_FACTOR", 0)
    bland = _pivot_sequences(monkeypatch, lps)
    for (c, a, b), (got, want) in zip(lps, bland):
        assert got == want, (c, a, b)
    changed = [d[1][1] != bl[1][1] for d, bl in zip(dantzig, bland)]
    assert any(changed[:150]) and any(changed[150:])


def test_against_brute_force_vertices():
    # random small unimodular LPs with int b, checked against enumeration of
    # the integer points of a bounded box: every vertex of such an LP is
    # integral (Hoffman and Kruskal), so the best grid point is the optimum
    rng = Random(71)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        c = [rng.randint(-4, 4) for _ in range(n)]
        a = []
        for _ in range(m):
            row = [0] * n
            for j, v in zip(rng.sample(range(n), min(n, 2)), (1, -1)):
                row[j] = v if rng.random() < 0.8 else 0
            a.append(row)
        b = [rng.randint(0, 6) for _ in range(m)]
        box = 10
        a_full = a + [[1 if j == k else 0 for j in range(n)] for k in range(n)]
        b_full = b + [box] * n
        value, x = simplex_max(c, a_full, b_full)
        assert all(
            sum(a_full[i][j] * x[j] for j in range(n)) <= b_full[i]
            for i in range(len(a_full))
        )
        best = max(
            sum(ck * pk for ck, pk in zip(c, point))
            for point in product(range(box + 1), repeat=n)
            if all(
                sum(aik * pk for aik, pk in zip(a[i], point)) <= b[i]
                for i in range(m)
            )
        )
        assert value == best


@pytest.mark.parametrize("c, a, b, rational", [
    # a -2 in a column that never enters
    ([1, -5], [[1, -2]], [1], (1, [1, 0])),
    # a -2 that the first pivot makes off the entering column
    ([1, -5], [[1, 1], [1, -1]], [1, 1], (1, [1, 0])),
    # an unbounded LP whose A holds a -2
    ([1, 0], [[1, -2]], [1], "unbounded"),
    # an entry beyond a signed byte
    ([1], [[300]], [1], (F(1, 300), [F(1, 300)])),
])
def test_entries_outside_the_unit_range_are_not_totally_unimodular(c, a, b, rational):
    """The ternary tableau refuses every entry outside {-1, 0, 1}, in A or
    made by a pivot, where the rational tableau gives an answer."""
    if rational == "unbounded":
        with pytest.raises(DomainError, match="unbounded"):
            _rational_simplex_max(c, a, b, [])
    else:
        assert _rational_simplex_max(c, a, b, []) == rational
    with pytest.raises(DomainError, match="not totally unimodular"):
        simplex_max(c, a, b)


@pytest.mark.parametrize("c, a, b, message", [
    ([1], [[1.5, -2]], [-1], "inconsistent LP dimensions"),
    ([1, 1], [[-2, 0.5]], [-1], "constraint matrix must hold ints"),
    # the entry beyond a byte comes first, the float after it
    ([1, 1], [[300, 0.5]], [-1], "constraint matrix must hold ints"),
    ([1, 1], [[300, 1], [0, F(1)]], [1, 1], "constraint matrix must hold ints"),
    ([1, 1], [[-2, 300]], [0.5], "LP data must be ints"),
    ([1, 1], [[-2, 300]], [-1], "right-hand side must be non-negative"),
    ([1, 1], [[-2, 300]], [1], "not totally unimodular"),
])
def test_checks_run_in_order(c, a, b, message):
    """Dimensions, then ints in A, then ints in b and c, then the
    sign of b, then total unimodularity: an LP failing several checks gets
    the first one's message."""
    with pytest.raises(DomainError, match=message):
        simplex_max(c, a, b)


def _large_dual_lps(monkeypatch):
    """The LPs ``aell_norm_dual`` solves for full-support molecules over
    11- to 13-point spaces, as rows: 100 to 144 rows, so each mask of the
    tableau is wider than 64 rows."""
    rng = Random(7007)
    lps = []
    for n in (11, 12, 13) * 4:
        space = rand_metric_space(rng, n)
        pointed = rand_pointed(rng, space)
        coeffs = {x: rand_fraction(rng, -5, 5) or F(1) for x in space.points}
        args = _dual_args(monkeypatch, Molecule.make(pointed, coeffs))
        lps.append(_difference_rows(*args))
    assert all(len(a) > 64 for _, a, _ in lps)
    return lps


@pytest.mark.parametrize("factor", [DANTZIG_FACTOR, 0])
def test_wide_masks_match_the_rational_tableau(monkeypatch, factor):
    """On dual LPs with more than 64 rows, the same optimum, vertex and
    ``(row, variable)`` pivots as the ``Fraction`` tableau, under Dantzig's
    rule and under Bland's from the second pivot on."""
    lps = _large_dual_lps(monkeypatch)
    monkeypatch.setattr(simplex, "DANTZIG_FACTOR", factor)
    monkeypatch.setitem(globals(), "DANTZIG_FACTOR", factor)
    rows = []
    for (c, a, b), (got, want) in zip(lps, _pivot_sequences(monkeypatch, lps)):
        assert got == want, (c, a, b)
        rows += [r for r, _ in want[1]]
    # pivots on both sides of the 64th row
    assert min(rows) < 64 <= max(rows)


@pytest.mark.parametrize("factor", [DANTZIG_FACTOR, 0])
def test_difference_max_pivots_as_simplex_max_on_its_rows(monkeypatch, factor):
    """On the dual LPs of seeded full-support molecules over 2..14 points,
    with and without a palette, ``difference_max`` and ``simplex_max`` on its
    rows give the same value, the same vertex and the same ``(row,
    variable)`` pivots, under Dantzig's rule and under Bland's."""
    rng = Random(9009)
    cases = []
    for n in range(2, 15):
        for palette in (None, [F(1), F(2), F(3)]):
            space = rand_metric_space(rng, n, palette=palette)
            pointed = rand_pointed(rng, space)
            coeffs = {x: rand_fraction(rng, -5, 5) or F(1) for x in space.points}
            cases.append(_dual_args(monkeypatch, Molecule.make(pointed, coeffs)))
    monkeypatch.setattr(simplex, "DANTZIG_FACTOR", factor)
    real_pivot = simplex.pivot
    seen = []

    def record(tab, cols, basis, r, e):
        seen.append((r, cols[e]))
        return real_pivot(tab, cols, basis, r, e)

    monkeypatch.setattr(simplex, "pivot", record)
    rows = []
    for args in cases:
        runs = []
        for solve, lp in ((difference_max, args), (simplex_max, _difference_rows(*args))):
            seen.clear()
            runs.append((solve(*lp), seen[:]))
        assert runs[0] == runs[1], args
        rows += [r for r, _ in seen]
    # pivots on both sides of the 64th row
    assert min(rows) < 64 <= max(rows)


@pytest.mark.parametrize("c, upper, w, message", [
    ([1], [1, 1], [[0]], "inconsistent LP dimensions"),
    ([1, 1], [1, 1], [[0, 1]], "inconsistent LP dimensions"),
    ([1, 1], [1, 1], [[0, 1], [1]], "inconsistent LP dimensions"),
    ([1, 1], [1, 0.5], [[0, 1], [1, 0]], "LP data must be ints"),
    ([1, F(1)], [1, 1], [[0, 1], [1, 0]], "LP data must be ints"),
    ([1, 1], [1, 1], [[0, -1], [1, 0]], "right-hand side must be non-negative"),
    ([1, 1], [-1, 1], [[0, 1], [1, 0]], "right-hand side must be non-negative"),
])
def test_difference_max_refuses_as_simplex_max_does(c, upper, w, message):
    """``difference_max`` refuses with ``simplex_max``'s messages, and
    ``simplex_max`` refuses the same rows, where they can be written out."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        difference_max(c, upper, w)
    if message != "inconsistent LP dimensions":
        with pytest.raises(DomainError, match=f"^{message}$"):
            simplex_max(*_difference_rows(c, upper, w))


@pytest.mark.parametrize("c, upper, w, answer", [
    ([], [], [], (0, [])),
    ([3], [4], [[0]], (12, [4])),
    # the diagonal of w is not read, not even when it is negative
    ([1, 1], [1, 1], [[-1, 0], [0, -1]], (2, [1, 1])),
    # max 2 x0 - x1 + x2: x0 at its bound, x1 kept within 1 below it, x2
    # within 2 above x1 and below its own bound
    ([2, -1, 1], [5, 9, 5], [[0, 1, 9], [9, 0, 9], [9, 2, 0]], (11, [5, 4, 5])),
])
def test_difference_max_answers(c, upper, w, answer):
    assert difference_max(c, upper, w) == answer
    assert simplex_max(*_difference_rows(c, upper, w)) == answer
