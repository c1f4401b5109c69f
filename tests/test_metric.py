from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from math import lcm
from operator import add, sub
from random import Random

import pytest

from exactmetric import (
    DomainError,
    FiniteMetricSpace,
    Molecule,
    PointedSpace,
    StructuralError,
    aell_norm_dual,
    aell_norm_primal,
    enumerate_isometries,
    norm_distance,
    set_distance,
    validate,
)
from exactmetric.jsonio import parse_space, space_from_json, space_to_json
from exactmetric.metric import ValidationReport, _scan, min_plus, scale_rows
from exactmetric.randgen import _closure, cycle_space, rand_fraction, rand_metric_space

from conftest import space_from_rows

F = Fraction


def test_two_point_space_is_valid():
    sp = space_from_rows(["a", "b"], [[0, 1], [1, 0]])
    assert validate(sp).ok


def test_triangle_violation_reports_witness():
    sp = space_from_rows(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    report = validate(sp)
    assert not report.ok
    assert report.axiom == "triangle"
    assert set(report.witness) == {"a", "b", "c"}


def test_separation_violation():
    sp = space_from_rows(["a", "b"], [[0, 0], [0, 0]])
    report = validate(sp)
    assert not report.ok and report.axiom == "separation"
    assert validate(space_from_rows(["a", "b"], [[0, 0], [0, 0]], pseudo=True)).ok


def test_symmetry_and_diagonal_checks():
    sp = space_from_rows(["a", "b"], [[0, 1], [2, 0]])
    assert validate(sp).axiom == "symmetry"
    sp = space_from_rows(["a", "b"], [[1, 1], [1, 0]])
    assert validate(sp).axiom == "diagonal"


def full_scan_validate(space):
    """``validate`` scanning every ordered pair and triple, kept as the oracle
    for the halved scans."""
    pts, d, n = space.points, space.dist, space.n
    for i in range(n):
        for j in range(n):
            if d[i][j] != d[j][i]:
                return False, "symmetry", (pts[i], pts[j])
    for i in range(n):
        if d[i][i] != 0:
            return False, "diagonal", (pts[i],)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return False, "triangle", (pts[i], pts[j], pts[k])
    if not space.pseudo:
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] == 0:
                    return False, "separation", (pts[i], pts[j])
    return True, None, None


def plant_faults(rng, space):
    """``space`` with up to three faults planted at random pairs."""
    d = [list(row) for row in space.dist]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(space.n), 2)
        fault = rng.choice(
            ["asymmetric", "diagonal", "oversized", "negative", "zero"]
        )
        if fault == "asymmetric":
            d[i][j] += rand_fraction(rng, 1, 3) * rng.choice([-1, 1])
        elif fault == "diagonal":
            d[i][i] = rand_fraction(rng, 1, 3) * rng.choice([-1, 1])
        elif fault == "oversized":
            d[i][j] = d[j][i] = d[i][j] + rand_fraction(rng, 1, 10)
        elif fault == "negative":
            d[i][j] = d[j][i] = -rand_fraction(rng, 1, 3)
        else:
            d[i][j] = d[j][i] = F(0)
    return FiniteMetricSpace(space.points, tuple(map(tuple, d)), space.pseudo)


def tight_space(rng, n):
    """A cycle or path metric on ``n`` points, over mixed denominators.  Many
    triangles are tight, d(i, k) == d(i, j) + d(j, k), which the triangle
    scan's pre-test must not take for a violation."""
    if rng.random() < 0.5:
        unit = rand_fraction(rng, 1, 10)
        d = [[unit * min(abs(i - j), n - abs(i - j)) for j in range(n)]
             for i in range(n)]
    else:
        x = [F(0)]
        for _ in range(n - 1):
            x.append(x[-1] + rand_fraction(rng, 1, 10))
        d = [[abs(a - b) for b in x] for a in x]
    return FiniteMetricSpace(
        tuple(f"x{i}" for i in range(n)), tuple(map(tuple, d))
    )


MIXED_PALETTE = [F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(7, 5), F(2)]


def test_halved_scans_report_the_full_scan_witness():
    rng = Random(11)
    seen = set()
    for case in range(460):
        if case < 400:
            palette = [F(1), F(2), F(3)] if case % 2 else None
            space = rand_metric_space(
                rng, rng.randint(2, 12), pseudo=rng.random() < 0.3,
                palette=palette,
            )
        elif case % 2:
            space = tight_space(rng, rng.randint(2, 30))
        else:
            # up to 30 points, past the distance workload's largest space
            space = rand_metric_space(
                rng, rng.randint(13, 30), pseudo=rng.random() < 0.3,
                palette=MIXED_PALETTE,
            )
        if case < 400 or rng.random() < 0.5:
            space = plant_faults(rng, space)
        report = validate(space)
        expected = full_scan_validate(space)
        assert (report.ok, report.axiom, report.witness) == expected, space
        # the same scan on the Fraction rows, as the star self-check runs it
        assert _scan(space, space.dist) == report
        seen.add((case < 400, expected[1]))
    assert {axiom for _, axiom in seen} == {
        None, "symmetry", "diagonal", "triangle", "separation"
    }
    assert (False, None) in seen and (False, "triangle") in seen


def pairwise_scan(space, d):
    """``_scan`` as it was before the row tests: each pair or triple checked
    by a Python loop over pairs, kept as the oracle of the reports."""
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


FAULTS = ("asymmetric", "diagonal", "negative", "triangle", "copy")


def plant(rng, space, faults, pseudo):
    """``space``, made a pseudometric or not, with each named fault planted
    at a random place: an entry changed on one side only, a non-zero
    diagonal entry, a negative pair, a pair longer than a path through a
    third point, or a second copy of a point."""
    d = [list(row) for row in space.dist]
    n = space.n
    for fault in faults:
        i, j, k = rng.sample(range(n), 3)
        delta = rand_fraction(rng, 1, 3)
        if fault == "asymmetric":
            d[i][j] += delta * rng.choice([-1, 1])
        elif fault == "diagonal":
            d[i][i] = delta * rng.choice([-1, 1])
        elif fault == "negative":
            d[i][j] = d[j][i] = -delta
        elif fault == "triangle":
            d[i][j] = d[j][i] = d[i][k] + d[k][j] + delta
        else:
            # j becomes a copy of i, which breaks only separation
            d[j] = d[i][:]
            for row in d:
                row[j] = row[i]
    return FiniteMetricSpace(space.points, tuple(map(tuple, d)), pseudo)


def test_row_tests_report_what_the_pairwise_scans_report():
    """Every planted fault and pair of faults, on spaces with and without
    ties, as metrics and as pseudometrics: the same report as the pairwise
    scans, on the int rows and on the ``Fraction`` rows."""
    rng = Random(2323)
    kinds = [(f,) for f in FAULTS] + [
        (f, g) for a, f in enumerate(FAULTS) for g in FAULTS[a:]
    ]
    seen = set()
    for case in range(480):
        n = rng.randint(3, 14)
        shape = case % 4
        if shape == 3:
            space = tight_space(rng, n)
        else:
            palette = [None, [F(1), F(2), F(3)], MIXED_PALETTE][shape]
            space = rand_metric_space(rng, n, palette=palette)
        faults = kinds[case % len(kinds)]
        pseudo = case // len(kinds) % 2 == 1
        space = plant(rng, space, faults, pseudo)
        for d in (space.scaled[1], space.dist):
            report = _scan(space, d)
            assert report == pairwise_scan(space, d), (faults, space)
        seen.add((faults[0], pseudo, report.axiom))
    assert {axiom for _, _, axiom in seen} == {
        None, "symmetry", "diagonal", "triangle", "separation"
    }
    # each fault is reported as its own axiom, alone or first of two
    for fault, axiom in [
        ("asymmetric", "symmetry"), ("diagonal", "diagonal"),
        ("negative", "triangle"), ("triangle", "triangle"),
    ]:
        assert (fault, False, axiom) in seen and (fault, True, axiom) in seen
    assert ("copy", False, "separation") in seen
    assert ("copy", True, None) in seen
    # two points: a negative distance breaks only d(x, x) <= 2 d(x, y)
    for rows in ([[0, -1], [-1, 0]], [[0, 1], [2, 0]], [[0, 0], [0, 0]]):
        for pseudo in (False, True):
            space = space_from_rows(["a", "b"], rows, pseudo)
            for d in (space.scaled[1], space.dist):
                assert _scan(space, d) == pairwise_scan(space, d), space


@pytest.mark.parametrize(
    "rows",
    [
        ((0.0, 1.0), (1.0, 0.0)),
        (("0", F(1)), (F(1), F(0))),
        ((F(0), "1"), ("1", F(0))),
        ((F(0), None), (None, F(0))),
    ],
    ids=["float", "str-diagonal", "str", "none"],
)
def test_non_rational_distances_are_a_domain_error(rows):
    """Floats were once checked in floating point and accepted, a ``"0"``
    diagonal was reported as a diagonal violation, and a string or ``None``
    off the diagonal raised ``TypeError``."""
    with pytest.raises(DomainError, match="distances must be exact rationals"):
        validate(FiniteMetricSpace(("a", "b"), rows))


def test_shape_mismatch_is_structural():
    with pytest.raises(StructuralError):
        FiniteMetricSpace(("a", "b"), ((Fraction(0),),))
    with pytest.raises(StructuralError):
        FiniteMetricSpace(("a", "a"), ((Fraction(0), Fraction(0)),) * 2)


@pytest.mark.parametrize("labels", [("a", "a"), (1, True)])
def test_duplicate_labels_are_structural(labels):
    # 1 == True, so a label map would merge them just as a set does
    with pytest.raises(StructuralError, match="duplicate"):
        space_from_rows(labels, [[0, 1], [1, 0]])


@pytest.mark.parametrize("label", ["c", ["a"]])
def test_index_of_unknown_or_unhashable_label_is_a_domain_error(label):
    sp = space_from_rows(["a", "b"], [[0, 1], [1, 0]])
    assert sp.index("b") == 1
    with pytest.raises(DomainError, match="unknown point label"):
        sp.index(label)


def test_label_map_is_not_part_of_equality():
    a = space_from_rows(["a", "b"], [[0, 1], [1, 0]])
    b = space_from_rows(["a", "b"], [[0, 1], [1, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != space_from_rows(["b", "a"], [[0, 1], [1, 0]])


def test_scaled_is_an_integer_matrix_over_the_lcm():
    sp = space_from_rows(
        ["a", "b", "c"],
        [[0, F(1, 2), F(5, 6)], [F(1, 2), 0, F(1, 3)], [F(5, 6), F(1, 3), 0]],
    )
    assert sp.scaled == (6, ((0, 3, 5), (3, 0, 2), (5, 2, 0)))
    rng = Random(7)
    for _ in range(20):
        sp = rand_metric_space(rng, rng.randint(1, 6))
        den, rows = sp.scaled
        assert den == lcm(*(v.denominator for row in sp.dist for v in row))
        assert all(type(v) is int for row in rows for v in row)
        assert all(
            rows[i][j] == den * sp.dist[i][j]
            for i in range(sp.n) for j in range(sp.n)
        )


def test_scaled_of_an_integer_space_has_denominator_one(line013):
    den, rows = line013.scaled
    assert den == 1 and rows == line013.dist


def test_scaled_is_not_part_of_equality():
    a = space_from_rows(["a", "b"], [[0, F(1, 2)], [F(1, 2), 0]])
    b = space_from_rows(["a", "b"], [[0, F(1, 2)], [F(1, 2), 0]])
    before = hash(a)
    assert a.scaled == (2, ((0, 1), (1, 0)))
    assert a == b and hash(a) == hash(b) == before
    assert repr(a) == repr(b)


def unscale_rows(den, rows):
    """The int matrix ``rows`` divided by ``den``, one ``Fraction`` per
    distinct value: how builders made their ``dist`` before ``from_scaled``,
    kept as its oracle."""
    value = {v: Fraction(v, den) for row in rows for v in row}
    return tuple(tuple(map(value.__getitem__, row)) for row in rows)


def from_scaled_cases():
    rng = Random(11)
    for trial in range(120):
        n = rng.randint(1, 7)
        sp = rand_metric_space(rng, n, pseudo=trial % 3 == 0)
        den, rows = sp.scaled
        k = rng.randint(2, 6)
        # the reduced form, a non-reduced one, and a random broken matrix
        yield sp.points, den, rows, sp.pseudo
        yield sp.points, den * k, [[v * k for v in r] for r in rows], sp.pseudo
        yield sp.points, rng.randint(1, 12), [
            [rng.randint(-4, 9) for _ in range(n)] for _ in range(n)
        ], False
    yield ("a", "b", "c"), 6, [[0, 0, 0]] * 3, True
    yield ("a", "b", "c"), 1, [[0, 1, 5], [1, 0, 1], [5, 1, 3]], False
    yield (), 7, [], False


def test_from_scaled_matches_the_fraction_path():
    seen = set()
    for points, den, rows, pseudo in from_scaled_cases():
        built = FiniteMetricSpace.from_scaled(points, den, rows, pseudo)
        oracle = FiniteMetricSpace(points, unscale_rows(den, rows), pseudo)
        # a JSON round trip (parsed only, when the axioms fail), and the
        # matrix written by hand with int entries where a value is whole
        load = space_from_json if validate(built).ok else parse_space
        hand = [[int(v) if v.denominator == 1 else v for v in row]
                for row in unscale_rows(den, rows)]
        for other in (oracle, load(space_to_json(built)),
                      FiniteMetricSpace(points, hand, pseudo)):
            assert built == other and hash(built) == hash(other)
        assert all(type(v) is Fraction for row in built.dist for v in row)
        assert "scaled" in vars(built)
        assert built.scaled == scale_rows(built.dist) == oracle.scaled
        assert all(type(v) is int for row in built.scaled[1] for v in row)
        seen.add((built.scaled[0] < den, validate(built).ok))
    assert seen == {(False, True), (True, True), (False, False), (True, False)}


def test_a_loaded_space_makes_its_fractions_only_when_read():
    """A space is stored as its int matrix alone: loading it and running
    the int-reading layers on it make no ``Fraction`` matrix, and the one
    read later holds the values its JSON record spells."""
    rng = Random(5)
    for _ in range(10):
        doc = space_to_json(rand_metric_space(rng, rng.randint(2, 7)))
        space = space_from_json(doc)
        pointed = PointedSpace(space, 0)
        m = Molecule.make(pointed, {x: F(i + 1, 3) for i, x in
                                    enumerate(space.points[1:])})
        assert validate(space).ok
        assert aell_norm_dual(m)[0] == aell_norm_primal(m)[0]
        assert norm_distance(m, Molecule.zero(pointed)) == aell_norm_primal(m)[0]
        assert enumerate_isometries(space)
        assert space_to_json(space) == doc
        assert set_distance(space, space.points[:1], space.points[1:]) == min(
            map(F, doc["dist"][0][1:]))
        assert "dist" not in vars(space)
        assert space.dist == tuple(tuple(map(F, row)) for row in doc["dist"])
        assert all(type(v) is Fraction for row in space.dist for v in row)
        assert "dist" in vars(space)


def test_float_distance_is_a_domain_error():
    with pytest.raises(DomainError, match="exact rationals"):
        FiniteMetricSpace(("a", "b"), ((F(0), 0.5), (0.5, F(0)))).scaled


@pytest.mark.parametrize("basepoint", [1.0, "1", None])
def test_a_basepoint_that_is_not_an_integer_is_structural(line013, basepoint):
    with pytest.raises(StructuralError, match="basepoint must be an integer"):
        PointedSpace(line013, basepoint)


def test_set_distance_examples(line013):
    assert set_distance(line013, ["0"], ["3"]) == 3
    assert set_distance(line013, ["0", "1"], ["1", "3"]) == 0
    assert set_distance(line013, ["0", "1"], ["3"]) == 2
    assert set_distance(line013, ["3"], ["0", "1"]) == 2  # symmetric


def test_set_distance_empty_set_rejected(line013):
    with pytest.raises(DomainError):
        set_distance(line013, [], ["0"])


def fraction_closure_metric_space(rng, n, pseudo=False, palette=None):
    """``rand_metric_space`` as it was with a ``Fraction`` Floyd-Warshall
    closure, kept as the oracle for the integer closure.  On the palettes
    the generator accepts, the final zero rewrite never fires."""
    zero = F(0)
    labels = tuple(f"x{i}" for i in range(n))
    w = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if palette is not None:
                v = rng.choice(palette)
            else:
                v = rand_fraction(rng, 1, 10)
            if pseudo and rng.random() < 0.2:
                v = zero
            w[i][j] = w[j][i] = v
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = w[i][k] + w[k][j]
                if via < w[i][j]:
                    w[i][j] = via
    if not pseudo:
        for i in range(n):
            for j in range(i + 1, n):
                if w[i][j] == zero:
                    w[i][j] = w[j][i] = F(1)
    return FiniteMetricSpace(labels, tuple(tuple(row) for row in w), pseudo)


def test_integer_closure_matches_the_fraction_closure():
    """Same space and same RNG state afterwards, so every seeded caller
    (benchmark documents included) draws the same instances as before."""
    driver = Random(2024)
    for draw in range(400):
        # every eighth draw up to n = 30; the Fraction oracle is cubic
        n = driver.randint(0, 30 if draw % 8 == 0 else 10)
        pseudo = driver.random() < 0.3
        palette = [F(1), F(2), F(3)] if driver.random() < 0.4 else None
        seed = driver.getrandbits(64)
        rng, ref = Random(seed), Random(seed)
        space = rand_metric_space(rng, n, pseudo=pseudo, palette=palette)
        expected = fraction_closure_metric_space(ref, n, pseudo, palette)
        assert space == expected, (seed, n, pseudo, palette)
        assert rng.getstate() == ref.getstate()
        assert all(type(v) is Fraction for row in space.dist for v in row)


@pytest.mark.parametrize(
    "palette, pseudo",
    [
        ([F(0), F(1, 4), F(1)], False),
        ([F(-1), F(1)], False),
        ([F(-1), F(1)], True),
    ],
)
def test_generator_rejects_palettes_that_break_the_axioms(palette, pseudo):
    """Closing such weights gave spaces that fail ``validate``: a zero
    rewritten to 1 after the closure can break the triangle inequality."""
    with pytest.raises(DomainError, match="palette"):
        rand_metric_space(Random(0), 4, pseudo=pseudo, palette=palette)


@pytest.mark.parametrize(
    "palette", [[], ["a"], [F(1), 0.5]], ids=["empty", "str", "float"]
)
def test_generator_refuses_palettes_that_are_not_rationals(palette):
    """An empty palette used to raise ``IndexError`` and a string one
    ``TypeError`` from the sign check; a float one was refused only once a
    float was drawn.  Each is now refused before any draw."""
    rng = Random(1)
    with pytest.raises(DomainError, match="palette"):
        rand_metric_space(rng, 3, palette=palette)
    assert rng.getstate() == Random(1).getstate()


def test_zero_palette_entry_gives_a_valid_pseudometric():
    rng = Random(3)
    for _ in range(200):
        space = rand_metric_space(
            rng, 4, pseudo=True, palette=[F(0), F(1, 4), F(1)]
        )
        assert validate(space).ok


def min_loop_closure(rows):
    """The row loop that ``_closure`` replaced: one builtin ``min`` per
    entry, kept as its oracle."""
    s = [list(row) for row in rows]
    n = len(s)
    for k in range(n):
        sk = s[k]
        for i in range(n):
            s[i] = list(map(min, s[i], map(add, repeat(s[i][k]), sk)))
    return s


def min_loop_metric_space(rng, n, pseudo=False, palette=None):
    """``rand_metric_space`` as it was with ``rand_fraction`` weights scaled
    by ``scale_rows`` and closed by ``min_loop_closure``."""
    labels = tuple(f"x{i}" for i in range(n))
    w = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if palette is not None:
                v = rng.choice(palette)
            else:
                v = rand_fraction(rng, 1, 10)
            if pseudo and rng.random() < 0.2:
                v = F(0)
            w[i][j] = w[j][i] = v
    den, rows = scale_rows(w)
    return FiniteMetricSpace.from_scaled(labels, den, min_loop_closure(rows), pseudo)


@pytest.mark.parametrize(
    "pseudo, palette",
    [
        (False, None),
        (True, None),
        (False, [F(1), F(2), F(3)]),
        (True, [F(0), F(10**20), F(1, 7)]),
    ],
    ids=["default", "pseudo", "palette", "wide-palette"],
)
def test_int_draws_and_packed_closure_match_the_min_loop(pseudo, palette):
    """Same space and same RNG state afterwards: weights drawn as ints over
    one denominator give the spaces the ``Fraction`` weights gave."""
    for seed in range(12):
        for n in range(17):
            rng, ref = Random(seed), Random(seed)
            space = rand_metric_space(rng, n, pseudo=pseudo, palette=palette)
            expected = min_loop_metric_space(ref, n, pseudo, palette)
            assert (space.points, space.scaled, space.pseudo) == (
                expected.points, expected.scaled, expected.pseudo
            ), (seed, n)
            assert rng.getstate() == ref.getstate()


def test_packed_closure_matches_the_min_loop_on_any_int_matrix():
    """Matrices that are not metrics: asymmetric, a random diagonal, many
    zeros, and one entry near 2**64, which widens every field."""
    rng = Random(11)
    for draw in range(200):
        n = rng.randint(0, 12)
        rows = [
            [rng.choice([0, 0, rng.randint(1, 50)]) for _ in range(n)]
            for _ in range(n)
        ]
        if n and draw % 2:
            rows[rng.randrange(n)][rng.randrange(n)] = 2**64 - rng.randint(0, 9)
        assert _closure(rows) == min_loop_closure(rows), rows


# The three min-plus loops that ``min_plus`` replaced, kept as its oracles.


def hats_reduce(rows, it):
    """``katetov._hats``'s loop: one value drawn from the shared iterator
    ``it`` per row, the rows folded by a pointwise min."""
    return tuple(reduce(partial(map, min), [
        map(add, repeat(next(it)), row) for row in rows
    ]))


def dual_generator(rows, values):
    """``aell_norm_dual``'s witness loop over its (row, value) pairs."""
    f = list(zip(rows, values))
    return tuple(min(fy + row[i] for row, fy in f) for i in range(len(rows[0])))


def moving_set_distance(space, a, b):
    """``moving_lower_bound``'s label-level gap d(A, B) and its capped
    witness, one ``set_distance`` call per point, in units of 1/den."""
    den = space.scaled[0]
    gap = set_distance(space, a, b)
    near = [set_distance(space, [x], a) for x in space.points]
    return gap * den, [min(gap, v) * den for v in near]


def _min_plus_spaces(rng):
    """Seeded cycles, discrete spaces and palette spaces, n = 1..14."""
    for n in range(1, 15):
        yield cycle_space(n)
        yield space_from_rows(
            [f"x{i}" for i in range(n)],
            [[int(i != j) for j in range(n)] for i in range(n)],
        )
        yield rand_metric_space(rng, n, palette=[F(1), F(2), F(3)])


def test_min_plus_matches_the_loops_it_replaced():
    """On supports of 1..n points with negative, zero and positive values:
    the hat loop, with one value iterator shared across the calls; the
    dual's generator; and the capped distance-to-set of
    ``moving_lower_bound``, with a zero gap (B meets A) and a positive one
    (B misses A).  Each call draws exactly one value per row."""
    rng = Random(2424)
    gaps = set()
    for space in _min_plus_spaces(rng):
        n, pts, rows = space.n, space.points, space.scaled[1]
        supports = [rng.sample(range(n), rng.randint(1, n)) for _ in range(6)]
        values = [[rng.choice([-3, -1, 0, 0, 2, 5, 11]) for _ in s] for s in supports]
        flat = [v for vals in values for v in vals]
        it, ref = iter(flat + ["end"]), iter(flat)
        for supp, vals in zip(supports, values):
            sub_rows = [rows[i] for i in supp]
            ext = min_plus(sub_rows, it)
            assert ext == hats_reduce(sub_rows, ref), (space, supp, vals)
            assert ext == dual_generator(sub_rows, vals), (space, supp, vals)
            own = iter(vals + ["end"])
            assert min_plus(sub_rows, own) == ext and next(own, None) == "end"
            a = [pts[i] for i in supp]
            rest = [x for x in pts if x not in a]
            meets = [a[0], *rng.sample(pts, rng.randint(0, n - 1))]
            misses = rest and rng.sample(rest, rng.randint(1, len(rest)))
            near = min_plus(sub_rows, repeat(0))
            for b in filter(None, (meets, misses)):
                gap = min(near[space.index(y)] for y in b)
                capped = [min(gap, v) for v in near]
                assert (gap, capped) == moving_set_distance(space, a, b), (space, a, b)
                gaps.add(gap > 0)
        assert next(it, None) == "end"
    assert gaps == {False, True}
