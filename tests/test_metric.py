from fractions import Fraction
from math import lcm
from random import Random

import pytest

from exactmetric import (
    DomainError,
    FiniteMetricSpace,
    StructuralError,
    set_distance,
    validate,
)
from exactmetric.metric import _scan, scale_rows
from exactmetric.randgen import rand_fraction, rand_metric_space

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
    space = FiniteMetricSpace(("a", "b"), rows)
    with pytest.raises(DomainError, match="distances must be exact rationals"):
        validate(space)


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
        assert built == oracle and hash(built) == hash(oracle)
        assert all(type(v) is Fraction for row in built.dist for v in row)
        assert "scaled" in vars(built)
        assert built.scaled == scale_rows(built.dist) == oracle.scaled
        assert all(type(v) is int for row in built.scaled[1] for v in row)
        seen.add((built.scaled[0] < den, validate(built).ok))
    assert seen == {(False, True), (True, True), (False, False), (True, False)}


def test_float_distance_is_a_domain_error():
    sp = FiniteMetricSpace(("a", "b"), ((F(0), 0.5), (0.5, F(0))))
    with pytest.raises(DomainError, match="exact rationals"):
        sp.scaled


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


def test_zero_palette_entry_gives_a_valid_pseudometric():
    rng = Random(3)
    for _ in range(200):
        space = rand_metric_space(
            rng, 4, pseudo=True, palette=[F(0), F(1, 4), F(1)]
        )
        assert validate(space).ok
