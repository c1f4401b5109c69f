import contextlib
import io
import json
import sys
from fractions import Fraction
from random import Random

import pytest

from conftest import FIXTURES
from exactmetric import DomainError, StructuralError, cli
from exactmetric.jsonio import (
    action_from_json,
    action_to_json,
    group_from_json,
    group_to_json,
    katetov_from_json,
    katetov_to_json,
    molecule_from_json,
    molecule_to_json,
    parse_rational,
    parse_space,
    pointed_from_json,
    pseudometric_from_json,
    pseudometric_to_json,
    rational_matrix,
    space_from_json,
    space_to_json,
)
from exactmetric.randgen import (
    rand_coeffs,
    rand_group,
    rand_invariant_pseudometric,
    rand_katetov,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)
from exactmetric.freespace import Molecule
from exactmetric.metric import FiniteMetricSpace, PointedSpace, validate

F = Fraction


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("4/6") == F(2, 3)
    assert parse_rational("1.25") == F(5, 4)


def test_parse_rational_rejections():
    # an exponent would make Fraction compute 10**exponent
    for bad in (True, None, 1.5, "x", "1/0", [], "1e10000000", "2E-3"):
        with pytest.raises(StructuralError):
            parse_rational(bad)


@pytest.mark.parametrize("dist", [[[0, True], [True, 0]], [[0, 1], [True, 0]]])
def test_rational_matrix_still_rejects_booleans(dist):
    # True == 1 with the same hash, so a memo keyed on any entry would
    # hand back the Fraction parsed for 1
    with pytest.raises(StructuralError):
        rational_matrix(dist, "dist")


def test_rational_matrix_reads_equal_forms_as_equal_fractions():
    den, rows = rational_matrix([[1, "1", "2/2"], ["2/2", "1", 1]], "dist")
    assert (den, rows) == (1, [[1] * 3] * 2)
    assert all(type(v) is int for row in rows for v in row)
    den, rows = rational_matrix([["1/2", "0.5", "2/4"], [1, "-3/4", 0]], "dist")
    assert (den, rows) == (4, [[2, 2, 2], [4, -3, 0]])
    # the space built from them holds Fractions again
    sp = parse_space({"points": ["a", "b"], "dist": [[0, "1"], ["2/2", 0]]})
    assert sp.dist == ((0, 1), (1, 0)) and sp.scaled == (1, ((0, 1), (1, 0)))
    assert all(type(v) is Fraction for row in sp.dist for v in row)


def run_main(argv, doc):
    """(exit code, stdout) of ``cli.main`` with ``doc`` as JSON on stdin."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@pytest.mark.parametrize("entry", [[], {}, ["1"], {"1": 1}], ids=repr)
def test_unhashable_matrix_entries_are_structural(entry):
    """A memo keyed on the entries would raise ``TypeError`` here."""
    dist = [["0", "1"], ["1", "0"]]
    dist[0][1] = entry
    space = {"points": ["a", "b"], "dist": dist}
    with pytest.raises(StructuralError, match="not a rational"):
        rational_matrix(dist, "dist")
    with pytest.raises(StructuralError, match="not a rational"):
        parse_space(space)
    group = json.loads((FIXTURES / "pseudometric_s3.json").read_text())
    group["group"]["pseudometric"][2][3] = entry
    with pytest.raises(StructuralError, match="not a rational"):
        pseudometric_from_json(group["group"])
    for argv, doc in (["validate"], {"space": space}), (["quotient"], group):
        code, out = run_main(argv, doc)
        error = json.loads(out)["error"]
        assert code == 1 and error["kind"] == "StructuralError"
        assert error["message"].startswith("not a rational")


def test_loaded_space_equals_the_space_built_from_its_entries():
    rng = Random(5)
    for _ in range(20):
        palette = [F(1, 2), F(1), F(3, 2)]
        sp = rand_metric_space(rng, rng.randint(2, 9), palette=palette)
        doc = json.loads(json.dumps(space_to_json(sp)))
        built = FiniteMetricSpace(
            tuple(doc["points"]),
            tuple(tuple(Fraction(v) for v in row) for row in doc["dist"]),
        )
        assert parse_space(doc) == built == space_from_json(doc) == sp


def test_rationals_are_written_reduced():
    sp = rand_metric_space(Random(7), 4)
    pointed = PointedSpace(sp, 0)
    a, b, c = sp.points[1:]
    m = Molecule.make(pointed, {a: F(4, 6), b: F(5), c: F(-1, 2)})
    assert molecule_to_json(m)["coeffs"] == {a: "2/3", b: "5", c: "-1/2"}


def test_space_round_trip_is_bit_exact():
    rng = Random(73)
    for _ in range(25):
        sp = rand_metric_space(rng, rng.randint(1, 6))
        blob = json.dumps(space_to_json(sp), sort_keys=True)
        assert space_from_json(json.loads(blob)) == sp
        # encoding again produces the identical byte string
        assert json.dumps(space_to_json(space_from_json(json.loads(blob))),
                          sort_keys=True) == blob


def test_space_loader_validates():
    data = {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }
    with pytest.raises(DomainError):
        space_from_json(data)


def test_space_loader_shape_errors():
    with pytest.raises(StructuralError):
        space_from_json({"points": ["a"]})
    with pytest.raises(StructuralError):
        space_from_json({"points": ["a", "b"], "dist": [["0", "1"]]})


@pytest.mark.parametrize("pseudo", ["false", "true", 0, 1, None, [True]])
def test_pseudo_flag_must_be_a_json_boolean(pseudo):
    data = {"points": ["a", "b"], "dist": [["0", "0"], ["0", "0"]]}
    assert not parse_space(data).pseudo
    assert parse_space({**data, "pseudo": True}).pseudo
    with pytest.raises(StructuralError, match="pseudo must be a JSON boolean"):
        parse_space({**data, "pseudo": pseudo})


def test_pointed_requires_basepoint():
    data = space_to_json(rand_metric_space(Random(1), 3))
    with pytest.raises(StructuralError):
        pointed_from_json(data)
    data["basepoint"] = data["points"][0]
    pointed = pointed_from_json(data)
    assert pointed.basepoint_label == data["points"][0]


def test_katetov_round_trip():
    rng = Random(79)
    for _ in range(20):
        sp = rand_metric_space(rng, rng.randint(2, 5))
        pts = list(sp.points)
        rng.shuffle(pts)
        supp = tuple(sorted(pts[: rng.randint(1, sp.n)]))
        f = rand_katetov(rng, sp, supp)
        assert katetov_from_json(katetov_to_json(f)) == f


def test_group_round_trip():
    rng = Random(83)
    for _ in range(10):
        group = rand_group(rng)
        assert group_from_json(group_to_json(group)) == group


def test_pseudometric_round_trip_and_shape_check():
    rng = Random(89)
    pm = rand_invariant_pseudometric(rng, rand_group(rng, max_order=8))
    data = pseudometric_to_json(pm)
    assert pseudometric_from_json(data) == pm
    data["pseudometric"] = data["pseudometric"][:-1]
    with pytest.raises(StructuralError):
        pseudometric_from_json(data)


def cubic_pseudometric_check(group, d):
    """The matrix check the loader replaced, kept as its oracle: the
    pseudometric axioms, then d(ka, kb) = d(a, b) for every k, a and b."""
    if not validate(FiniteMetricSpace(group.elements, d, pseudo=True)).ok:
        return False
    n = range(group.order)
    return all(
        d[group.mul(k, a)][group.mul(k, b)] == d[a][b]
        for k in n for a in n for b in n
    )


def test_pseudometric_loader_matches_the_cubic_check():
    """Valid matrices, one symmetric pair perturbed, and right-invariant
    matrices d(a, b) = delta(b a^-1) on non-abelian groups."""
    rng = Random(97)
    seen = set()
    for trial in range(201):
        kind = ("valid", "perturbed", "right")[trial % 3]
        group = rand_group(rng, max_order=12)
        while kind == "right" and group.table == tuple(zip(*group.table)):
            group = rand_group(rng, max_order=12)
        delta = rand_invariant_pseudometric(rng, group).delta
        n = range(group.order)
        if kind == "right":
            d = [[delta[group.mul(b, group.inv(a))] for b in n] for a in n]
        else:
            d = [[delta[group.mul(group.inv(a), b)] for b in n] for a in n]
        if kind == "perturbed":
            a, b = rng.sample(n, 2)
            step = rng.choice([F(-1), F(-1, 2), F(1, 2), F(2)])
            d[a][b] = d[b][a] = d[a][b] + step
        rows = [[str(v) for v in row] for row in d]
        record = dict(group_to_json(group), pseudometric=rows)
        ok = cubic_pseudometric_check(group, tuple(map(tuple, d)))
        if ok:
            assert pseudometric_to_json(pseudometric_from_json(record)) == record
        else:
            with pytest.raises(DomainError):
                pseudometric_from_json(record)
        seen.add((kind, ok))
    # a perturbed pair on Z_2 and a conjugation-invariant delta stay valid
    assert seen == {("valid", True), ("perturbed", True), ("perturbed", False),
                    ("right", True), ("right", False)}


def test_action_round_trip():
    action = rotation_action(6)
    assert action_from_json(action_to_json(action)) == action


def test_action_from_generators_only():
    action = rotation_action(5)
    data = action_to_json(action)
    data["images"] = {"g1": data["images"]["g1"]}
    assert action_from_json(data) == action


def test_action_missing_generators_rejected():
    action = rotation_action(6)
    data = action_to_json(action)
    data["images"] = {"g2": data["images"]["g2"]}  # generates only half
    with pytest.raises(DomainError):
        action_from_json(data)


def test_molecule_round_trip():
    rng = Random(97)
    for _ in range(20):
        sp = rand_metric_space(rng, rng.randint(2, 6))
        pointed = rand_pointed(rng, sp)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        assert molecule_from_json(molecule_to_json(m)) == m


def test_molecule_basepoint_inside_space_record():
    rng = Random(101)
    sp = rand_metric_space(rng, 3)
    data = {
        "space": {**space_to_json(sp), "basepoint": sp.points[0]},
        "coeffs": {sp.points[1]: "1"},
    }
    m = molecule_from_json(data)
    assert m.pointed.basepoint_label == sp.points[0]
    with pytest.raises(StructuralError):
        molecule_from_json({"space": space_to_json(sp), "coeffs": {}})
