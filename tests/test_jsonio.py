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
    labels,
    katetov_to_json,
    molecule_from_json,
    molecule_to_json,
    parse_rational,
    parse_space,
    pointed_from_json,
    pseudometric_from_json,
    pseudometric_to_json,
    rational_matrix,
    rationals,
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


def _parent_parse_rational(value):
    """The ``Fraction`` reader that ``parse_rational`` replaced, kept as its
    oracle: the value, or ``None`` where it raised ``StructuralError``."""
    if type(value) is int or isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return None


def _matrix_value(value):
    den, rows = rational_matrix([[value]], "dist")
    return F(rows[0][0], den)


def _read_both_ways(value):
    """``value`` through ``parse_rational`` and through ``rational_matrix``:
    the two values, ``None`` for each that raised ``StructuralError``."""
    out = []
    for read in (parse_rational, _matrix_value):
        try:
            out.append(read(value))
        except StructuralError:
            out.append(None)
    return out


PINNED_BAD = ["1/", "/2", "1//2", "1/2/3", "-", "", "1/0", "0/0", "1/-2"]


@pytest.mark.parametrize("bad", PINNED_BAD, ids=repr)
def test_int_pair_reader_refuses_what_fraction_refuses(bad):
    # splitting on "/" alone would read "1/" as 1
    assert _parent_parse_rational(bad) is None
    with pytest.raises(StructuralError, match="not a rational"):
        parse_rational(bad)
    with pytest.raises(StructuralError, match="not a rational"):
        rational_matrix([[0, bad], [bad, 0]], "dist")


@pytest.mark.parametrize("text, want", [("-0012/0004", F(-3)), ("007/014", F(1, 2))])
def test_int_pair_reader_reads_leading_zeros_as_fraction_does(text, want):
    assert Fraction(text) == want
    assert _read_both_ways(text) == [want, want]


def test_int_pair_reader_matches_fraction():
    """Every text over the digits, the signs, "/", ".", "_", " ", "e", "E"
    and two non-ASCII digits reads as the parent's ``Fraction`` reader
    reads it, through ``parse_rational`` and through ``rational_matrix``:
    the same value, or ``StructuralError`` from both."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    long_digits = "7" * 4301  # over int()'s default 4300-digit limit
    named = PINNED_BAD + [
        "-0012/0004", "007/014", "0", "-0", "12", "-7/2", "4/6", "1.25",
        " 1/2 ", "1 / 2", "+3", "1_000", "1__0", "١", "²", "1e3", "2E-3",
        long_digits, long_digits + "/3", "1/" + long_digits, "9" * 4300,
        0, -5, 10**50,
    ]
    texts = st.text(alphabet="0123456789-+/._ eE١²", max_size=10)

    def agrees(value):
        want = _parent_parse_rational(value)
        assert _read_both_ways(value) == [want, want], value

    for value in named:
        agrees(value)

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.one_of(texts, st.integers()))
    def check(value):
        agrees(value)

    check()


def test_loading_ascii_ratios_makes_no_fraction_in_jsonio(monkeypatch):
    """A space of ASCII ``p/q`` strings and JSON ints is read as int pairs."""
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} made while loading")

    doc = space_to_json(rand_metric_space(Random(3), 6))
    assert any("/" in v for row in doc["dist"] for v in row)
    doc["dist"][0][0] = 0
    monkeypatch.setattr("exactmetric.jsonio.Fraction", no_fraction)
    pointed = pointed_from_json(dict(doc, basepoint=doc["points"][0]))
    monkeypatch.undo()
    assert "dist" not in vars(pointed.space)
    doc["dist"][0][0] = "0"
    assert space_to_json(pointed.space) == doc


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


@pytest.mark.parametrize("bad", [1.5, True, None, ["a"], {"a": 1}])
def test_labels_must_be_json_strings_or_integers(bad):
    """An integer label is read as its string; a bool is no integer here."""
    data = {"points": ["a", 7], "dist": [["0", "1"], ["1", "0"]]}
    assert parse_space(data).points == ("a", "7")
    with pytest.raises(
        StructuralError, match="^points must hold string or integer labels$"
    ):
        parse_space({**data, "points": ["a", bad]})


def test_an_integer_label_past_the_digit_limit_is_structural():
    """``str`` of an int past int's digit limit raises ``ValueError``; the
    command line refuses such a literal as it reads JSON, a library caller
    gets a short refusal that names the limit."""
    limit = sys.get_int_max_str_digits()
    assert labels([10**(limit - 1)], "points") == (str(10**(limit - 1)),)
    with pytest.raises(
        StructuralError, match=f"^points labels may have at most {limit} digits$"
    ):
        labels(["a", 10**5000], "points")


@pytest.mark.parametrize("text", [
    "1" * 5000, "-" + "1" * 5000, "1/" + "7" * 5000,
    "1." + "0" * 5000, "-." + "5" * 5000, "7" * 5000 + ".",
])
def test_a_rational_past_the_digit_limit_is_refused_briefly(text):
    """A valid integer or decimal too long for ``int`` is refused as too
    long, not as "not a rational" with the whole input echoed."""
    limit = sys.get_int_max_str_digits()
    message = f"^a rational's integers may have at most {limit} digits$"
    with pytest.raises(StructuralError, match=message):
        parse_rational(text)
    with pytest.raises(StructuralError, match=message):
        rational_matrix([[0, text], [text, 0]], "dist")
    assert parse_rational("9" * limit) == 10**limit - 1
    assert parse_rational("1." + "0" * limit) == 1


def _refused_briefly(text):
    """``text``, of a form ``Fraction`` reads but past ``int``'s digit limit,
    gets the short refusal that names the limit, through ``parse_rational``
    and through ``rational_matrix``."""
    limit = sys.get_int_max_str_digits()
    message = f"^a rational's integers may have at most {limit} digits$"
    with pytest.raises(StructuralError, match=message):
        parse_rational(text)
    with pytest.raises(StructuralError, match=message):
        rational_matrix([[0, text], [text, 0]], "dist")


def test_a_plus_signed_integer_past_the_digit_limit_is_refused_briefly():
    limit = sys.get_int_max_str_digits()
    _refused_briefly("+" + "1" * 5000)
    assert parse_rational("+" + "1" * limit) == int("1" * limit)


def test_a_spaced_decimal_past_the_digit_limit_is_refused_briefly():
    limit = sys.get_int_max_str_digits()
    _refused_briefly(" 1." + "0" * 5000)
    assert parse_rational(" 1." + "0" * (limit - 1)) == 1


def test_an_underscored_integer_past_the_digit_limit_is_refused_briefly():
    limit = sys.get_int_max_str_digits()
    _refused_briefly("1_0" + "0" * 5000)
    assert parse_rational("1_0" + "0" * (limit - 2)) == 10 ** (limit - 1)


@pytest.mark.parametrize("text", [
    "1__0" + "0" * 5000, "+-" + "1" * 5000, "1." + "0" * 5000 + ".", "x" + "1" * 5000,
])
def test_a_long_text_of_no_rational_form_is_still_not_a_rational(text):
    with pytest.raises(StructuralError, match="^not a rational: "):
        parse_rational(text)


@pytest.mark.parametrize("value, message", [
    ("x" + "1" * 5000, "not a rational: 'x" + "1" * 31 + "'... (5001 characters)"),
    ("1__0" + "0" * 5000, "not a rational: '1__0" + "0" * 28 + "'... (5004 characters)"),
    ([1] * 2000, "not a rational: '[1" + ", 1" * 10 + "'... (6000 characters)"),
    ("x" * 32, "not a rational: '" + "x" * 32 + "'"),
    ([1] * 10, "not a rational: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"),
], ids=["x then 5000 ones", "1__0 then 5000 zeros", "a long list", "32 characters",
        "a short list"])
def test_a_refused_value_is_echoed_at_most_32_characters_with_its_length(value, message):
    """A long text of no rational form is echoed cut to its first 32
    characters, with its length, through ``parse_rational`` and through the
    CLI's readers; a value whose text fits is echoed whole, as before."""
    for read in (parse_rational, lambda v: rational_matrix([[0, v], [v, 0]], "dist")):
        with pytest.raises(StructuralError) as caught:
            read(value)
        assert str(caught.value) == message


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


def test_action_round_trip(monkeypatch):
    """Every image is given, so no closure runs to complete them."""
    def no_closure(*args):
        raise AssertionError("closure run with every image given")

    action = rotation_action(6)
    monkeypatch.setattr("exactmetric.jsonio.closure", no_closure)
    assert action_from_json(action_to_json(action)) == action


def test_action_from_generators_only():
    action = rotation_action(5)
    data = action_to_json(action)
    data["images"] = {"g1": data["images"]["g1"]}
    assert action_from_json(data) == action


def test_loading_action_c6_checks_each_given_image_and_each_product_once(
    isometry_checks,
):
    """The one given image is checked as it loads, the identity and the
    four composed images are built unchecked, and ``GroupAction`` checks
    each of the 6^2 products once: 37 checks."""
    data = json.loads((FIXTURES / "action_c6.json").read_text())["action"]
    action = action_from_json(data)
    assert len(isometry_checks) == 1 + 6 ** 2
    assert action == rotation_action(6)


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


MOLECULE_COEFFS = {
    "a JSON int": -3, "p": "5", "-p/q": "-7/3", "unreduced": "2/4",
    "a decimal": "-1.25", "zero": "0", "on the basepoint": "9/2",
}


@pytest.mark.parametrize("form", MOLECULE_COEFFS)
def test_molecule_from_json_reads_each_coefficient_form_as_the_constructor(form):
    """The int loader gives the molecule that ``Molecule`` gives on the
    ``Fraction``s that ``rationals`` reads, for each coefficient form, alone
    and beside the others."""
    sp = rand_metric_space(Random(5), 1 + len(MOLECULE_COEFFS))
    bp = sp.points[0]
    spots = {form: bp if form == "on the basepoint" else sp.points[k]
             for k, form in enumerate(MOLECULE_COEFFS, 1)}
    every = {spots[f]: v for f, v in MOLECULE_COEFFS.items()}
    for coeffs in ({spots[form]: MOLECULE_COEFFS[form]}, every):
        data = {"space": space_to_json(sp), "basepoint": bp, "coeffs": coeffs}
        want = Molecule(PointedSpace(sp, 0), rationals(coeffs, "coeffs"))
        assert molecule_from_json(data) == want


def test_loading_a_molecule_makes_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} made while loading")

    sp = rand_metric_space(Random(6), 4)
    data = {"space": space_to_json(sp), "basepoint": sp.points[0],
            "coeffs": dict(zip(sp.points, [1, "-2/6", "3", "0"]))}
    monkeypatch.setattr("exactmetric.jsonio.Fraction", no_fraction)
    monkeypatch.setattr("exactmetric.freespace.Fraction", no_fraction)
    m = molecule_from_json(data)
    monkeypatch.undo()
    assert m.coeffs == ((sp.points[1], F(-1, 3)), (sp.points[2], F(3)))


@pytest.mark.parametrize("coeffs, basepoint, message", [
    ([["1", "2"]], "0", "^coeffs must be a JSON object$"),
    ({"1": "2", "3": "x"}, None, "^not a rational: 'x'$"),
    ({"zz": "1", "3": "x"}, "0", "^not a rational: 'x'$"),
    ({"1": "2", "zz": "1"}, "0", "^unknown point label 'zz'$"),
    ({"1": 0.5}, "0", "^not a rational: 0.5$"),
    ({"1": "2"}, "zz", "^unknown point label 'zz'$"),
    ({"1": "2"}, None, "^molecule requires a basepoint$"),
], ids=["not an object", "bad rational before no basepoint",
        "bad rational before unknown label", "unknown label", "float",
        "unknown basepoint", "no basepoint"])
def test_molecule_from_json_refuses_in_order(line013, coeffs, basepoint, message):
    """Every coefficient is read before the basepoint is looked for, and
    the basepoint before the coefficients' labels."""
    data = {"space": space_to_json(line013), "coeffs": coeffs}
    if basepoint is not None:
        data["basepoint"] = basepoint
    with pytest.raises((StructuralError, DomainError), match=message):
        molecule_from_json(data)


def test_molecule_basepoint_inside_space_record():
    rng = Random(101)
    sp = rand_metric_space(rng, 3)
    data = {
        "space": {**space_to_json(sp), "basepoint": sp.points[0]},
        "coeffs": {sp.points[1]: "1"},
    }
    m = molecule_from_json(data)
    assert m.pointed.basepoint_label == sp.points[0]
    with pytest.raises(StructuralError, match="^molecule requires a basepoint$"):
        molecule_from_json({"space": space_to_json(sp), "coeffs": {}})


def test_pseudometric_loader_names_the_first_entry_that_breaks_invariance():
    """Row 2 of the S3 record agrees with delta's layout up to column 3, so
    the refusal names (element 2, element 3), not an entry that agrees."""
    record = json.loads((FIXTURES / "pseudometric_s3.json").read_text())["group"]
    rows = record["pseudometric"]
    rows[2][3] = rows[3][2] = str(Fraction(rows[2][3]) + 1)
    a, b = record["elements"][2], record["elements"][3]
    with pytest.raises(DomainError) as err:
        pseudometric_from_json(record)
    assert str(err.value) == (
        "pseudometric is not left-invariant: d(a, b) != d(e, a^-1 b) "
        f"at ({a}, {b})")
