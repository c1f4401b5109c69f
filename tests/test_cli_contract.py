"""The CLI contract on malformed input: exit 0, 1 or 2 with a JSON object on
stdout for 0 and 1, never a traceback and never a hang.

Most checks call ``cli.main`` in-process; the tower, proptest and exponent
regressions run in a subprocess so that a hang is cut off by a timeout.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest

from conftest import FIXTURES, cli_env
from exactmetric import cli


def run_main(argv, doc=None):
    """(exit code, stdout) of ``cli.main``; ``doc`` is fed on stdin, as is
    when it is a string and as JSON otherwise."""
    out = io.StringIO()
    stdin = sys.stdin
    if doc is not None:
        sys.stdin = io.StringIO(doc if isinstance(doc, str) else json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def load(name):
    return json.loads((FIXTURES / name).read_text())


LINE = str(FIXTURES / "space_line.json")
EMPTY_SPACE = json.dumps({"space": {"points": [], "dist": []}})


def run_cli(argv, stdin=None):
    """A ``python -m exactmetric.cli`` subprocess, cut off if it hangs."""
    return subprocess.run(
        [sys.executable, "-m", "exactmetric.cli", *argv], input=stdin,
        capture_output=True, text=True, timeout=20, env=cli_env(),
    )


def error_kind(argv, doc=None):
    code, out = run_main(argv, doc)
    assert code == 1, out
    return json.loads(out)["error"]["kind"]


def _edit(name, path, value=None, drop=False):
    """A fixture with the value at ``path`` replaced (or its key dropped)."""
    doc = load(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


MALFORMED = {
    "function-without-space": (
        "katetov-check", {"function": {}}),
    "attachment-without-values": (
        "star", _edit("star.json", ["attachments", 0, "values"], drop=True)),
    "attachments-not-a-list": (
        "star", _edit("star.json", ["attachments"], 5)),
    "phi-not-an-object": (
        "prop-k", _edit("prop_k.json", ["phi"], 5)),
    "v-not-an-object": (
        "th-extension-check", _edit("th_ext.json", ["v"], [1])),
    "isometry-of-labels": (
        "extend-affine", _edit("extend_affine.json", ["isometry"], ["a", "b", "c"])),
    "isometry-not-a-list": (
        "extend-affine", _edit("extend_affine.json", ["isometry"], 5)),
    "group-table-entry": (
        "fvf", _edit("group_z5.json", ["group", "table", 0, 0], "x")),
    "action-image-entry": (
        "moving-gap", _edit("action_c6.json", ["action", "images", "g1", 0], "x")),
    "points-as-a-string": (
        "validate", {"space": {"points": "ab", "dist": [[0, 1], [1, 0]]}}),
    "pseudo-as-a-string": (
        "validate", {"space": {"points": ["a", "b"],
                               "dist": [["0", "0"], ["0", "0"]],
                               "pseudo": "false"}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_structural_error(case):
    command, doc = MALFORMED[case]
    assert error_kind([command], doc) == "StructuralError"


def test_support_label_without_value_is_a_domain_error():
    doc = load("function.json")
    doc["function"]["support"] = ["a", "b"]
    assert error_kind(["katetov-check"], doc) == "DomainError"


def test_support_label_outside_the_space_is_a_domain_error():
    doc = load("function.json")
    doc["function"]["support"] = ["zzz"]
    doc["function"]["values"] = {"zzz": "1"}
    for command in ("katetov-check", "hat-extend"):
        code, out = run_main([command], doc)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "DomainError", "message": "unknown point label 'zzz'"}


def test_support_label_repeated_is_a_domain_error():
    # star used to exit 0 with ["a", "a"] in its provenance
    function = load("function.json")
    function["function"]["support"] = ["a", "a"]
    star = load("star.json")
    star["attachments"][0]["support"] = ["0", "3", "0"]
    for command, doc, label in [("katetov-check", function, "a"),
                                ("hat-extend", function, "a"),
                                ("star", star, "0")]:
        code, out = run_main([command], doc)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "DomainError", "message": f"support repeats the label '{label}'"}


@pytest.mark.parametrize("extra", [{"b": "-5"}, {"zz": "7"}])
def test_value_off_the_support_is_a_domain_error(extra):
    # katetov-check used to ignore such a value and exit 0 with {"ok": true}
    function = load("function.json")
    function["function"]["values"].update(extra)
    star = load("star.json")
    star["attachments"][0]["values"].update(extra)
    for command, doc in [("katetov-check", function), ("hat-extend", function),
                         ("star", star)]:
        code, out = run_main([command], doc)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "DomainError",
            "message": "values must be given exactly on the support"}


@pytest.mark.parametrize("values, katetov_check, needs_a_point", [
    ({"a": "1"}, "values must be given exactly on the support",
     "values must be given exactly on the support"),
    ({}, None, "a Katetov function needs a non-empty support"),
])
def test_empty_support_reports_its_first_failing_rule(
        values, katetov_check, needs_a_point):
    """``katetov-check`` accepts the empty function; a hat or an attachment
    needs a point.  A value off the empty support is refused first."""
    function = load("function.json")
    function["function"].update(support=[], values=values)
    star = load("star.json")
    star["attachments"][0].update(support=[], values=values)
    for command, doc, message in [("katetov-check", function, katetov_check),
                                  ("hat-extend", function, needs_a_point),
                                  ("star", star, needs_a_point)]:
        code, out = run_main([command], doc)
        if message is None:
            assert (code, json.loads(out)) == (0, {"ok": True})
        else:
            assert code == 1
            assert json.loads(out)["error"] == {
                "kind": "DomainError", "message": message}


@pytest.mark.parametrize("side, values", [("A", "phi"), ("B", "psi")])
def test_prop_k_value_off_an_empty_support_is_refused_first(side, values):
    doc = load("prop_k.json")
    doc[side] = []
    code, out = run_main(["prop-k"], doc)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "DomainError",
        "message": "values must be given exactly on the support"}
    doc[values] = {}
    code, out = run_main(["prop-k"], doc)
    assert json.loads(out)["error"]["message"] == (
        "a Katetov function needs a non-empty support")


def test_unreadable_input_file_is_an_error_object(tmp_path):
    assert error_kind(["validate", "--in", str(tmp_path / "absent.json")]) \
        == "FileNotFoundError"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert error_kind(["validate", "--in", str(binary)]) == "UnicodeDecodeError"


@pytest.mark.parametrize("flag", ["--grid-step", "--value-cap"])
@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_non_rational_tower_flag_is_a_usage_error(flag, value):
    code, out = run_main(["tower", "--in", LINE, flag, value])
    assert code == 2 and out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--depth", "-1", "depth must be non-negative"),
    ("--grid-step", "0", "grid step must be positive"),
    ("--support-size", "0", "support size must be at least 1"),
    ("--support-size", "-2", "support size must be at least 1"),
    ("--value-cap", "-1", "value cap must be at least the grid step"),
    ("--value-cap", "1/2", "value cap must be at least the grid step"),
    ("--budget", "-1", "point budget must be non-negative"),
])
def test_empty_tower_policy_is_a_domain_error(flag, value, message):
    # an empty support range or value grid used to print the input unchanged
    code, out = run_main(["tower", "--in", LINE, flag, value])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "DomainError", "message": message}


@pytest.mark.parametrize("argv, stdin, same_as", [
    # combinations(points, k) allocates k indices even when it yields nothing
    (["--in", LINE, "--support-size", "1000000"], None,
     ["--in", LINE, "--support-size", "3"]),
    # no level runs, so the 10**12-value grid is never built
    (["--in", LINE, "--depth", "0", "--grid-step", "1/1000000",
      "--value-cap", "1000000"], None, ["--in", LINE, "--depth", "0"]),
    # every level of the empty space is the empty space
    (["--depth", "10000000"], EMPTY_SPACE, ["--depth", "1"]),
], ids=["support-size-past-the-points", "depth-0-huge-grid", "deep-empty-space"])
def test_tower_returns_at_once_when_no_level_adds_work(argv, stdin, same_as):
    proc = run_cli(["tower", *argv], stdin)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (0, proc.stdout) == run_main(["tower", *same_as], stdin)


def test_huge_tower_grid_fails_fast_on_the_budget():
    proc = run_cli(["tower", "--in", LINE, "--grid-step", "1/1000000",
                    "--value-cap", "1000000", "--budget", "3"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "BudgetExceededError"


def test_over_budget_tower_level_fails_before_its_self_check():
    # the 495-point level's metric self-check alone ran for about 90 s
    proc = run_cli(["tower", "--in", LINE, "--support-size", "2", "--depth", "2",
                    "--budget", "64"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "BudgetExceededError",
        "message": "tower level would have 495 points (budget 64)"}


def test_over_budget_tower_level_fails_before_its_distances():
    # building the 4782-point level's sup distances alone took about 40 s
    proc = run_cli(["tower", "--in", LINE, "--support-size", "3", "--depth", "3"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "BudgetExceededError",
        "message": "tower level would have 4782 points (budget 64)"}


def test_negative_trial_count_is_a_domain_error():
    code, out = run_main(["proptest", "--suite", "duality", "--trials", "-1"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "DomainError", "message": "trial count must be non-negative"}


def test_proptest_reads_no_input():
    """``main`` reads the input once for every subcommand but ``proptest``,
    whose report depends only on its flags: input it would choke on is left
    unread."""
    argv = ["proptest", "--suite", "duality", "--trials", "1", "--seed", "0"]
    code, out = run_main(argv, "{not json")
    assert code == 0
    assert (code, out) == run_main(argv, "")


HUGE_EXPONENT = "1e100000000"  # Fraction would compute 10**100000000


@pytest.mark.parametrize("where", ["field", "flag"])
def test_exponent_rational_fails_fast(tmp_path, where):
    space = tmp_path / "space.json"
    argv = ["validate", "--in", str(space)]
    doc = load("space_line.json")
    if where == "field":
        doc["space"]["dist"][0][1] = doc["space"]["dist"][1][0] = HUGE_EXPONENT
    else:
        argv = ["tower", "--in", str(space), "--grid-step", HUGE_EXPONENT]
    space.write_text(json.dumps(doc))
    proc = run_cli(argv)
    if where == "field":
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == {
            "kind": "StructuralError",
            "message": f"not a rational: {HUGE_EXPONENT!r}"}
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"not a rational: {HUGE_EXPONENT!r}" in proc.stderr


def test_integer_literal_past_the_digit_limit_is_a_structural_error(tmp_path):
    # json.load raises a plain ValueError for more than 4300 digits
    doc = '{"space": {"points": ["a"], "dist": [[' + "9" * 5000 + ']]}}'
    path = tmp_path / "long.json"
    path.write_text(doc)
    for where, argv, stdin in [(str(path), ["--in", str(path)], None),
                               ("stdin", [], doc)]:
        code, out = run_main(["validate", *argv], stdin)
        assert code == 1, out
        error = json.loads(out)["error"]
        assert error["kind"] == "StructuralError"
        assert error["message"].startswith(f"{where}: Exceeds the limit")


def test_a_decimal_past_the_digit_limit_is_refused_briefly():
    """A decimal in a JSON string is not a literal, so the input's digit
    check does not see it; the rational reader refuses it as too long,
    without echoing it."""
    doc = load("space_line.json")
    doc["space"]["dist"][0][1] = doc["space"]["dist"][1][0] = "1." + "0" * 5000
    code, out = run_main(["validate"], doc)
    assert code == 1, out
    limit = sys.get_int_max_str_digits()
    assert json.loads(out)["error"] == {
        "kind": "StructuralError",
        "message": f"a rational's integers may have at most {limit} digits"}


def test_deeply_nested_input_is_an_error_object(tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000)
    assert error_kind(["validate", "--in", str(nested)]) == "RecursionError"


FUZZ_CASES = [
    ("validate", "space_line.json"),
    ("norm", "molecule.json"),
    ("katetov-check", "function.json"),
    ("hat-extend", "function.json"),
    ("star", "star.json"),
    ("tower", "space_line.json"),
    ("iso-enum", "space_line.json"),
    ("moving-gap", "action_c6.json"),
    ("extend-affine", "extend_affine.json"),
    ("fixed-point", "fixed_point.json"),
    ("quotient", "pseudometric_s3.json"),
    ("pullback", "action_c6.json"),
    ("fvf", "group_z5.json"),
    ("prop-k", "prop_k.json"),
    ("th-extension-check", "th_ext.json"),
]
REPLACEMENTS = [5, "x", "ab", [], {}, None, True, 1.5]


def test_mutated_fixtures_keep_the_cli_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    docs = {name: load(name) for _, name in FUZZ_CASES}

    @st.composite
    def mutated(draw):
        command, name = draw(st.sampled_from(FUZZ_CASES))
        doc = copy.deepcopy(docs[name])
        for _ in range(draw(st.integers(1, 2))):
            node = doc
            while True:
                key = draw(st.sampled_from(
                    sorted(node) if isinstance(node, dict) else range(len(node))
                ))
                child = node[key]
                if not (child and isinstance(child, (dict, list))
                        and draw(st.booleans())):
                    break
                node = child
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(st.sampled_from(REPLACEMENTS))
            if not doc:
                break
        return command, doc

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(mutated())
    def check(case):
        command, doc = case
        code, out = run_main([command], doc)
        assert code in (0, 1, 2)
        if code in (0, 1):
            assert isinstance(json.loads(out), dict)

    check()
