import argparse
import json
import re
import subprocess
import sys

import pytest

from conftest import FIXTURES, ROOT, cli_env, fixture_generator
from exactmetric import cli
from exactmetric.proptest import SUITES

CMD = [sys.executable, "-m", "exactmetric.cli"]


def run_cli(*argv, stdin=None):
    return subprocess.run(
        CMD + list(argv),
        input=stdin,
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def run_json(*argv, stdin=None):
    proc = run_cli(*argv, stdin=stdin)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def fixture(name):
    return str(FIXTURES / name)


def test_validate_good_space():
    out = run_json("validate", "--in", fixture("space_line.json"))
    assert out["ok"] is True


def test_validate_reports_axiom_failure_with_exit_zero():
    out = run_json("validate", "--in", fixture("space_bad.json"))
    assert out["ok"] is False and out["axiom"] == "triangle"


def test_validate_reads_stdin():
    blob = (FIXTURES / "space_line.json").read_text()
    out = run_json("validate", stdin=blob)
    assert out["ok"] is True


def test_norm_reports_both_routes():
    out = run_json("norm", "--in", fixture("molecule.json"))
    assert out["dual"] == "3" and out["primal"] == "3" and out["equal"] is True
    assert out["witness"]["0"] == "0"


def test_katetov_check():
    out = run_json("katetov-check", "--in", fixture("function.json"))
    assert out["ok"] is True


def test_hat_extend():
    out = run_json("hat-extend", "--in", fixture("function.json"))
    assert out["values"] == {"a": "1", "b": "6"}


def test_star():
    out = run_json("star", "--in", fixture("star.json"))
    assert len(out["space"]["points"]) == 4
    assert out["provenance"][0]["fresh"] is True


def test_tower():
    out = run_json(
        "tower", "--in", fixture("space_line.json"),
        "--depth", "1", "--support-size", "1",
        "--grid-step", "1", "--value-cap", "2", "--budget", "64",
    )
    assert len(out["points"]) > 3


def test_tower_budget_exhaustion_is_an_error():
    proc = run_cli(
        "tower", "--in", fixture("space_line.json"),
        "--depth", "2", "--support-size", "2",
        "--value-cap", "3", "--budget", "8",
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "BudgetExceededError"


def test_iso_enum():
    out = run_json("iso-enum", "--in", fixture("space_line.json"))
    assert out["count"] == 1 and out["isometries"] == [[0, 1, 2]]


def test_moving_gap():
    out = run_json("moving-gap", "--in", fixture("action_c6.json"))
    assert out["gap"] == "2" and out["witness"] == "g3"
    assert out["orbit_diameter"] == "3"


def test_extend_affine():
    out = run_json("extend-affine", "--in", fixture("extend_affine.json"))
    # rotating the unit mass at "1" moves it to "2"; the image of the
    # basepoint "0" enters with coefficient 1 - 1 = 0 and is dropped
    assert out["coeffs"] == {"2": "1"}


def test_fixed_point():
    out = run_json("fixed-point", "--in", fixture("fixed_point.json"))
    assert set(out["coeffs"].values()) == {"1/6"}


def test_quotient():
    out = run_json("quotient", "--in", fixture("pseudometric_s3.json"))
    assert len(out["space"]["points"]) == 3
    assert out["space"]["dist"][0][1] == "1"


def test_pullback():
    out = run_json("pullback", "--in", fixture("action_c6.json"))
    assert out["pseudometric"][0] == ["0", "1", "2", "3", "2", "1"]


def test_fvf():
    out = run_json("fvf", "--in", fixture("group_z5.json"))
    assert out["k"] == 2 and len(out["F"]) == 2


def test_prop_k():
    out = run_json("prop-k", "--in", fixture("prop_k.json"))
    assert out["gap"] == "5" and out["certified"] is True


def test_th_extension_check():
    out = run_json("th-extension-check", "--in", fixture("th_ext.json"))
    assert out["element"] == "g6"
    assert out["epsilon0"] == "5" and out["witness_bound"] == "5"
    assert out["certified"] is True


def test_th_extension_check_uses_the_given_element():
    doc = json.loads((FIXTURES / "th_ext.json").read_text())
    doc["element"] = "g1"  # g1 does not move phi: its gap is 0
    out = run_json("th-extension-check", stdin=json.dumps(doc))
    assert out["element"] == "g1"
    assert out["epsilon0"] == "0" and out["witness_bound"] == "0"
    assert out["norm_distance"] == "7/2"


def test_proptest_subcommand():
    out = run_json("proptest", "--suite", "duality", "--trials", "5", "--seed", "1")
    assert out["passed"] is True and out["failures"] == []


def test_only_the_proptest_entry_imports_proptest():
    """``proptest`` and the ``randgen`` generators it uses load when that
    entry runs, not with the CLI."""
    code = ("import sys, exactmetric.cli; print(sorted(m for m in sys.modules "
            "if m in ('exactmetric.proptest', 'exactmetric.randgen')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env())
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_unknown_suite_is_a_domain_error():
    proc = run_cli("proptest", "--suite", "nope", "--trials", "1")
    assert proc.returncode == 1
    assert "error" in json.loads(proc.stdout)


def test_malformed_json_gives_error_object_and_exit_one():
    proc = run_cli("validate", "--in", fixture("malformed.json"))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "JSONDecodeError"


def test_missing_key_is_reported():
    proc = run_cli("norm", "--in", fixture("space_line.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert "molecule" in err["message"]


def test_usage_error_exits_two():
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    proc = run_cli("proptest")  # --suite is required
    assert proc.returncode == 2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(
        "validate", "--in", fixture("space_line.json"), "--out", str(target)
    )
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(target.read_text())["ok"] is True


def test_multiple_inputs_merge():
    out = run_json(
        "moving-gap",
        "--in", fixture("action_c6.json"),
        "--in", fixture("space_line.json"),  # extra keys are ignored
    )
    assert out["gap"] == "2"


@pytest.mark.parametrize("argv", [
    ("validate", "--in", "space_line.json"),
    ("validate", "--in", "space_bad.json"),
    ("norm", "--in", "molecule.json"),
    ("katetov-check", "--in", "function.json"),
    ("hat-extend", "--in", "function.json"),
    ("star", "--in", "star.json"),
    ("tower", "--in", "space_line.json", "--depth", "1"),
    ("iso-enum", "--in", "space_line.json"),
    ("moving-gap", "--in", "action_c6.json"),
    ("extend-affine", "--in", "extend_affine.json"),
    ("fixed-point", "--in", "fixed_point.json"),
    ("quotient", "--in", "pseudometric_s3.json"),
    ("pullback", "--in", "action_c6.json"),
    ("fvf", "--in", "group_z5.json"),
    ("fvf", "--in", "group_d12.json"),
    ("prop-k", "--in", "prop_k.json"),
    ("th-extension-check", "--in", "th_ext.json"),
    ("proptest", "--suite", "metric-fuzz", "--trials", "3", "--seed", "7"),
])
def test_output_is_deterministic(argv):
    argv = [a if not a.endswith(".json") else fixture(a) for a in argv]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout.endswith("\n")



def test_generate_only_records_one_file(tmp_path):
    generate = fixture_generator()

    def recorded():
        return sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*") if p.is_file())

    generate.main("golden/fvf_group_d12.out", tmp_path)
    assert recorded() == ["golden/fvf_group_d12.out"]
    generate.main("star.json", tmp_path)
    assert recorded() == ["golden/fvf_group_d12.out", "star.json"]
    for name in recorded():
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    with pytest.raises(SystemExit, match="absent.json"):
        generate.main("absent.json", tmp_path)
    assert recorded() == ["golden/fvf_group_d12.out", "star.json"]


def test_readme_names_every_suite_and_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Available suites:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([\w-]+)`", listed) == sorted(SUITES)
    table = readme.split("| Subcommand |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([\w-]+)` \|", table, re.MULTILINE)
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert documented == list(subcommands)
