"""Regenerate the JSON fixtures used by the CLI tests, the recorded solver
answers and the golden CLI outputs.

Run from the repository root:  PYTHONPATH=src python3 tests/fixtures/generate.py

``--only NAME`` records one file, named by its path under this directory
(``star.json``, ``solver_answers.json``, ``golden/fvf_group_d12.out``), and
leaves every other file untouched.

The solver answers and the golden outputs pin what the library returns
today, so regenerate them only for an intended change of output.
"""

import argparse
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from exactmetric import (
    FiniteMetricSpace,
    PointedSpace,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from exactmetric import cli
from exactmetric.freespace import Molecule, aell_norm_dual, aell_norm_primal
from exactmetric.jsonio import (
    action_to_json,
    group_to_json,
    molecule_to_json,
    pseudometric_to_json,
    space_to_json,
)
from exactmetric.quotients import InvariantPseudometric
from exactmetric.randgen import (
    cycle_space,
    rand_coeffs,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
F = Fraction

# The CLI invocations of acceptance criterion 10; fixture names are relative
# to this directory.
CLI_INVOCATIONS = [
    ("validate", "--in", "space_line.json"),
    ("validate", "--in", "space_bad.json"),
    ("norm", "--in", "molecule.json"),
    ("katetov-check", "--in", "function.json"),
    ("hat-extend", "--in", "function.json"),
    ("star", "--in", "star.json"),
    ("star", "--in", "star_dedup.json"),
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
    ("proptest", "--suite", "duality", "--trials", "5", "--seed", "3"),
]


def cli_argv(invocation):
    """The invocation with its fixture names made absolute."""
    return [str(HERE / a) if a.endswith(".json") else a for a in invocation]


def golden_path(invocation):
    """Where the stdout of an invocation is recorded, e.g.
    ``golden/tower_space_line_1.out``."""
    words = [a.removesuffix(".json") for a in invocation if not a.startswith("--")]
    return GOLDEN / ("_".join(words) + ".out")


def solver_cases():
    """300 seeded molecules over spaces of 2..10 points.  Every other space
    draws its distances from {1, 2, 3}, where optimal plans and optimal
    witnesses tie, so the recorded answers pin each solver's tie-breaks."""
    rng = Random(4004)
    palette = [F(1), F(2), F(3)]
    cases = []
    for k in range(300):
        space = rand_metric_space(rng, 2 + k % 9, palette=palette if k % 2 else None)
        pointed = rand_pointed(rng, space)
        cases.append(Molecule.make(pointed, rand_coeffs(rng, pointed, space.n)))
    return cases


def solver_answer(m):
    """The primal (cost, plan) and the dual (value, witness values) of a
    molecule, as JSON."""
    cost, plan = aell_norm_primal(m)
    value, witness = aell_norm_dual(m)
    return {
        "primal": [str(cost), [[s, t, str(a)] for s, t, a in plan]],
        "dual": [str(value), {x: str(v) for x, v in witness.values.items()}],
    }


def main(only=None, out=HERE):
    """Write the fixtures, the solver answers and the goldens under ``out``,
    or only the file at the relative path ``only``.  The golden invocations
    read their inputs from this directory whatever ``out`` is."""
    written = []

    def wanted(name):
        return only in (None, name)

    def write(name, text):
        if wanted(name):
            path = out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
            written.append(name)

    def dump(name, payload):
        write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    line = FiniteMetricSpace(
        ("0", "1", "3"),
        (
            (F(0), F(1), F(3)),
            (F(1), F(0), F(2)),
            (F(3), F(2), F(0)),
        ),
    )
    dump("space_line.json", {"space": space_to_json(line)})

    dump("space_bad.json", {"space": {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }})

    pointed = PointedSpace(line, 0)
    mol = Molecule.make(pointed, {"1": F(2), "3": F(-1)})
    dump("molecule.json", {"molecule": molecule_to_json(mol)})

    line05 = FiniteMetricSpace(
        ("a", "b"), ((F(0), F(5)), (F(5), F(0)))
    )
    dump("function.json", {"function": {
        "space": space_to_json(line05),
        "support": ["a"],
        "values": {"a": "1"},
    }})

    dump("star.json", {
        "space": space_to_json(line),
        "attachments": [
            {"support": ["0", "3"], "values": {"0": "2", "3": "2"}},
        ],
    })

    # A pseudometric with equal rows c and c2, and a base point named p1, so
    # the first fresh label needs a suffix.  The attachments hit every dedup
    # case: a profile of c2 (absorbed into c, the first equal row), a fresh
    # hat, another fresh hat, the first hat again, and the first hat reached
    # from a different support.
    dedup = FiniteMetricSpace(
        ("a", "p1", "c", "c2"),
        (
            (F(0), F(2), F(1), F(1)),
            (F(2), F(0), F(1), F(1)),
            (F(1), F(1), F(0), F(0)),
            (F(1), F(1), F(0), F(0)),
        ),
        pseudo=True,
    )
    dump("star_dedup.json", {
        "space": space_to_json(dedup),
        "attachments": [
            {"support": ["c2"], "values": {"c2": "0"}},
            {"support": ["a"], "values": {"a": "3"}},
            {"support": ["a", "p1"], "values": {"a": "1", "p1": "1"}},
            {"support": ["a"], "values": {"a": "3"}},
            {"support": ["a", "c"], "values": {"a": "3", "c": "4"}},
        ],
    })

    c6 = rotation_action(6)
    c6_json = action_to_json(c6)
    # keep a single generator image; the loader completes the rest
    c6_json["images"] = {"g1": c6_json["images"]["g1"]}
    dump("action_c6.json", {
        "action": c6_json,
        "set": ["0", "1"],
        "orbit_of": "0",
        "point": "0",
    })

    hexagon = cycle_space(6)
    hex_pointed = PointedSpace(hexagon, 0)
    hex_mol = Molecule.make(hex_pointed, {"1": F(1)})
    dump("extend_affine.json", {
        "molecule": molecule_to_json(hex_mol),
        "isometry": [1, 2, 3, 4, 5, 0],
    })
    dump("fixed_point.json", {
        "action": c6_json,
        "molecule": molecule_to_json(hex_mol),
    })

    z5 = cyclic_group(5)
    dump("group_z5.json", {
        "group": group_to_json(z5),
        "V": ["0", "1", "4"],
    })

    # the symmetries of the 12-gon with V the stabilizer {r0, s0} of vertex
    # 0, the ball the quotient benchmark searches on C12: a cover of size 4
    d12 = dihedral_group(12)
    dump("group_d12.json", {
        "group": group_to_json(d12),
        "V": ["r0", "s0"],
    })

    s3 = symmetric_group(3)
    h = {s3.index("012"), s3.index("021")}
    pm = InvariantPseudometric(s3, tuple(F(g not in h) for g in range(s3.order)))
    dump("pseudometric_s3.json", {"group": pseudometric_to_json(pm)})

    dump("prop_k.json", {
        "space": space_to_json(line05),
        "A": ["a"],
        "B": ["b"],
        "phi": {"a": "1"},
        "psi": {"b": "1"},
    })

    c12 = rotation_action(12)
    c12_json = action_to_json(c12)
    c12_json["images"] = {"g1": c12_json["images"]["g1"]}
    dump("th_ext.json", {
        "action": c12_json,
        "basepoint": "0",
        "phi_set": ["0", "1"],
        "v": {"1": "2"},
        "w": {"1": "-1/2"},
    })

    write("malformed.json", "{not json")

    if wanted("solver_answers.json"):
        answers = [json.dumps(solver_answer(m), sort_keys=True) for m in solver_cases()]
        write("solver_answers.json", "[\n" + ",\n".join(answers) + "\n]\n")

    for invocation in CLI_INVOCATIONS:
        name = golden_path(invocation).relative_to(HERE).as_posix()
        if not wanted(name):
            continue
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            if cli.main(cli_argv(invocation)) != 0:
                raise SystemExit(f"{invocation} did not exit 0")
        write(name, stdout.getvalue())

    if not written:
        raise SystemExit(f"no fixture or golden is named {only!r}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the test fixtures.")
    parser.add_argument("--only", metavar="NAME",
                        help="record only this file, e.g. golden/star_star.out")
    main(parser.parse_args().only)
