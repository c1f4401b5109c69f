"""Regenerate the JSON fixtures used by the CLI tests.

Run from the repository root:  python3 tests/fixtures/generate.py
"""

import json
from fractions import Fraction
from pathlib import Path

from exactmetric import FiniteMetricSpace, PointedSpace, cyclic_group, symmetric_group
from exactmetric.freespace import Molecule
from exactmetric.jsonio import (
    action_to_json,
    group_to_json,
    molecule_to_json,
    pseudometric_to_json,
    space_to_json,
)
from exactmetric.quotients import InvariantPseudometric
from exactmetric.randgen import cycle_space, rotation_action

HERE = Path(__file__).parent
F = Fraction


def dump(name, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (HERE / name).write_text(text, encoding="utf-8")


def main():
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

    (HERE / "malformed.json").write_text("{not json", encoding="utf-8")


if __name__ == "__main__":
    main()
