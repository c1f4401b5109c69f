"""Command-line front end: load JSON artifacts, dispatch, emit JSON.

Exit codes: 0 success, 1 domain/data error (machine-readable error object on
stdout), 2 usage error.  Output is deterministic: keys are sorted, rationals
are reduced strings, and no timestamps or environment data are included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from operator import methodcaller

from . import actions, freespace, jsonio, katetov, metric, quotients
from .errors import ExactMetricError, StructuralError


def _load_input(args) -> dict:
    data: dict = {}
    for path in args.inputs or [None]:
        where = path or "stdin"
        try:
            if path is None:
                part = json.load(sys.stdin)
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    part = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError as exc:  # an integer literal past int's digit limit
            raise StructuralError(f"{where}: {exc}") from None
        data.update(jsonio.mapping(part, f"{where}: top-level JSON"))
    return data


def _fields(**parsers):
    """A loader that requires every key and then parses each value, in the
    order given."""

    def load(data, args):
        raws = jsonio.require(data, *parsers)
        return tuple(parse(raw) for parse, raw in zip(parsers.values(), raws))

    return load


def _as_built(payload):
    """The emitter of an entry whose call builds its JSON payload itself."""
    return payload


def _norm(m):
    dual, witness = freespace.aell_norm_dual(m)
    primal, plan = freespace.aell_norm_primal(m)
    return {
        "dual": str(dual),
        "primal": str(primal),
        "equal": dual == primal,
        "witness": {x: str(witness.values[x]) for x in m.pointed.space.points},
        "plan": [{"from": s, "to": t, "amount": str(v)} for s, t, v in plan],
    }


def _load_katetov_check(data, args):
    (raw,) = jsonio.require(data, "function")
    (raw_space,) = jsonio.require(raw, "space", what="function record")
    space = jsonio.space_from_json(raw_space)
    support, values = jsonio.function_parts(raw)
    return space, values, support


def _load_star(data, args):
    raw_space, raw_atts = jsonio.require(data, "space", "attachments")
    space = jsonio.space_from_json(raw_space)
    return space, [
        katetov.KatetovFunction(space, *jsonio.function_parts(att))
        for att in jsonio.array(raw_atts, "attachments")
    ]


def _load_tower(data, args):
    (raw,) = jsonio.require(data, "space")
    space = jsonio.space_from_json(raw)
    policy = katetov.TowerPolicy(
        support_size=args.support_size,
        grid_step=args.grid_step,
        value_cap=args.value_cap,
        point_budget=args.budget,
    )
    return space, args.depth, policy


def _load_moving_gap(data, args):
    raw_action, f = jsonio.require(data, "action", "set")
    action = jsonio.action_from_json(raw_action)
    return action, jsonio.labels(f, "set"), data.get("orbit_of")


def _moving_gap(action, f, orbit_of):
    gap, witness = actions.moving_gap(action, f)
    out = {"gap": str(gap), "witness": witness}
    if orbit_of is not None:  # read after the gap, whose faults come first
        x = jsonio.label(orbit_of, "orbit_of")
        out["orbit"] = actions.orbit(action, x)
        out["orbit_diameter"] = str(actions.orbit_diameter(action, x))
    return out


def _load_extend_affine(data, args):
    raw_mol, raw_perm = jsonio.require(data, "molecule", "isometry")
    m = jsonio.molecule_from_json(raw_mol)
    return actions.Isometry(m.pointed.space, jsonio.indices(raw_perm, "isometry")), m


def _load_fvf(data, args):
    raw_group, v_labels = jsonio.require(data, "group", "V")
    group = jsonio.group_from_json(raw_group)
    return group, [group.index(x) for x in jsonio.labels(v_labels, "V")], args.budget


def _fvf(group, v, budget):
    k, f = quotients.min_fvf_cover(group, v, budget)
    return {"k": k, "F": [group.elements[i] for i in f]}


def _load_prop_k(data, args):
    raw_space, a, b, phi_vals, psi_vals = jsonio.require(
        data, "space", "A", "B", "phi", "psi"
    )
    space = jsonio.space_from_json(raw_space)
    phi = katetov.KatetovFunction(
        space, jsonio.labels(a, "A"), jsonio.rationals(phi_vals, "phi")
    )
    psi = katetov.KatetovFunction(
        space, jsonio.labels(b, "B"), jsonio.rationals(psi_vals, "psi")
    )
    return phi, psi


def _load_th_extension_check(data, args):
    raw_action, phi, raw_v, raw_w, bp = jsonio.require(
        data, "action", "phi_set", "v", "w", "basepoint"
    )
    action = jsonio.action_from_json(raw_action)
    space = action.space
    pointed = metric.PointedSpace(space, space.index(jsonio.label(bp, "basepoint")))
    v = freespace.Molecule(pointed, jsonio.rationals(raw_v, "v"))
    w = freespace.Molecule(pointed, jsonio.rationals(raw_w, "w"))
    phi_labels = jsonio.labels(phi, "phi_set")
    element = data.get("element")
    if element is not None:
        element = jsonio.label(element, "element")
    return action, pointed, phi_labels, v, w, element


def _run_suite(name, trials, seed):
    from .proptest import run_suite  # proptest and randgen load only here

    return run_suite(name, trials, seed)


_as_json = methodcaller("as_json")

# name -> (load, call, emit), in the order ``--help`` lists them: ``main``
# reads the input, runs ``emit(call(*load(data, args)))`` and writes the
# payload; ``proptest`` reads no input.
SUBCOMMANDS = {
    "validate": (_fields(space=jsonio.parse_space), metric.validate, _as_json),
    "norm": (_fields(molecule=jsonio.molecule_from_json), _norm, _as_built),
    "katetov-check": (_load_katetov_check, katetov.is_katetov, _as_json),
    "hat-extend": (
        _fields(function=jsonio.katetov_from_json),
        katetov.hat_extension,
        jsonio.katetov_to_json,
    ),
    "star": (_load_star, katetov.star_fragment, jsonio.star_fragment_to_json),
    "tower": (_load_tower, katetov.tower, jsonio.space_to_json),
    "iso-enum": (
        _fields(space=jsonio.space_from_json),
        actions.enumerate_isometries,
        lambda isos: {"count": len(isos), "isometries": [list(g.perm) for g in isos]},
    ),
    "moving-gap": (_load_moving_gap, _moving_gap, _as_built),
    "extend-affine": (
        _load_extend_affine, freespace.affine_extend, jsonio.molecule_to_json
    ),
    "fixed-point": (
        _fields(action=jsonio.action_from_json, molecule=jsonio.molecule_from_json),
        freespace.fixed_point,
        jsonio.molecule_to_json,
    ),
    "quotient": (
        _fields(group=jsonio.pseudometric_from_json),
        quotients.quotient_space,
        lambda sa: {
            "space": jsonio.space_to_json(sa[0]),
            "action": jsonio.action_to_json(sa[1]),
        },
    ),
    "pullback": (
        _fields(
            action=jsonio.action_from_json, point=lambda raw: jsonio.label(raw, "point")
        ),
        quotients.pullback_pseudometric,
        jsonio.pseudometric_to_json,
    ),
    "fvf": (_load_fvf, _fvf, _as_built),
    "prop-k": (_load_prop_k, katetov.prop_k_gap, _as_json),
    "th-extension-check": (
        _load_th_extension_check,
        freespace.extension_certificate,
        lambda c: {
            "element": c[0], "epsilon0": str(c[1]), "witness_bound": str(c[2]),
            "norm_distance": str(c[3]), "certified": c[4],
        },
    ),
    "proptest": (
        lambda data, args: (args.suite, args.trials, args.seed),
        _run_suite,
        _as_built,
    ),
}


def _rational_arg(text: str) -> Fraction:
    try:
        return jsonio.parse_rational(text)
    except StructuralError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactmetric",
        description="Exact-arithmetic finite metric geometry toolkit",
    )
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--in", dest="inputs", action="append", metavar="FILE")
    files.add_argument("--out", dest="out", metavar="FILE")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, parents=[files]) for name in SUBCOMMANDS}
    p["tower"].add_argument("--depth", type=int, default=1)
    p["tower"].add_argument("--support-size", type=int, default=1)
    p["tower"].add_argument("--grid-step", type=_rational_arg, default="1")
    p["tower"].add_argument("--value-cap", type=_rational_arg, default="2")
    p["tower"].add_argument("--budget", type=int, default=64)
    p["fvf"].add_argument("--budget", type=int, default=quotients.FVF_BUDGET)
    p["proptest"].add_argument("--suite", required=True)
    p["proptest"].add_argument("--trials", type=int, default=100)
    p["proptest"].add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    load, call, emit = SUBCOMMANDS[args.command]
    try:
        data = {} if args.command == "proptest" else _load_input(args)
        payload = emit(call(*load(data, args)))
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ExactMetricError as exc:
        error = exc.as_json()
    except (json.JSONDecodeError, UnicodeDecodeError, OSError, RecursionError) as exc:
        # unreadable, undecodable or too deeply nested input
        error = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    else:
        return 1 if args.command == "proptest" and not payload["passed"] else 0
    sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
