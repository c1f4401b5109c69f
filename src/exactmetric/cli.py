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

from . import jsonio
from .actions import (
    Isometry,
    enumerate_isometries,
    moving_gap,
    orbit,
    orbit_diameter,
    translation_gap,
)
from .errors import ExactMetricError, StructuralError
from .freespace import (
    Molecule,
    aell_norm_dual,
    aell_norm_primal,
    affine_extend,
    fixed_point,
    moving_lower_bound,
    norm_distance,
)
from .katetov import (
    KatetovFunction,
    TowerPolicy,
    hat_extension,
    is_katetov,
    prop_k_gap,
    star_fragment,
    tower,
)
from .metric import PointedSpace, validate
from .proptest import run_suite
from .quotients import (
    FVF_BUDGET,
    min_fvf_cover,
    pullback_pseudometric,
    quotient_space,
)


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


def _emit(args, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    (raw,) = jsonio.require(_load_input(args), "space")
    _emit(args, validate(jsonio.parse_space(raw)).as_json())


def cmd_norm(args):
    (raw,) = jsonio.require(_load_input(args), "molecule")
    m = jsonio.molecule_from_json(raw)
    dual, witness = aell_norm_dual(m)
    primal, plan = aell_norm_primal(m)
    _emit(args, {
        "dual": str(dual),
        "primal": str(primal),
        "equal": dual == primal,
        "witness": {
            x: str(witness.values[x]) for x in m.pointed.space.points
        },
        "plan": [
            {"from": s, "to": t, "amount": str(v)} for s, t, v in plan
        ],
    })


def cmd_katetov_check(args):
    (raw,) = jsonio.require(_load_input(args), "function")
    (raw_space,) = jsonio.require(raw, "space", what="function record")
    space = jsonio.space_from_json(raw_space)
    support, values = jsonio.function_parts(raw)
    _emit(args, is_katetov(space, values, support).as_json())


def cmd_hat_extend(args):
    (raw,) = jsonio.require(_load_input(args), "function")
    f = jsonio.katetov_from_json(raw)
    _emit(args, jsonio.katetov_to_json(hat_extension(f)))


def cmd_star(args):
    raw_space, raw_atts = jsonio.require(
        _load_input(args), "space", "attachments"
    )
    space = jsonio.space_from_json(raw_space)
    attachments = [
        KatetovFunction(space, *jsonio.function_parts(att))
        for att in jsonio.array(raw_atts, "attachments")
    ]
    _emit(args, jsonio.star_fragment_to_json(star_fragment(space, attachments)))


def cmd_tower(args):
    (raw,) = jsonio.require(_load_input(args), "space")
    space = jsonio.space_from_json(raw)
    policy = TowerPolicy(
        support_size=args.support_size,
        grid_step=args.grid_step,
        value_cap=args.value_cap,
        point_budget=args.budget,
    )
    result = tower(space, args.depth, policy)
    _emit(args, jsonio.space_to_json(result))


def cmd_iso_enum(args):
    (raw,) = jsonio.require(_load_input(args), "space")
    space = jsonio.space_from_json(raw)
    isos = enumerate_isometries(space)
    _emit(args, {"count": len(isos), "isometries": [list(g.perm) for g in isos]})


def cmd_moving_gap(args):
    data = _load_input(args)
    raw_action, f = jsonio.require(data, "action", "set")
    action = jsonio.action_from_json(raw_action)
    gap, witness = moving_gap(action, jsonio.labels(f, "set"))
    out = {"gap": str(gap), "witness": witness}
    if data.get("orbit_of") is not None:
        x = jsonio.label(data["orbit_of"], "orbit_of")
        out["orbit"] = orbit(action, x)
        out["orbit_diameter"] = str(orbit_diameter(action, x))
    _emit(args, out)


def cmd_extend_affine(args):
    raw_mol, raw_perm = jsonio.require(
        _load_input(args), "molecule", "isometry"
    )
    m = jsonio.molecule_from_json(raw_mol)
    g = Isometry(m.pointed.space, jsonio.indices(raw_perm, "isometry"))
    _emit(args, jsonio.molecule_to_json(affine_extend(g, m)))


def cmd_fixed_point(args):
    raw_action, raw_mol = jsonio.require(
        _load_input(args), "action", "molecule"
    )
    action = jsonio.action_from_json(raw_action)
    m = jsonio.molecule_from_json(raw_mol)
    _emit(args, jsonio.molecule_to_json(fixed_point(action, m)))


def cmd_quotient(args):
    (raw,) = jsonio.require(_load_input(args), "group")
    pm = jsonio.pseudometric_from_json(raw)
    space, action = quotient_space(pm)
    _emit(args, {
        "space": jsonio.space_to_json(space),
        "action": jsonio.action_to_json(action),
    })


def cmd_pullback(args):
    raw_action, point = jsonio.require(_load_input(args), "action", "point")
    action = jsonio.action_from_json(raw_action)
    pm = pullback_pseudometric(action, jsonio.label(point, "point"))
    _emit(args, jsonio.pseudometric_to_json(pm))


def cmd_fvf(args):
    raw_group, v_labels = jsonio.require(_load_input(args), "group", "V")
    group = jsonio.group_from_json(raw_group)
    v = [group.index(x) for x in jsonio.labels(v_labels, "V")]
    k, f = min_fvf_cover(group, v, budget=args.budget)
    _emit(args, {"k": k, "F": [group.elements[i] for i in f]})


def cmd_prop_k(args):
    raw_space, a, b, phi_vals, psi_vals = jsonio.require(
        _load_input(args), "space", "A", "B", "phi", "psi"
    )
    space = jsonio.space_from_json(raw_space)
    phi = KatetovFunction(
        space, jsonio.labels(a, "A"), jsonio.rationals(phi_vals, "phi")
    )
    psi = KatetovFunction(
        space, jsonio.labels(b, "B"), jsonio.rationals(psi_vals, "psi")
    )
    _emit(args, prop_k_gap(phi, psi).as_json())


def cmd_th_extension_check(args):
    data = _load_input(args)
    raw_action, phi, raw_v, raw_w, bp = jsonio.require(
        data, "action", "phi_set", "v", "w", "basepoint"
    )
    action = jsonio.action_from_json(raw_action)
    space = action.space
    pointed = PointedSpace(space, space.index(jsonio.label(bp, "basepoint")))
    v = Molecule.make(pointed, jsonio.rationals(raw_v, "v"))
    w = Molecule.make(pointed, jsonio.rationals(raw_w, "w"))
    phi_labels = jsonio.labels(phi, "phi_set")
    phi_plus = sorted(set(phi_labels) | {pointed.basepoint_label})
    if data.get("element") is not None:
        best = action.group.index(jsonio.label(data["element"], "element"))
        gap = translation_gap(action, [space.index(x) for x in phi_plus], best)
    else:
        # the identity stands for "no element moves phi" (gap 0)
        gap, witness = moving_gap(action, phi_plus)
        best = action.group.index(witness) if gap else action.group.identity
    iso = action.images[best]
    bound = moving_lower_bound(pointed, phi_labels, iso, v, w)
    lp = norm_distance(affine_extend(iso, v), w)
    _emit(args, {
        "element": action.group.elements[best],
        "epsilon0": str(gap),
        "witness_bound": str(bound),
        "norm_distance": str(lp),
        "certified": bound == gap and lp >= bound,
    })


def cmd_proptest(args):
    report = run_suite(args.suite, args.trials, args.seed)
    _emit(args, report)
    if not report["passed"]:
        sys.exit(1)


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
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **extra):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="inputs", action="append", metavar="FILE")
        p.add_argument("--out", dest="out", metavar="FILE")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate)
    add("norm", cmd_norm)
    add("katetov-check", cmd_katetov_check)
    add("hat-extend", cmd_hat_extend)
    add("star", cmd_star)
    p = add("tower", cmd_tower)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--support-size", type=int, default=1)
    p.add_argument("--grid-step", type=_rational_arg, default="1")
    p.add_argument("--value-cap", type=_rational_arg, default="2")
    p.add_argument("--budget", type=int, default=64)
    add("iso-enum", cmd_iso_enum)
    add("moving-gap", cmd_moving_gap)
    add("extend-affine", cmd_extend_affine)
    add("fixed-point", cmd_fixed_point)
    add("quotient", cmd_quotient)
    add("pullback", cmd_pullback)
    p = add("fvf", cmd_fvf)
    p.add_argument("--budget", type=int, default=FVF_BUDGET)
    add("prop-k", cmd_prop_k)
    add("th-extension-check", cmd_th_extension_check)
    p = add("proptest", cmd_proptest)
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except ExactMetricError as exc:
        sys.stdout.write(json.dumps(exc.as_json(), sort_keys=True) + "\n")
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError, OSError, RecursionError) as exc:
        # unreadable, undecodable or too deeply nested input
        payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
