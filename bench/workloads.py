"""The four benchmark workloads: seeded request documents and the handlers
that answer them the way the matching CLI subcommand does.

A request is a JSON document.  Set-up generates every document from the
seed (``randgen`` runs only here) and serializes it; the timed phase hands
the library nothing but that text.  Each handler has three steps, mirroring
a CLI handler: ``load`` (``jsonio`` parses and validates), ``call`` (the
layer under test) and ``emit`` (the JSON payload the CLI would print).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from oracles import cycle_distance, dihedral

# (size, requests) rungs per workload; "tiny" is the self-test's scale.
LADDERS = {
    "full": {
        "norm": [(8, 68), (9, 60), (10, 54), (11, 46), (12, 38), (13, 24), (14, 16)],
        "distance": [(12, 32), (16, 44), (20, 40), (24, 24), (28, 20)],
        "extension": [(n, 10) for n in range(6, 12)],
        "quotient": [(n, 2) for n in range(5, 13)],
    },
    "tiny": {
        "norm": [(4, 3), (5, 3)],
        "distance": [(5, 3), (6, 3)],
        "extension": [(4, 1), (5, 1)],
        "quotient": [(4, 1), (5, 1)],
    },
}

# Per base space of the extension workload: one star fragment with 3n
# attachments, then these many hat-extend and prop-k requests.  Stars are a
# third of the requests, so the 90th percentile falls among them.
HATS_PER_SPACE = 1
PROPS_PER_SPACE = 1
# One tower level on these cycles (support size 2, values 1 and 2).
TOWER_CYCLES = {"full": [4, 5], "tiny": [4]}
# Molecule pairs per generated space in the distance workload.
PAIRS_PER_SPACE = 4


def space_doc(points, dist, basepoint=None):
    doc = {
        "points": list(points),
        "dist": [[str(v) for v in row] for row in dist],
        "pseudo": False,
    }
    if basepoint is not None:
        doc["basepoint"] = basepoint
    return doc


def cycle_doc(n):
    return space_doc(
        [str(i) for i in range(n)],
        [[cycle_distance(n, i, j) for j in range(n)] for i in range(n)],
    )


def _nonzero(rng, L, lo=-5, hi=5):
    while True:
        v = L.randgen.rand_fraction(rng, lo, hi)
        if v:
            return v


def _coeffs(rng, L, points, bp):
    return {x: str(_nonzero(rng, L)) for x in points if x != bp}


def gen_norm(L, rng, ladder):
    for n, count in ladder:
        for _ in range(count):
            space = L.randgen.rand_metric_space(rng, n)
            bp = rng.choice(space.points)
            yield "norm", {"molecule": {
                "space": space_doc(space.points, space.dist),
                "basepoint": bp,
                "coeffs": _coeffs(rng, L, space.points, bp),
            }}


def gen_distance(L, rng, ladder):
    for n, count in ladder:
        for i in range(count):
            if i % PAIRS_PER_SPACE == 0:
                space = L.randgen.rand_metric_space(rng, n)
            bp = rng.choice(space.points)
            yield "distance", {
                "space": space_doc(space.points, space.dist, basepoint=bp),
                "v": _coeffs(rng, L, space.points, bp),
                "w": _coeffs(rng, L, space.points, bp),
            }


def _function(rng, L, space, support):
    f = L.randgen.rand_katetov(rng, space, tuple(support))
    return {"support": list(f.support), "values": {x: str(v) for x, v in f.values.items()}}


def gen_extension(L, rng, ladder, towers):
    for n, count in ladder:
        for _ in range(count):
            space = L.randgen.rand_metric_space(rng, n)
            sdoc = space_doc(space.points, space.dist)
            atts = [
                _function(rng, L, space, rng.sample(space.points, rng.randint(1, min(4, n))))
                for _ in range(3 * n)
            ]
            yield "star", {"space": sdoc, "attachments": atts}
            for _ in range(HATS_PER_SPACE):
                f = _function(rng, L, space, rng.sample(space.points, rng.randint(1, 3)))
                yield "hat-extend", {"function": {"space": sdoc, **f}}
            for _ in range(PROPS_PER_SPACE):
                a, b = (rng.randint(1, min(3, n // 2)) for _ in range(2))
                pts = rng.sample(space.points, a + b)
                phi = _function(rng, L, space, pts[:a])
                psi = _function(rng, L, space, pts[a:])
                yield "prop-k", {
                    "space": sdoc, "A": phi["support"], "B": psi["support"],
                    "phi": phi["values"], "psi": psi["values"],
                }
    for n in towers:
        yield "tower", {
            "space": cycle_doc(n), "depth": 1, "support_size": 2,
            "grid_step": "1", "value_cap": "2", "budget": 128,
        }


def _group_doc(labels, perms):
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[j] for j in q)] for q in perms] for p in perms]
    return {"elements": labels, "table": table}


def gen_quotient(L, rng, ladder):
    for n, count in ladder:
        labels, perms = dihedral(n)
        group = _group_doc(labels, perms)
        cycle = cycle_doc(n)
        action = {
            "group": group, "space": cycle,
            "images": {g: list(p) for g, p in zip(labels, perms)},
        }
        for _ in range(count):
            xi = rng.randrange(n)
            meta = {"n": n, "xi": xi}
            pm = dict(group, pseudometric=[
                [str(cycle_distance(n, p[xi], q[xi])) for q in perms] for p in perms
            ])
            yield "iso-enum", {"space": cycle}
            yield "closure", {
                "space": cycle,
                "generators": [list(perms[1]), list(perms[n + rng.randrange(n)])],
            }
            yield "pullback", {"action": action, "point": str(xi), "meta": meta}
            yield "quotient", {"group": pm, "meta": meta}
            yield "orbit", {"action": action, "point": str(xi), "meta": meta}
            yield "certificate", {
                "group": pm, "radius": str(rng.choice([1, 2])), "meta": meta,
                "phis": [rng.sample(labels, rng.randint(1, 2)) for _ in range(3)],
            }
            ball = [g for g, p in zip(labels, perms) if p[xi] == xi]
            yield "fvf", {"group": group, "V": ball, "meta": meta}


def generate(L, workload: str, seed: int, scale: str = "full"):
    """The workload's (kind, document) list for a seed; same seed, same list."""
    rng = Random(f"exactmetric-bench:{workload}:{seed}")
    ladder = LADDERS[scale][workload]
    if workload == "extension":
        return list(gen_extension(L, rng, ladder, TOWER_CYCLES[scale]))
    return list(GENERATORS[workload](L, rng, ladder))


GENERATORS = {"norm": gen_norm, "distance": gen_distance, "quotient": gen_quotient}
WORKLOADS = ("norm", "distance", "extension", "quotient")


# ---------------------------------------------------------------- handlers


def _rationals(L, mapping):
    return {str(k): L.jsonio.parse_rational(v) for k, v in mapping.items()}


def _katetov(L, space, support, values):
    return L.katetov.KatetovFunction(space, tuple(str(x) for x in support), _rationals(L, values))


def load_norm(L, d):
    return L.jsonio.molecule_from_json(d["molecule"])


def call_norm(L, m):
    dual, witness = L.freespace.aell_norm_dual(m)
    primal, plan = L.freespace.aell_norm_primal(m)
    return m, dual, witness, primal, plan


def emit_norm(L, r):
    m, dual, witness, primal, plan = r
    return {
        "dual": str(dual),
        "primal": str(primal),
        "equal": dual == primal,
        "witness": {x: str(witness.values[x]) for x in m.pointed.space.points},
        "plan": [{"from": s, "to": t, "amount": str(v)} for s, t, v in plan],
    }


def load_distance(L, d):
    pointed = L.jsonio.pointed_from_json(d["space"])
    make = L.freespace.Molecule.make
    return make(pointed, _rationals(L, d["v"])), make(pointed, _rationals(L, d["w"]))


def load_star(L, d):
    space = L.jsonio.space_from_json(d["space"])
    return space, [_katetov(L, space, a["support"], a["values"]) for a in d["attachments"]]


def load_prop_k(L, d):
    space = L.jsonio.space_from_json(d["space"])
    return _katetov(L, space, d["A"], d["phi"]), _katetov(L, space, d["B"], d["psi"])


def load_tower(L, d):
    policy = L.katetov.TowerPolicy(
        support_size=d["support_size"],
        grid_step=Fraction(d["grid_step"]),
        value_cap=Fraction(d["value_cap"]),
        point_budget=d["budget"],
    )
    return L.jsonio.space_from_json(d["space"]), d["depth"], policy


def load_closure(L, d):
    space = L.jsonio.space_from_json(d["space"])
    return space, [L.actions.Isometry(space, tuple(p)) for p in d["generators"]]


def load_fvf(L, d):
    group = L.jsonio.group_from_json(d["group"])
    return group, [group.index(str(x)) for x in d["V"]]


def load_certificate(L, d):
    pm = L.jsonio.pseudometric_from_json(d["group"])
    return pm, L.jsonio.parse_rational(d["radius"]), d["phis"]


def emit_fvf(L, r):
    group, (k, f) = r
    return {"k": k, "F": [group.elements[i] for i in f]}


# kind -> (load, call, emit); each takes the library namespace first.
HANDLERS = {
    "norm": (load_norm, call_norm, emit_norm),
    "distance": (
        load_distance,
        lambda L, vw: L.freespace.norm_distance(*vw),
        lambda L, r: {"distance": str(r)},
    ),
    "star": (
        load_star,
        lambda L, sa: L.katetov.star_fragment(*sa),
        lambda L, r: L.jsonio.star_fragment_to_json(r),
    ),
    "hat-extend": (
        lambda L, d: L.jsonio.katetov_from_json(d["function"]),
        lambda L, f: L.katetov.hat_extension(f),
        lambda L, r: L.jsonio.katetov_to_json(r),
    ),
    "prop-k": (
        load_prop_k,
        lambda L, pp: L.katetov.prop_k_gap(*pp),
        lambda L, r: r.as_json(),
    ),
    "tower": (
        load_tower,
        lambda L, t: L.katetov.tower(*t),
        lambda L, r: L.jsonio.space_to_json(r),
    ),
    "iso-enum": (
        lambda L, d: L.jsonio.space_from_json(d["space"]),
        lambda L, s: L.actions.enumerate_isometries(s),
        lambda L, r: {"count": len(r), "isometries": [list(g.perm) for g in r]},
    ),
    "closure": (
        load_closure,
        lambda L, sg: L.actions.action_from_closure(*sg),
        lambda L, r: L.jsonio.action_to_json(r),
    ),
    "pullback": (
        lambda L, d: (L.jsonio.action_from_json(d["action"]), str(d["point"])),
        lambda L, ap: L.quotients.pullback_pseudometric(*ap),
        lambda L, r: L.jsonio.pseudometric_to_json(r),
    ),
    "quotient": (
        lambda L, d: L.jsonio.pseudometric_from_json(d["group"]),
        lambda L, pm: L.quotients.quotient_space(pm),
        lambda L, r: {
            "space": L.jsonio.space_to_json(r[0]),
            "action": L.jsonio.action_to_json(r[1]),
        },
    ),
    "orbit": (
        lambda L, d: (L.jsonio.action_from_json(d["action"]), str(d["point"])),
        lambda L, ap: L.quotients.orbit_isomorphism(*ap),
        lambda L, r: r,
    ),
    "certificate": (
        load_certificate,
        lambda L, prp: L.quotients.moving_certificate(*prp),
        lambda L, r: [e.as_json() for e in r],
    ),
    "fvf": (
        load_fvf,
        lambda L, gv: (gv[0], L.quotients.min_fvf_cover(*gv)),
        emit_fvf,
    ),
}
