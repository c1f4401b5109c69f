"""JSON encoding and decoding for every shipped artifact type.

Rationals travel as reduced "p/q" strings ("p" when the denominator is 1),
giving bit-exact round trips.  Loaders validate eagerly and raise
:class:`StructuralError` for malformed shapes, :class:`DomainError` for data
violating the mathematical contracts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from typing import Any, Mapping

from .actions import GroupAction, Isometry
from .errors import DomainError, StructuralError
from .freespace import Molecule
from .groups import FiniteGroup
from .katetov import KatetovFunction, StarFragment
from .metric import FiniteMetricSpace, PointedSpace, require_valid
from .quotients import InvariantPseudometric


def parse_rational(value: Any) -> Fraction:
    """A JSON integer, or a string ``p``, ``p/q`` or decimal.  Exponents are
    rejected: ``Fraction("1e10000000")`` would compute 10**10000000."""
    if type(value) is int or isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuralError(f"not a rational: {value!r}")


# Readers: one per JSON shape.  Each raises StructuralError on a wrong type;
# ``what`` names the field in the message.


def mapping(value: Any, what: str) -> dict:
    if isinstance(value, dict):
        return value
    raise StructuralError(f"{what} must be a JSON object")


def array(value: Any, what: str) -> list:
    if isinstance(value, list):
        return value
    raise StructuralError(f"{what} must be a JSON array")


def require(data: Any, *keys: str, what: str = "input") -> list:
    """The values at ``keys`` of a JSON object, in order."""
    record = mapping(data, what)
    for key in keys:
        if key not in record:
            raise StructuralError(f"{what} is missing the {key!r} key")
    return [record[key] for key in keys]


def label(value: Any, what: str) -> str:
    """A point or element label: a JSON string, or an integer read as one."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    raise StructuralError(f"{what} must hold string or integer labels")


def labels(value: Any, what: str) -> tuple[str, ...]:
    return tuple(label(x, what) for x in array(value, what))


def rationals(value: Any, what: str) -> dict[str, Fraction]:
    """A label -> rational object."""
    return {str(k): parse_rational(v) for k, v in mapping(value, what).items()}


def rational_matrix(value: Any, what: str) -> tuple[int, list[list]]:
    """``(den, rows)``: the entries as ints over the lcm of their
    denominators.  Each distinct string or integer is parsed once; any other
    entry (a boolean equals 1, a list is unhashable) is rejected unmemoized."""
    parsed: dict[Any, Fraction] = {}
    rows = []
    for row in array(value, what):
        rows.append(array(row, what))
        for v in rows[-1]:
            if type(v) is not str and type(v) is not int:
                parse_rational(v)
            elif v not in parsed:
                parsed[v] = parse_rational(v)
    den = lcm(*(q.denominator for q in parsed.values()))
    ints = {v: q.numerator * (den // q.denominator) for v, q in parsed.items()}
    return den, [list(map(ints.__getitem__, row)) for row in rows]


def indices(value: Any, what: str) -> tuple[int, ...]:
    """A list of JSON integers (point or element indices)."""
    out = tuple(array(value, what))
    if any(type(v) is not int for v in out):
        raise StructuralError(f"{what} must hold JSON integers")
    return out


def parse_space(data: Any) -> FiniteMetricSpace:
    """A space record as written; the metric axioms are not checked."""
    points, dist = require(data, "points", "dist", what="space record")
    pseudo = data.get("pseudo", False)
    if type(pseudo) is not bool:
        raise StructuralError("pseudo must be a JSON boolean")
    pts = labels(points, "points")
    return FiniteMetricSpace.from_scaled(pts, *rational_matrix(dist, "dist"), pseudo)


def function_parts(data: Any) -> tuple[tuple[str, ...], dict[str, Fraction]]:
    """The (support, values) pair of a function record."""
    support, values = require(
        data, "support", "values", what="function record"
    )
    return labels(support, "support"), rationals(values, "values")


def space_from_json(data: Mapping[str, Any]) -> FiniteMetricSpace:
    return require_valid(parse_space(data))


def space_to_json(space: FiniteMetricSpace):
    den, rows = space.scaled
    text = {v: str(Fraction(v, den)) for v in set(chain.from_iterable(rows))}
    return {
        "points": list(space.points),
        "dist": [list(map(text.__getitem__, row)) for row in rows],
        "pseudo": space.pseudo,
    }


def pointed_from_json(data: Mapping[str, Any]) -> PointedSpace:
    space = space_from_json(data)
    (bp,) = require(data, "basepoint", what="pointed space record")
    return PointedSpace(space, space.index(label(bp, "basepoint")))


def katetov_from_json(data: Mapping[str, Any]) -> KatetovFunction:
    (raw_space,) = require(data, "space", what="function record")
    space = space_from_json(raw_space)
    return KatetovFunction(space, *function_parts(data))


def katetov_to_json(f: KatetovFunction):
    return {
        "space": space_to_json(f.space),
        "support": list(f.support),
        "values": {x: str(f.value(x)) for x in f.support},
    }


def star_fragment_to_json(frag: StarFragment):
    return {
        "space": space_to_json(frag.result),
        "provenance": [
            {
                "support": list(rec.support),
                "values": {
                    x: str(v) for x, v in rec.values.items()
                },
                "point": rec.point,
                "fresh": rec.fresh,
            }
            for rec in frag.attached
        ],
    }


def group_from_json(data: Mapping[str, Any]) -> FiniteGroup:
    elements, table = require(data, "elements", "table", what="group record")
    return FiniteGroup(
        labels(elements, "elements"),
        tuple(indices(row, "table") for row in array(table, "table")),
    )


def group_to_json(group: FiniteGroup):
    return {
        "elements": list(group.elements),
        "table": [list(row) for row in group.table],
    }


def pseudometric_from_json(data: Mapping[str, Any]) -> InvariantPseudometric:
    group = group_from_json(data)
    (raw,) = require(data, "pseudometric", what="group record")
    den, d = rational_matrix(raw, "pseudometric")
    n = group.order
    if len(d) != n or any(len(row) != n for row in d):
        raise StructuralError("pseudometric matrix shape mismatch")
    delta = d[group.identity]
    pm = InvariantPseudometric(group, tuple(map(Fraction, delta, repeat(den))))
    for a, row in enumerate(d):
        shift = group.table[group.inv(a)]
        for b, v in enumerate(row):
            if v != delta[shift[b]]:
                raise DomainError(
                    "pseudometric is not left-invariant: d(a, b) != "
                    f"d(e, a^-1 b) at ({group.elements[a]}, {group.elements[b]})"
                )
    return pm


def pseudometric_to_json(pm: InvariantPseudometric):
    g = pm.group
    out = group_to_json(g)
    text = list(map(str, pm.delta))
    out["pseudometric"] = [
        list(map(text.__getitem__, g.table[g.inv(a)])) for a in range(g.order)
    ]
    return out


def action_from_json(data: Mapping[str, Any]) -> GroupAction:
    """Load an action, completing missing images by composing given ones.

    Images may be supplied for generators only; the rest are filled in by
    multiplying known images until the table closes, then the homomorphism
    law is verified as usual.
    """
    raw_group, raw_space, raw_images = require(
        data, "group", "space", "images", what="action record"
    )
    group = group_from_json(raw_group)
    space = space_from_json(raw_space)
    images: dict[int, Isometry] = {
        group.identity: Isometry.identity(space)
    }
    for name, perm in mapping(raw_images, "images").items():
        images[group.index(name)] = Isometry(space, indices(perm, "images"))
    changed = True
    while changed:
        changed = False
        known = list(images)
        for a in known:
            for b in known:
                c = group.mul(a, b)
                if c not in images:
                    images[c] = images[a].compose(images[b])
                    changed = True
    if len(images) != group.order:
        missing = [
            group.elements[i] for i in range(group.order) if i not in images
        ]
        raise DomainError(
            f"images do not generate the whole group; missing {missing}"
        )
    return GroupAction(
        group, space, tuple(images[i] for i in range(group.order))
    )


def action_to_json(action: GroupAction):
    return {
        "group": group_to_json(action.group),
        "space": space_to_json(action.space),
        "images": {
            action.group.elements[i]: list(iso.perm)
            for i, iso in enumerate(action.images)
        },
    }


def molecule_from_json(data: Mapping[str, Any]) -> Molecule:
    raw_space, raw_coeffs = require(
        data, "space", "coeffs", what="molecule record"
    )
    space = space_from_json(raw_space)
    coeffs = rationals(raw_coeffs, "coeffs")
    bp = data.get("basepoint", raw_space.get("basepoint"))
    if bp is None:
        raise StructuralError("molecule requires a basepoint")
    pointed = PointedSpace(space, space.index(label(bp, "basepoint")))
    return Molecule.make(pointed, coeffs)


def molecule_to_json(m: Molecule):
    return {
        "space": space_to_json(m.pointed.space),
        "basepoint": m.pointed.basepoint_label,
        "coeffs": {x: str(v) for x, v in m.coeffs},
    }
