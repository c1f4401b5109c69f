"""JSON encoding and decoding for every shipped artifact type.

Rationals travel as reduced "p/q" strings ("p" when the denominator is 1),
giving bit-exact round trips.  A distance matrix and a molecule's
coefficients are read to ints, each rational to an int pair, and stored
with no ``Fraction`` made; the other records' rationals are read to
``Fraction``s.  Loaders validate eagerly and raise :class:`StructuralError`
for malformed shapes, :class:`DomainError` for data violating the
mathematical contracts.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from typing import Any, Mapping

from .actions import GroupAction, Isometry, _unchecked
from .errors import DomainError, StructuralError, refusing
from .freespace import Molecule
from .groups import FiniteGroup, closure, compose
from .katetov import KatetovFunction, StarFragment
from .metric import FiniteMetricSpace, PointedSpace, require_valid
from .quotients import InvariantPseudometric

# a group of digits as ``Fraction`` reads one, ``_`` between digits
_DIGIT_GROUP = re.compile(r"\d+(?:_\d+)*")
# a refusal echoes at most this many characters of a value's text
_ECHOED = 32


def parse_rational(value: Any) -> Fraction:
    """A JSON integer, or a string ``p``, ``p/q`` or decimal.  Exponents are
    rejected: ``Fraction("1e10000000")`` would compute 10**10000000."""
    return Fraction(*_ratio(value))


def _ratio(value: Any) -> tuple[int, int]:
    """``parse_rational``'s value as a reduced ``(p, q)``, ``q > 0``.  An int
    or an ASCII ``[-]digits[/digits]`` with a non-zero denominator is read
    by ``int``, within its digit limit; any other form by ``Fraction``,
    which decides what passes.  Past the digit limit ``int`` and
    ``Fraction`` raise ``ValueError`` as they do on a malformed text; a text
    that still reads with each group of digits cut to ``1`` is of a form
    ``Fraction`` reads (a sign, spaces, ``_`` between digits, a decimal), so
    it is refused as too long, not echoed.  Any other refused value is
    echoed, a text (or another value's repr) past ``_ECHOED`` characters cut
    short, with its length."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str) and "e" not in value.lower():
        num, slash, den = value.partition("/")
        digits = (value.isascii() and num.removeprefix("-").isdigit()
                  and (not slash or den.isdigit() and den.strip("0")))
        try:
            if digits:
                p, q = int(num), int(den or 1)
                g = gcd(p, q)
                return p // g, q // g
            return Fraction(value).as_integer_ratio()
        except ValueError:
            try:
                Fraction(_DIGIT_GROUP.sub("1", value))
            except ValueError:
                pass
            else:  # int's limit on the digits it reads
                raise StructuralError(
                    "a rational's integers may have at most "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
        except ZeroDivisionError:
            pass
    text = value if isinstance(value, str) else repr(value)
    if len(text) > _ECHOED:
        raise StructuralError(
            f"not a rational: {text[:_ECHOED]!r}... ({len(text)} characters)"
        )
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
    if isinstance(value, str):
        return str(value)
    if type(value) is int:
        with refusing(StructuralError, f"{what} labels may have at most "
                      f"{sys.get_int_max_str_digits()} digits"):
            return str(value)
    raise StructuralError(f"{what} must hold string or integer labels")


def labels(value: Any, what: str) -> tuple[str, ...]:
    return tuple(label(x, what) for x in array(value, what))


def rationals(value: Any, what: str) -> dict[str, Fraction]:
    """A label -> rational object."""
    return {str(k): parse_rational(v) for k, v in mapping(value, what).items()}


def rational_matrix(value: Any, what: str) -> tuple[int, list[list]]:
    """``(den, rows)``: the entries as ints over the lcm of their
    denominators.  Each distinct string or int is read once, to an int pair;
    any other entry (True equals 1, a list is unhashable) is refused unmemoized."""
    parsed: dict[Any, tuple[int, int]] = {}
    rows = []
    for row in array(value, what):
        rows.append(array(row, what))
        for v in rows[-1]:
            if type(v) is not str and type(v) is not int:
                _ratio(v)
            elif v not in parsed:
                parsed[v] = _ratio(v)
    den = lcm(*(q for _, q in parsed.values()))
    ints = {v: p * (den // q) for v, (p, q) in parsed.items()}
    return den, [list(map(ints.__getitem__, row)) for row in rows]


def indices(value: Any, what: str) -> tuple[int, ...]:
    """A list of JSON integers (point or element indices)."""
    out = tuple(array(value, what))
    if not {int}.issuperset(map(type, out)):
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
    """The (support, values) pair of a function record; ``is_katetov``
    checks that the values lie exactly on the support."""
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
    # one C-level comparison per row; a row that fails is read entry by entry
    for a, (row, want) in enumerate(zip(d, pm.layout(delta))):
        if row == want:
            continue
        for b, (v, w) in enumerate(zip(row, want)):
            if v != w:
                raise DomainError(
                    "pseudometric is not left-invariant: d(a, b) != "
                    f"d(e, a^-1 b) at ({group.elements[a]}, {group.elements[b]})"
                )
    return pm


def pseudometric_to_json(pm: InvariantPseudometric):
    out = group_to_json(pm.group)
    out["pseudometric"] = pm.layout(list(map(str, pm.delta)))
    return out


def action_from_json(data: Mapping[str, Any]) -> GroupAction:
    """Load an action, completing missing images by composing given ones.

    Images may be supplied for generators only; ``closure`` of the given
    images reaches the rest.  A given image is checked as it loads; the
    identity's and each composed one are built unchecked, for ``GroupAction``.
    """
    raw_group, raw_space, raw_images = require(
        data, "group", "space", "images", what="action record"
    )
    group = group_from_json(raw_group)
    space = space_from_json(raw_space)
    images = {group.identity: _unchecked(space, tuple(range(space.n)))}
    for name, perm in mapping(raw_images, "images").items():
        images[group.index(name)] = Isometry(space, indices(perm, "images"))
    given = list(images)
    if len(given) < group.order:  # else there is nothing to complete
        for c, pair in closure(given, given, group.mul).items():
            if pair:
                a, b = pair
                images[c] = _unchecked(space, compose(images[a].perm, images[b].perm))
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
    """The molecule of a record with ``space``, ``coeffs`` (a label ->
    rational object) and a basepoint, its own or its space's.  Each
    coefficient is read by ``_ratio`` to an int pair and stored by
    ``Molecule._read``, so no ``Fraction`` is made."""
    raw_space, raw_coeffs = require(
        data, "space", "coeffs", what="molecule record"
    )
    space = space_from_json(raw_space)
    ratios = [(str(x), *_ratio(v)) for x, v in mapping(raw_coeffs, "coeffs").items()]
    bp = data.get("basepoint", raw_space.get("basepoint"))
    if bp is None:
        raise StructuralError("molecule requires a basepoint")
    pointed = PointedSpace(space, space.index(label(bp, "basepoint")))
    spots = [(space.index(x), p, q) for x, p, q in ratios]
    return object.__new__(Molecule)._read(pointed, spots)


def molecule_to_json(m: Molecule):
    return {
        "space": space_to_json(m.pointed.space),
        "basepoint": m.pointed.basepoint_label,
        "coeffs": {x: str(v) for x, v in m.coeffs},
    }
