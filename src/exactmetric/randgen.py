"""Seeded random instance generators used by the property suites and tests.

Everything is driven by an explicit ``random.Random`` so counterexamples
reproduce from a 64-bit seed.  All generated data is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import lshift
from random import Random
from typing import Optional

from .actions import GroupAction, Isometry, action_from_closure, enumerate_isometries
from .errors import DomainError
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from .katetov import KatetovFunction, is_katetov
from .metric import FiniteMetricSpace, PointedSpace, scale, scale_rows
from .quotients import InvariantPseudometric

ZERO = Fraction(0)


def _draw(rng: Random, lo: int, hi: int, max_den: int = 4) -> tuple[int, int]:
    """``(num, den)`` of a random rational in [lo, hi]: a denominator up to
    ``max_den``, then a numerator over it."""
    den = rng.randint(1, max_den)
    return rng.randint(lo * den, hi * den), den


def rand_fraction(
    rng: Random, lo: int, hi: int, max_den: int = 4
) -> Fraction:
    return Fraction(*_draw(rng, lo, hi, max_den))


def rand_metric_space(
    rng: Random,
    n: int,
    pseudo: bool = False,
    palette: Optional[list[Fraction]] = None,
) -> FiniteMetricSpace:
    """A random space: symmetric weights pushed through shortest-path closure
    so the triangle inequality holds by construction.

    A small distance palette yields symmetric-rich spaces; the default draws
    positive rationals with denominator up to 4.  Palette entries must be
    exact rationals, positive, or zero when ``pseudo`` is set; a bad palette
    is a ``DomainError`` before any draw.  Weights are drawn straight to ints
    over one denominator: 12 = lcm(1..4) by default, or the palette's from
    one ``scale``.  The closure (Floyd-Warshall) runs on those ints, each row
    packed into one int (see ``_closure``).
    """
    if palette is None:
        den = lcm(1, 2, 3, 4)
    else:
        if not palette:
            raise DomainError("palette must not be empty")
        den, palette = scale(palette, "palette entries")
        if any(v < 0 or (v == 0 and not pseudo) for v in palette):
            raise DomainError(
                "palette entries must be positive (zero only for a pseudometric)"
            )
    labels = tuple(f"x{i}" for i in range(n))
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if palette is not None:
                v = rng.choice(palette)
            else:
                num, d = _draw(rng, 1, 10)
                v = num * (den // d)
            if pseudo and rng.random() < 0.2:
                v = 0
            w[i][j] = w[j][i] = v
    return FiniteMetricSpace.from_scaled(labels, den, _closure(w), pseudo)


def _closure(rows: list[list[int]]) -> list[list[int]]:
    """Floyd-Warshall over a square matrix of non-negative ints, with each
    row packed into one int: field j of row i holds d(i, j) in ``w`` bits, of
    which the top one is a guard, kept set.  Every value is at most the
    largest entry m, and ``w`` leaves room for 2m below the guard, so row i
    through k, ``via = P[k] + d(i, k)·ONES``, fits in each field.  One
    subtraction ``P[i] - via`` then leaves the guard of field j set exactly
    where via_j <= d(i, j), and a masked select takes via_j there."""
    n = len(rows)
    w = (2 * max(map(max, rows), default=0)).bit_length() + 1
    g = w - 1
    shifts = range(0, n * w, w)
    ones = sum(map(lshift, repeat(1), shifts))
    guards = ones << g
    field = (1 << g) - 1
    packed = [sum(map(lshift, row, shifts)) | guards for row in rows]
    for k, s in enumerate(shifts):
        pk = packed[k] ^ guards
        for i, p in enumerate(packed):
            via = pk + (p >> s & field) * ones
            t = (p - via) & guards
            packed[i] = p ^ ((p ^ via) & (t - (t >> g)))
    return [[p >> s & field for s in shifts] for p in packed]


def rand_pointed(rng: Random, space: FiniteMetricSpace) -> PointedSpace:
    return PointedSpace(space, rng.randrange(space.n))


def rand_coeffs(
    rng: Random, pointed: PointedSpace, max_support: int = 8
) -> dict[str, Fraction]:
    labels = [
        x for x in pointed.space.points if x != pointed.basepoint_label
    ]
    rng.shuffle(labels)
    size = rng.randint(0, min(max_support, len(labels)))
    return {x: rand_fraction(rng, -5, 5) for x in labels[:size]}


def rand_katetov(
    rng: Random,
    space: FiniteMetricSpace,
    support: tuple[str, ...],
) -> KatetovFunction:
    """A random Katetov function over the induced subspace on ``support``.

    Proposals are virtual-point profiles c + d(. , z), optionally the minimum
    of two such (rejected when the lower Katetov bound fails), which covers a
    reasonable variety of admissible functions.
    """
    for _ in range(64):
        values = _propose(rng, space, support)
        if rng.random() < 0.5:
            other = _propose(rng, space, support)
            values = {x: min(values[x], other[x]) for x in support}
        if is_katetov(space, values, support).ok:
            return KatetovFunction(space, support, values)
    raise DomainError("failed to sample a Katetov function")


def _propose(rng, space, support):
    z = rng.choice(support)
    c = rand_fraction(rng, 0, 4)
    return {x: c + space.d_label(z, x) for x in support}


def rand_group(rng: Random, max_order: int = 24) -> FiniteGroup:
    builders = [
        lambda: cyclic_group(rng.randint(2, max_order)),
        lambda: dihedral_group(rng.randint(2, max_order // 2)),
        lambda: symmetric_group(3),
        lambda: direct_product(
            cyclic_group(rng.randint(2, 4)), cyclic_group(rng.randint(2, 5))
        ),
    ]
    if max_order >= 24:
        builders.append(lambda: symmetric_group(4))
    return rng.choice(builders)()


def rand_invariant_pseudometric(
    rng: Random, group: FiniteGroup
) -> InvariantPseudometric:
    """Random left-invariant pseudometric: symmetric word weights pushed
    through shortest paths on the (complete) Cayley graph.  Every letter
    weighs more than 0 except one random non-identity letter and its inverse,
    so the kernel {delta = 0} is the cyclic subgroup that letter generates."""
    n = group.order
    e = group.identity
    weight = [ZERO if i == e else rand_fraction(rng, 1, 6, max_den=2) for i in range(n)]
    for i in range(n):
        j = group.inv(i)
        low = min(weight[i], weight[j])
        weight[i] = weight[j] = low
    if n > 1:
        z = rng.choice([i for i in range(n) if i != e])
        weight[z] = weight[group.inv(z)] = ZERO
    # delta(x) = cheapest factorization of x into weighted letters: lower
    # delta(c) to delta(a) + delta(a^-1 c), for every letter a, as ints,
    # until nothing changes
    den, (delta,) = scale_rows([weight])
    shifts = [group.table[group.inv(a)] for a in range(n)]
    settled = None
    while delta != settled:
        settled = delta
        for a, shift in enumerate(shifts):
            da = delta[a]
            delta = tuple([
                x if x <= (v := da + delta[s]) else v
                for x, s in zip(delta, shift)
            ])
    return InvariantPseudometric(group, tuple(map(Fraction, delta, repeat(den))))


def cycle_space(n: int) -> FiniteMetricSpace:
    labels = tuple(str(i) for i in range(n))
    d = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_scaled(labels, 1, d)


def rotation_action(n: int) -> GroupAction:
    """The cyclic rotation action on the n-cycle with its graph metric."""
    space = cycle_space(n)
    gen = Isometry(space, tuple((i + 1) % n for i in range(n)))
    return action_from_closure(space, [gen])


def rand_action(rng: Random, max_points: int = 8) -> GroupAction:
    """A random finite action by isometries: rotations of a cycle, the full
    symmetry group of a cycle, or the full isometry group of a palette space
    (which may well be trivial)."""
    kind = rng.randrange(3)
    if kind == 0:
        return rotation_action(rng.randint(3, max_points))
    if kind == 1:
        space = cycle_space(rng.randint(3, max_points))
        return action_from_closure(space, enumerate_isometries(space))
    palette = [Fraction(1), Fraction(2), Fraction(3)]
    space = rand_metric_space(rng, rng.randint(3, 6), palette=palette)
    return action_from_closure(space, enumerate_isometries(space))
