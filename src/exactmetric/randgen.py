"""Seeded random instance generators used by the property suites and tests.

Everything is driven by an explicit ``random.Random`` so counterexamples
reproduce from a 64-bit seed.  All generated data is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add
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
from .metric import FiniteMetricSpace, PointedSpace, scale_rows
from .quotients import InvariantPseudometric

ZERO = Fraction(0)


def rand_fraction(
    rng: Random, lo: int, hi: int, max_den: int = 4
) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


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
    positive, or zero when ``pseudo`` is set.  The closure (Floyd-Warshall)
    runs on the weights scaled to ints, one row at a time.
    """
    if palette is not None and any(
        v < 0 or (v == 0 and not pseudo) for v in palette
    ):
        raise DomainError(
            "palette entries must be positive (zero only for a pseudometric)"
        )
    labels = tuple(f"x{i}" for i in range(n))
    w = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if palette is not None:
                v = rng.choice(palette)
            else:
                v = rand_fraction(rng, 1, 10)
            if pseudo and rng.random() < 0.2:
                v = ZERO
            w[i][j] = w[j][i] = v
    den, rows = scale_rows(w)
    s = list(rows)
    for k in range(n):
        sk = s[k]
        for i in range(n):
            s[i] = list(map(min, s[i], map(add, repeat(s[i][k]), sk)))
    return FiniteMetricSpace.from_scaled(labels, den, s, pseudo)


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
            via = map(add, repeat(delta[a]), map(delta.__getitem__, shift))
            delta = tuple(map(min, delta, via))
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
