"""Isometries of finite metric spaces and finite group actions by isometries."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, refusing
from .groups import FiniteGroup, closure, compose, permutation_table
from .metric import FiniteMetricSpace


@dataclass(frozen=True)
class Isometry:
    """A distance-preserving permutation of the points of a space.

    ``perm[i]`` is the index of the image of point i.  Construction verifies
    bijectivity and exact distance preservation.
    """

    space: FiniteMetricSpace
    perm: tuple[int, ...]

    def __post_init__(self):
        n = self.space.n
        # 1.0 equals the index 1 but cannot index a row; a sum of numbers is
        # an int only when each of them is, and costs less than a type scan
        with refusing(DomainError, "not a permutation of the point set") as refuse:
            p = tuple(self.perm)  # a list would leave the record unhashable
            refuse.unless(sorted(p) == list(range(n)) and type(sum(p)) is int)
        object.__setattr__(self, "perm", p)
        # Fraction rows on purpose: compose runs this, and a faster check
        # multiplies the passes a benchmark run keeps in memory (ROADMAP 1-2)
        d = self.space.dist
        for i in range(n):
            for j in range(i + 1, n):
                if d[p[i]][p[j]] != d[i][j]:
                    raise DomainError(
                        "permutation does not preserve distances at "
                        f"({self.space.points[i]}, {self.space.points[j]})"
                    )

    def apply(self, i: int) -> int:
        return self.perm[i]

    def apply_label(self, label: str) -> str:
        return self.space.points[self.perm[self.space.index(label)]]

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.space is not other.space and self.space != other.space:
            raise DomainError("cannot compose isometries of different spaces")
        return Isometry(self.space, compose(self.perm, other.perm))

    def inverse(self) -> "Isometry":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return Isometry(self.space, tuple(inv))

    @staticmethod
    def identity(space: FiniteMetricSpace) -> "Isometry":
        return Isometry(space, tuple(range(space.n)))


def _unchecked(space: FiniteMetricSpace, perm: tuple[int, ...]) -> Isometry:
    """An ``Isometry`` built without the constructor's O(n^2) check, for a
    permutation known to preserve distances, or an image ``GroupAction`` checks:
    a closure's, a quotient's, or one that ``action_from_json`` builds."""
    iso = object.__new__(Isometry)
    iso.__dict__.update(space=space, perm=perm)
    return iso


def enumerate_isometries(space: FiniteMetricSpace) -> list[Isometry]:
    """All self-isometries, in lexicographic order of their permutations.

    Backtracking over point images, pruned by distance-multiset profiles:
    a point can only map to a point seeing the same multiset of distances.
    Rejects pseudometrics (zero distances break permutation semantics).
    """
    if space.pseudo:
        raise DomainError("isometry enumeration requires a genuine metric")
    n = space.n
    d = space.scaled[1]
    profiles = [tuple(sorted(d[i])) for i in range(n)]
    out: list[Isometry] = []
    perm: list[int] = []
    used = [False] * n

    def backtrack(k: int):
        if k == n:
            # every pair the constructor checks was compared on the way down
            out.append(_unchecked(space, tuple(perm)))
            return
        for cand in range(n):
            if used[cand] or profiles[cand] != profiles[k]:
                continue
            if any(d[perm[j]][cand] != d[j][k] for j in range(k)):
                continue
            used[cand] = True
            perm.append(cand)
            backtrack(k + 1)
            perm.pop()
            used[cand] = False

    backtrack(0)
    return out


@dataclass(frozen=True)
class GroupAction:
    """A homomorphism from a finite group into Iso(space), stored as explicit
    images for every element.  Construction verifies every image as an
    isometry, so an image may be built by ``_unchecked``."""

    group: FiniteGroup
    space: FiniteMetricSpace
    images: tuple[Isometry, ...]

    def __post_init__(self):
        g, space = self.group, self.space
        with refusing(DomainError, "one isometry per group element required") as refuse:
            images = tuple(self.images)  # a list would leave the record unhashable
            refuse.unless(len(images) == g.order)
        object.__setattr__(self, "images", images)
        if not all(
            isinstance(iso, Isometry) and (iso.space is space or iso.space == space)
            for iso in images
        ):
            raise DomainError("images must act on the action's space")
        if images[g.identity].perm != tuple(range(space.n)):
            raise DomainError("identity element must act as the identity map")
        # compose builds a checked Isometry, so (a, e) verifies image a
        for a, row in enumerate(g.table):
            ia = images[a]
            for b, ab in enumerate(row):
                if ia.compose(images[b]).perm != images[ab].perm:
                    raise DomainError(
                        "images do not form a homomorphism at "
                        f"({g.elements[a]}, {g.elements[b]})"
                    )


def translation_gap(
    action: GroupAction, idx: Sequence[int], g: int
) -> Fraction:
    """d(F, gF) for the non-empty set F of points given by index."""
    den, d = action.space.scaled
    with refusing(DomainError, "element or point index out of range") as refuse:
        idx = list(idx)  # read once: the range check below would spend an iterator
        if not idx:
            raise DomainError("a translation gap requires a non-empty set")
        refuse.unless(min(g, *idx) >= 0)  # -1 would read the last image or point
        moved = list(map(action.images[g].perm.__getitem__, idx))
    return Fraction(min(d[i][j] for i in idx for j in moved), den)


def moving_gap(
    action: GroupAction, f: Sequence[str]
) -> tuple[Fraction, str]:
    """max over group elements g of d(F, gF), with an attaining element.

    Ties resolve to the earliest element in the group's order.
    """
    with refusing(DomainError, "moving_gap requires a non-empty set") as refuse:
        idx = [action.space.index(x) for x in f]
        refuse.unless(idx)
    gaps = [translation_gap(action, idx, g) for g in range(action.group.order)]
    best = max(range(len(gaps)), key=gaps.__getitem__)
    return gaps[best], action.group.elements[best]


def action_from_closure(
    space: FiniteMetricSpace, generators: Sequence[Isometry]
) -> GroupAction:
    """The action of the group generated by the given isometries.

    Elements are the closure of the generators under composition, ordered
    lexicographically by permutation (so the labeling is deterministic), with
    an abstract multiplication table read off from composition.  ``GroupAction``
    verifies each image once.
    """
    with refusing(DomainError, "generators must be isometries"):
        generators = tuple(generators)  # read twice below
        for gen in generators:
            if gen.space is not space and gen.space != space:
                raise DomainError("generators must act on the given space")
        gens = [gen.perm for gen in generators]
    perms = sorted(closure([tuple(range(space.n))], gens, compose))
    group = FiniteGroup(
        tuple(f"g{i}" for i in range(len(perms))), permutation_table(perms)
    )
    images = tuple(_unchecked(space, p) for p in perms)
    return GroupAction(group, space, images)


def orbit(action: GroupAction, x: str) -> list[str]:
    """The orbit of a point, in ambient point order."""
    i = action.space.index(x)
    hit = {iso.apply(i) for iso in action.images}
    return [action.space.points[j] for j in sorted(hit)]


def orbit_diameter(action: GroupAction, x: str) -> Fraction:
    i = action.space.index(x)
    orb = {iso.apply(i) for iso in action.images}
    den, d = action.space.scaled
    return Fraction(max(d[a][b] for a in orb for b in orb), den)
