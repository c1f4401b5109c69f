"""Isometries of finite metric spaces and finite group actions by isometries."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .groups import FiniteGroup, permutation_table
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
        if sorted(self.perm) != list(range(n)):
            raise DomainError("not a permutation of the point set")
        # Fraction rows on purpose: compose runs this, and a faster check
        # multiplies the passes a benchmark run keeps in memory (ROADMAP 1-2)
        d = self.space.dist
        p = self.perm
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
        return Isometry(self.space, tuple(self.perm[j] for j in other.perm))

    def inverse(self) -> "Isometry":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return Isometry(self.space, tuple(inv))

    @staticmethod
    def identity(space: FiniteMetricSpace) -> "Isometry":
        return Isometry(space, tuple(range(space.n)))


def _unchecked(space: FiniteMetricSpace, perm: tuple[int, ...]) -> Isometry:
    """An ``Isometry`` of a permutation already known to preserve distances,
    built without the constructor's O(n^2) check."""
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
    images for every element."""

    group: FiniteGroup
    space: FiniteMetricSpace
    images: tuple[Isometry, ...]

    def __post_init__(self):
        g = self.group
        if len(self.images) != g.order:
            raise DomainError("one isometry per group element required")
        space = self.space
        if any(iso.space is not space and iso.space != space for iso in self.images):
            raise DomainError("images must act on the action's space")
        ident = tuple(range(self.space.n))
        if self.images[g.identity].perm != ident:
            raise DomainError("identity element must act as the identity map")
        for a in range(g.order):
            for b in range(g.order):
                lhs = self.images[g.mul(a, b)].perm
                rhs = self.images[a].compose(self.images[b]).perm
                if lhs != rhs:
                    raise DomainError(
                        "images do not form a homomorphism at "
                        f"({g.elements[a]}, {g.elements[b]})"
                    )


def translation_gap(
    action: GroupAction, idx: Sequence[int], g: int
) -> Fraction:
    """d(F, gF) for the non-empty set F of points given by index."""
    if not idx:
        raise DomainError("a translation gap requires a non-empty set")
    d = action.space.dist
    perm = action.images[g].perm
    return min(d[i][perm[j]] for i in idx for j in idx)


def moving_gap(
    action: GroupAction, f: Sequence[str]
) -> tuple[Fraction, str]:
    """max over group elements g of d(F, gF), with an attaining element.

    Ties resolve to the earliest element in the group's order.
    """
    if not f:
        raise DomainError("moving_gap requires a non-empty set")
    idx = [action.space.index(x) for x in f]
    gaps = [translation_gap(action, idx, g) for g in range(action.group.order)]
    best = max(range(len(gaps)), key=gaps.__getitem__)
    return gaps[best], action.group.elements[best]


def action_from_closure(
    space: FiniteMetricSpace, generators: Sequence[Isometry]
) -> GroupAction:
    """The action of the group generated by the given isometries.

    Elements are the closure of the generators under composition, ordered
    lexicographically by permutation (so the labeling is deterministic), with
    an abstract multiplication table read off from composition.
    """
    for gen in generators:
        if gen.space is not space and gen.space != space:
            raise DomainError("cannot compose isometries of different spaces")
    gens = [gen.perm for gen in generators]
    frontier = [tuple(range(space.n))]
    seen = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = tuple(map(a.__getitem__, b))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    perms = sorted(seen)
    group = FiniteGroup(
        tuple(f"g{i}" for i in range(len(perms))), permutation_table(perms)
    )
    images = tuple(Isometry(space, p) for p in perms)
    return GroupAction(group, space, images)


def orbit(action: GroupAction, x: str) -> list[str]:
    """The orbit of a point, in ambient point order."""
    i = action.space.index(x)
    hit = {iso.apply(i) for iso in action.images}
    return [action.space.points[j] for j in sorted(hit)]


def orbit_diameter(action: GroupAction, x: str) -> Fraction:
    orb = [action.space.index(p) for p in orbit(action, x)]
    return max(action.space.dist[i][j] for i in orb for j in orb)
