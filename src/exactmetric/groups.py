"""Finite groups given by multiplication tables, a small catalog, and the
permutation composition and queue closure that actions share."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import index, itemgetter
from typing import Iterable, Sequence

from .errors import DomainError, StructuralError, refusing


@dataclass(frozen=True)
class FiniteGroup:
    """A group on abstract element labels with an explicit table.

    ``table[i][j]`` is the index of the product (element i) * (element j).
    The group laws are verified at construction, associativity by Light's
    test on a generating set.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        with refusing(StructuralError, "elements and table rows must be sequences"):
            elements = tuple(self.elements)  # lists would leave it unhashable
            t = tuple(map(tuple, self.table))
        self.__dict__.update(elements=elements, table=t)
        n = len(elements)
        with refusing(StructuralError, "element labels must be hashable"):
            index = {label: i for i, label in enumerate(elements)}
        if len(index) != n:
            raise StructuralError("duplicate element labels")
        if len(t) != n or any(len(row) != n for row in t):
            raise StructuralError("multiplication table shape mismatch")
        for row in t:
            for v in row:
                if type(v) is not int:  # 1.0 equals 1 but cannot index a row
                    raise StructuralError("table entries must be integers")
                if not 0 <= v < n:
                    raise StructuralError("table entry out of range")
        e = self._find_identity()
        # Light's test: if (x s) y == x (s y) for all x, y and each s in a set
        # S whose right products reach every element from the identity, the
        # table is associative, since the s that pass are closed under the
        # product.  S takes, in order, each element not yet reached.  In a
        # group each new s at least doubles the subgroup reached, so a table
        # where one does not is no group, and S is then every element.
        gens = []
        reached = {e: None}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                grown = closure([e], gens, self.mul)
                if len(grown) < 2 * len(reached):
                    gens = range(n)
                    break
                reached = grown
        # for all y at once: row xs against row x gathered through row s
        for s in gens:
            if list(map(itemgetter(*t[s]), t)) != [t[row[s]] for row in t]:
                raise DomainError("multiplication table is not associative")
        for g in range(n):
            if e not in t[g]:
                raise DomainError(f"element {self.elements[g]!r} has no inverse")
        inverses = tuple(row.index(e) for row in t)
        self.__dict__.update(_index=index, _identity=e, _inverses=inverses)

    def _find_identity(self) -> int:
        t = self.table
        ident = tuple(range(len(t)))
        for e, row in enumerate(t):
            if row == ident and tuple(map(itemgetter(e), t)) == ident:
                return e
        raise DomainError("multiplication table has no identity")

    @property
    def identity(self) -> int:
        return self._identity

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self._inverses[g]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise DomainError(f"unknown group element {label!r}") from None


def _size(n) -> int:
    with refusing(DomainError, "a group size must be an integer"):
        return index(n)


def cyclic_group(n: int) -> FiniteGroup:
    n = _size(n)
    labels = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(labels, table)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon: rotations r0..r{n-1}, reflections s0..s{n-1}."""
    n = _size(n)
    # element (k, f): rotation by k composed with f reflections; index = k + n*f
    def mul(a, b):
        ka, fa = a % n, a // n
        kb, fb = b % n, b // n
        if fa == 0:
            return (ka + kb) % n + n * fb
        return (ka - kb) % n + n * (1 - fb)

    labels = tuple(f"r{k}" for k in range(n)) + tuple(f"s{k}" for k in range(n))
    table = tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    return FiniteGroup(labels, table)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The permutation p after q: i -> p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def closure(seeds: Iterable, gens: Sequence, mul) -> dict:
    """The closure of ``seeds`` under right multiplication ``mul`` by
    ``gens``, by one queue pass: each element in the order reached, mapped
    to the pair ``(a, b)`` whose product first reached it (``None`` for a seed)."""
    reached = dict.fromkeys(seeds)
    queue = list(reached)  # each new element joins its end
    for a in queue:
        for b in gens:
            if (c := mul(a, b)) not in reached:
                reached[c] = a, b
                queue.append(c)
    return reached


def permutation_table(
    perms: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of permutations closed under composition:
    entry (i, j) indexes ``perms[i]`` after ``perms[j]``."""
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(permutations(range(_size(n))))
    labels = tuple("".join(map(str, p)) for p in perms)
    return FiniteGroup(labels, permutation_table(perms))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    labels = tuple(
        f"{a}|{b}" for a in g.elements for b in h.elements
    )
    m = h.order
    table = tuple(
        tuple(
            g.table[i1][i2] * m + h.table[j1][j2]
            for i2 in range(g.order)
            for j2 in range(h.order)
        )
        for i1 in range(g.order)
        for j1 in range(h.order)
    )
    return FiniteGroup(labels, table)
