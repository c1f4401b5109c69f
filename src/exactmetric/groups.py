"""Finite groups given by multiplication tables, plus a small catalog."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Sequence

from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class FiniteGroup:
    """A group on abstract element labels with an explicit table.

    ``table[i][j]`` is the index of the product (element i) * (element j).
    The group laws are verified at construction.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        index = {label: i for i, label in enumerate(self.elements)}
        if len(index) != n:
            raise StructuralError("duplicate element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise StructuralError("multiplication table shape mismatch")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise StructuralError("table entry out of range")
        t = self.table
        e = self._find_identity()
        # (gh)k == g(hk) for all k at once: row gh against row g gathered
        # through row h.  An itemgetter of one index returns a bare entry,
        # so a one-element table (associative anyway) is skipped.
        rows = tuple(map(tuple, t))
        gathers = [itemgetter(*row) for row in rows] if n > 1 else []
        for tg in rows:
            for gh, gather in zip(tg, gathers):
                if rows[gh] != gather(tg):
                    raise DomainError("multiplication table is not associative")
        for g in range(n):
            if e not in t[g]:
                raise DomainError(f"element {self.elements[g]!r} has no inverse")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_identity", e)
        object.__setattr__(self, "_inverses", tuple(row.index(e) for row in t))

    def _find_identity(self) -> int:
        n = len(self.elements)
        for e in range(n):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(n)):
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


def cyclic_group(n: int) -> FiniteGroup:
    labels = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(labels, table)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon: rotations r0..r{n-1}, reflections s0..s{n-1}."""
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


def permutation_table(
    perms: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of permutations closed under composition:
    entry (i, j) indexes ``perms[i]`` after ``perms[j]``."""
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(map(p.__getitem__, q))] for q in perms)
        for p in perms
    )


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(permutations(range(n)))
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
