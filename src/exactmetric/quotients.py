"""Left-invariant pseudometrics on finite groups: kernels, quotients,
pullbacks, and covering certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index, or_
from typing import Optional, Sequence

from .actions import GroupAction, _unchecked
from .errors import BudgetExceededError, DomainError, InternalCheckError
from .errors import StructuralError, refusing
from .groups import FiniteGroup
from .metric import FiniteMetricSpace, scale, validate


@dataclass(frozen=True)
class InvariantPseudometric:
    """A left-invariant pseudometric on a finite group, held as its length
    function ``delta[g] = d(e, g)`` (indexed like ``group.elements``), so
    d(a, b) = delta[a^-1 b] and d(ka, kb) = d(a, b) hold by construction.
    The length axioms delta(e) = 0, delta(g^-1) = delta(g) and
    delta(gh) <= delta(g) + delta(h), which make d a pseudometric, are
    verified at construction on ``scaled``, which holds ``(den, ints)`` with
    ``ints[g] == den * delta[g]`` as a space does."""

    group: FiniteGroup
    delta: tuple[Fraction, ...]
    scaled: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.group
        with refusing(StructuralError,
                      "length function size does not match group order") as refuse:
            delta = tuple(self.delta)  # a list would leave the record unhashable
            refuse.unless(len(delta) == g.order)
        den, ints = scale(delta, "pseudometric lengths")
        self.__dict__.update(delta=delta, scaled=(den, tuple(ints)))
        if ints[g.identity] != 0:
            raise DomainError("pseudometric length is nonzero at the identity")
        for a in range(g.order):
            if ints[g.inv(a)] != ints[a]:
                raise DomainError(f"pseudometric is not symmetric at {g.elements[a]}")
        for a, row in enumerate(g.table):
            da = ints[a]
            for b, ab in enumerate(row):
                if ints[ab] > da + ints[b]:
                    raise DomainError(
                        "pseudometric triangle inequality fails at "
                        f"({g.elements[a]}, {g.elements[b]})"
                    )

    def layout(self, values: Sequence) -> list[list]:
        """The matrix d(a, b) = values[a^-1 b] of a length function given
        per element, such as ``delta`` or ``scaled[1]``: row a is ``values``
        read along row a^-1 of the group table."""
        g = self.group
        return [[values[x] for x in g.table[g.inv(a)]] for a in range(g.order)]


def kernel_subgroup(pm: InvariantPseudometric) -> tuple[int, ...]:
    """Indices of the null subgroup {g : d(g, e) = 0}, read off the lengths:
    the axioms checked at construction make it a subgroup, since
    delta(g^-1) = delta(g) and delta(gh) <= delta(g) + delta(h)."""
    return tuple(i for i, v in enumerate(pm.scaled[1]) if v == 0)


def _coset_space(
    pm: InvariantPseudometric,
) -> tuple[FiniteMetricSpace, list[int], list[int]]:
    """Cosets of the null subgroup with the induced metric, the coset of
    each element, and each coset's least element.

    Well-definedness of the metric is asserted across all representative
    pairs, and the quotient is validated as a metric space.
    """
    g = pm.group
    h = set(kernel_subgroup(pm))
    cosets: list[list[int]] = []
    coset_of = [-1] * g.order
    for a in range(g.order):
        if coset_of[a] >= 0:
            continue
        members = sorted(map(g.table[a].__getitem__, h))
        for mem in members:
            coset_of[mem] = len(cosets)
        cosets.append(members)
    reps = [c[0] for c in cosets]
    labels = tuple(g.elements[r] + "H" for r in reps)
    den, delta = pm.scaled
    d = pm.layout(delta)
    dist = [[d[r][s] for s in reps] for r in reps]
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            if any(d[a][b] != dist[i][j] for a in ci for b in cj):
                raise InternalCheckError(
                    "quotient metric not constant on coset pair "
                    f"({labels[i]}, {labels[j]})"
                )
    space = FiniteMetricSpace.from_scaled(labels, den, dist)
    report = validate(space)
    if not report.ok:
        raise InternalCheckError(
            f"quotient is not a metric space: {report.axiom} at {report.witness}"
        )
    return space, coset_of, reps


def quotient_space(
    pm: InvariantPseudometric,
) -> tuple[FiniteMetricSpace, GroupAction]:
    """Cosets of the null subgroup with the induced metric and the left
    translation action.

    Well-definedness of the metric is asserted across all representative
    pairs.  ``GroupAction`` verifies each image as an isometry, and the
    action is verified to be transitive.
    """
    g = pm.group
    space, coset_of, reps = _coset_space(pm)
    images = tuple(
        _unchecked(space, tuple(coset_of[row[r]] for r in reps)) for row in g.table
    )
    action = GroupAction(g, space, images)
    if {iso.apply(0) for iso in images} != set(range(space.n)):
        raise InternalCheckError("left translation action is not transitive")
    return space, action


def pullback_pseudometric(
    action: GroupAction, xi: str
) -> InvariantPseudometric:
    """The pseudometric d(g, h) = d_X(g xi, h xi) induced by an orbit, with
    length delta(g) = d_X(xi, g xi)."""
    i = action.space.index(xi)
    den, rows = action.space.scaled
    lengths = (Fraction(rows[i][iso.apply(i)], den) for iso in action.images)
    return InvariantPseudometric(action.group, tuple(lengths))


def orbit_isomorphism(
    action: GroupAction, xi: str
) -> dict[str, str]:
    """Isometric identification of the quotient by the pullback pseudometric
    with the orbit of the chosen point; verified exactly."""
    pm = pullback_pseudometric(action, xi)
    qspace, _, reps = _coset_space(pm)
    i = action.space.index(xi)
    # the coset aH goes to a xi, read at its least element a
    orb = [action.images[r].apply(i) for r in reps]
    (qden, qd), (den, d) = qspace.scaled, action.space.scaled
    for p, a in enumerate(orb):
        for q, b in enumerate(orb):
            if qd[p][q] * den != d[a][b] * qden:
                raise InternalCheckError("quotient and orbit fail to match isometrically")
    points = action.space.points
    return {label: points[a] for label, a in zip(qspace.points, orb)}


FVF_BUDGET = 1_000_000


def min_fvf_cover(
    group: FiniteGroup, v: Sequence[int], budget: int = FVF_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Smallest F (by size, then lexicographic) with F V F = G.

    For each size in turn, a depth-first search over subsets in lexicographic
    order, on int bitmasks: ``pair[a][b]`` is the bitmask of a V b, and adding
    c to F adds c V c and a V c, c V a for each a already in F.  A size is
    skipped, and a branch cut, when the pairs still to come cannot reach |G|:
    each diagonal c V c brings |V| elements, and each unordered pair of
    distinct elements at most the largest a V c | c V a, which is 2|V| or
    less.  V = G is covered by one element alone, and any non-empty V admits
    some cover since the group is finite.  Reaching more than ``budget``
    subsets raises ``BudgetExceededError``.
    """
    if not v:
        raise DomainError("V must be non-empty")
    n = group.order
    with refusing(DomainError, "V contains an invalid element index") as refuse:
        vset = sorted(set(map(index, v)))
        refuse.unless(0 <= vset[0] and vset[-1] < n)
    with refusing(DomainError, "the FVF budget must be positive") as refuse:
        refuse.unless(budget >= 1)
    m = len(vset)
    full = (1 << n) - 1
    bits = [[1 << x for x in row] for row in group.table]
    # x -> a x b is a bijection, so the m bits of a V b are distinct and
    # their sum is their union
    pair = []
    for ta in group.table:
        av = [bits[ta[x]] for x in vset]
        pair.append([sum(row[b] for row in av) for b in range(n)])
    # both[c][a]: the new pairs (a, c) and (c, a) when c joins a set holding a;
    # at most 2|V| elements, and |V| when a V c = c V a (as in abelian groups)
    both = [[pair[a][c] | pair[c][a] for a in range(n)] for c in range(n)]
    most = max((both[c][a].bit_count() for c in range(n) for a in range(c)), default=0)
    nodes = 0

    def spend(count, size):
        nonlocal nodes
        nodes += count
        if nodes > budget:
            raise BudgetExceededError(
                f"FVF search on |G| = {n} with |V| = {m} exceeded its budget "
                f"of {budget} subsets at size {size} ({nodes} visited)"
            )

    def search(size, start, depth, cover, gain, chosen):
        # gain[c] is what adding c brings: c V c and the pairs with chosen
        stop = n - size + depth + 1
        if depth + 1 == size:
            for c in range(start, stop):
                if cover | gain[c] == full:
                    spend(c - start + 1, size)
                    return chosen + (c,)
            spend(stop - start, size)
            return None
        # r elements still to come bring r diagonals c V c, and r (depth + 1)
        # pairs with the chosen plus r (r - 1) / 2 among themselves
        r = size - depth - 1
        slack = r * m + most * (r * (depth + 1) + r * (r - 1) // 2)
        for c in range(start, stop):
            spend(1, size)
            new = cover | gain[c]
            if new.bit_count() + slack < n:
                continue
            found = search(
                size, c + 1, depth + 1, new,
                list(map(or_, gain, both[c])), chosen + (c,),
            )
            if found:
                return found
        return None

    diagonal = [pair[c][c] for c in range(n)]
    for size in range(1, n + 1):
        if size * m + most * (size * (size - 1) // 2) < n:
            continue
        found = search(size, 0, 0, 0, diagonal, ())
        if found:
            return size, found
    raise InternalCheckError("no cover found")  # unreachable for non-empty V


@dataclass(frozen=True)
class CertificateEntry:
    phi: tuple[str, ...]
    witness: Optional[str]
    gap: Optional[Fraction]

    def as_json(self):
        return {
            "phi": list(self.phi),
            "witness": self.witness,
            "gap": None if self.gap is None else str(self.gap),
        }


def moving_certificate(
    pm: InvariantPseudometric,
    radius: Fraction,
    phis: Sequence[Sequence[str]],
) -> list[CertificateEntry]:
    """For each queried finite set of elements, exhibit a translation that
    moves its coset image by at least the ball radius, when one exists.

    V is the open ball of the given radius around the identity.  Each phi
    must be non-empty and is symmetrized internally (the displacement
    argument needs inverses).  When phi V phi already covers the group no
    witness exists, which is the expected outcome for large phi on a finite
    group.  The gap is read as delta(a^-1 w b) through the group table.
    """
    den, delta = pm.scaled
    unit, (r,) = scale([radius], "ball radius", den)
    if r <= 0:
        raise DomainError("ball radius must be positive")
    g = pm.group
    t = g.table
    ball = [i for i, v in enumerate(delta) if v * unit < r * den]
    entries = []
    with refusing(DomainError, "moving_certificate requires non-empty sets") as refuse:
        sets = [sorted({g.index(x) for x in phi}) for phi in phis]
        refuse.unless(all(sets))
    for idx in sets:
        sym = sorted(set(idx) | {g.inv(i) for i in idx})
        fv = {t[a][v] for a in sym for v in ball}  # phi V, then phi V phi
        covered = {t[x][b] for x in fv for b in sym}
        outside = [i for i in range(g.order) if i not in covered]
        phi_labels = tuple(g.elements[i] for i in idx)
        if not outside:
            entries.append(CertificateEntry(phi_labels, None, None))
            continue
        witness = outside[0]
        # d(aH, wbH) = d(a, wb) = delta(a^-1 w b): the gap between the coset
        # images of phi and w phi, read on the group through its table
        gap = min(delta[t[g.inv(a)][t[witness][b]]] for a in sym for b in sym)
        if gap * unit < r * den:
            raise InternalCheckError("exhibited element fails the quotient gap bound")
        entries.append(
            CertificateEntry(phi_labels, g.elements[witness], Fraction(gap, den))
        )
    return entries
