"""Left-invariant pseudometrics on finite groups: kernels, quotients,
pullbacks, and covering certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from typing import Optional, Sequence

from .actions import GroupAction, Isometry
from .errors import BudgetExceededError, DomainError, StructuralError
from .groups import FiniteGroup
from .metric import FiniteMetricSpace, scale, validate

ZERO = Fraction(0)


@dataclass(frozen=True)
class InvariantPseudometric:
    """A left-invariant pseudometric on a finite group, held as its length
    function ``delta[g] = d(e, g)`` (indexed like ``group.elements``), so
    d(a, b) = delta[a^-1 b] and d(ka, kb) = d(a, b) hold by construction.
    The length axioms delta(e) = 0, delta(g^-1) = delta(g) and
    delta(gh) <= delta(g) + delta(h), which make d a pseudometric, are
    verified at construction."""

    group: FiniteGroup
    delta: tuple[Fraction, ...]

    def __post_init__(self):
        g = self.group
        delta = self.delta
        if len(delta) != g.order:
            raise StructuralError("length function size does not match group order")
        if delta[g.identity] != ZERO:
            raise DomainError("pseudometric length is nonzero at the identity")
        for a in range(g.order):
            if delta[g.inv(a)] != delta[a]:
                raise DomainError(f"pseudometric is not symmetric at {g.elements[a]}")
        _, ints = scale(delta, "pseudometric lengths")
        for a, row in enumerate(g.table):
            da = ints[a]
            for b, ab in enumerate(row):
                if ints[ab] > da + ints[b]:
                    raise DomainError(
                        "pseudometric triangle inequality fails at "
                        f"({g.elements[a]}, {g.elements[b]})"
                    )

    def dist(self, a: int, b: int) -> Fraction:
        return self.delta[self.group.mul(self.group.inv(a), b)]


def kernel_subgroup(pm: InvariantPseudometric) -> tuple[int, ...]:
    """Indices of the null subgroup {g : d(g, e) = 0}; closure verified."""
    g = pm.group
    h = tuple(i for i in range(g.order) if pm.delta[i] == ZERO)
    members = set(h)
    for a in h:
        if g.inv(a) not in members:
            raise DomainError("kernel not closed under inverse")
        for b in h:
            if g.mul(a, b) not in members:
                raise DomainError("kernel not closed under product")
    return h


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
        members = sorted(g.mul(a, b) for b in h)
        for mem in members:
            coset_of[mem] = len(cosets)
        cosets.append(members)
    reps = [c[0] for c in cosets]
    labels = tuple(g.elements[r] + "H" for r in reps)
    den, delta = scale(pm.delta, "pseudometric lengths")
    # d(a, b) = delta[a^-1 b], read off row a^-1 of the table
    shifts = [g.table[g.inv(a)] for a in range(g.order)]
    dist = [[delta[shifts[r][s]] for s in reps] for r in reps]
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            if any(delta[shifts[a][b]] != dist[i][j] for a in ci for b in cj):
                raise DomainError(
                    "quotient metric not constant on coset pair "
                    f"({labels[i]}, {labels[j]})"
                )
    space = FiniteMetricSpace.from_scaled(labels, den, dist)
    report = validate(space)
    if not report.ok:
        raise DomainError(
            f"quotient is not a metric space: {report.axiom} at {report.witness}"
        )
    return space, coset_of, reps


def quotient_space(
    pm: InvariantPseudometric,
) -> tuple[FiniteMetricSpace, GroupAction]:
    """Cosets of the null subgroup with the induced metric and the left
    translation action.

    Well-definedness of the metric is asserted across all representative
    pairs, and the action is verified to be isometric and transitive.
    """
    g = pm.group
    space, coset_of, reps = _coset_space(pm)
    images = []
    for a in range(g.order):
        perm = tuple(coset_of[g.mul(a, r)] for r in reps)
        images.append(Isometry(space, perm))
    action = GroupAction(g, space, tuple(images))
    reached = {iso.apply(0) for iso in images}
    if reached != set(range(space.n)):
        raise DomainError("left translation action is not transitive")
    return space, action


def pullback_pseudometric(
    action: GroupAction, xi: str
) -> InvariantPseudometric:
    """The pseudometric d(g, h) = d_X(g xi, h xi) induced by an orbit, with
    length delta(g) = d_X(xi, g xi)."""
    i = action.space.index(xi)
    row = action.space.dist[i]
    return InvariantPseudometric(
        action.group, tuple(row[iso.apply(i)] for iso in action.images)
    )


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
    qd, d = qspace.dist, action.space.dist
    for p, a in enumerate(orb):
        for q, b in enumerate(orb):
            if qd[p][q] != d[a][b]:
                raise DomainError("quotient and orbit fail to match isometrically")
    points = action.space.points
    return {label: points[a] for label, a in zip(qspace.points, orb)}


def _fvf(group: FiniteGroup, f: Sequence[int], v: Sequence[int]) -> set[int]:
    """The product set F V F, as F V and then (F V) F."""
    fv = {group.mul(a, b) for a in f for b in v}
    return {group.mul(a, b) for a in fv for b in f}


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
    vset = sorted(set(v))
    for x in vset:
        if not 0 <= x < n:
            raise DomainError("V contains an invalid element index")
    if budget < 1:
        raise DomainError("the FVF budget must be positive")
    m = len(vset)
    full = (1 << n) - 1
    bits = [[1 << x for x in row] for row in group.table]
    # x -> a x b is a bijection, so the m bits of a V b are distinct and
    # their sum is their union
    pair = []
    for a in range(n):
        av = [bits[group.mul(a, x)] for x in vset]
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
    raise DomainError("no cover found")  # unreachable for non-empty V


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
    argument needs inverses).  When
    phi V phi already covers the group no witness exists, which is the
    expected outcome for large phi on a finite group.
    """
    if radius <= ZERO:
        raise DomainError("ball radius must be positive")
    g = pm.group
    ball = [i for i in range(g.order) if pm.delta[i] < radius]
    entries = []
    for phi in phis:
        idx = sorted({g.index(x) for x in phi})
        if not idx:
            raise DomainError("moving_certificate requires non-empty sets")
        sym = sorted(set(idx) | {g.inv(i) for i in idx})
        covered = _fvf(g, sym, ball)
        outside = [i for i in range(g.order) if i not in covered]
        if not outside:
            entries.append(CertificateEntry(tuple(g.elements[i] for i in idx), None, None))
            continue
        witness = outside[0]
        # d(aH, wbH) = d(a, wb): the gap between the coset images of phi and
        # w phi, read on the group
        gap = min(pm.dist(a, g.mul(witness, b)) for a in sym for b in sym)
        if gap < radius:
            raise DomainError(
                "exhibited element fails the quotient gap bound"
            )
        entries.append(
            CertificateEntry(
                tuple(g.elements[i] for i in idx), g.elements[witness], gap
            )
        )
    return entries
