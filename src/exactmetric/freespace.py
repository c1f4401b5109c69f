"""The free normed space over a finite pointed metric space.

Elements are molecules: finitely supported rational combinations of points,
with the basepoint playing the role of zero.  The norm is the largest prenorm
bounded by the distance on point differences.  Two independent exact solvers
compute it:

* dual route: maximize the pairing against 1-Lipschitz functions vanishing
  at the basepoint (an int LP solved by the simplex, which returns an int
  vertex);
* primal route: minimum-cost shipment realizing the molecule's imbalance,
  with the basepoint absorbing the total mass (successive shortest
  augmenting paths).

Exact strong duality between the two is a library-wide invariant.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, lt, mul, sub
from typing import Optional, Sequence

from .actions import GroupAction, Isometry, moving_gap, translation_gap
from .errors import DomainError, InternalCheckError, refusing
from .metric import PointedSpace, min_plus, scale
from .simplex import difference_max

ZERO = Fraction(0)
ONE = Fraction(1)
# the molecule constructor and Molecule.scale refuse a value in these words
_INEXACT = refusing(DomainError, "molecule coefficients must be exact rationals")


@dataclass(frozen=True, init=False)
class Molecule:
    """A finitely supported coefficient vector over the non-basepoint points.

    ``Molecule(pointed, mapping)`` (also ``Molecule.make``) reads a label ->
    exact rational mapping.  The coefficient of point i is ``ints[i] /
    unit``, reduced by the gcd as ``FiniteMetricSpace.scaled`` is, with the
    basepoint's entry 0 (the basepoint is the zero vector).  ``coeffs`` reads
    the non-zero ones as ``(label, Fraction)`` pairs in point order.
    """

    pointed: PointedSpace
    unit: int
    ints: tuple[int, ...]

    def __init__(self, pointed: PointedSpace, mapping: Mapping[str, Fraction]):
        index = pointed.space.index
        ints = [0] * pointed.space.n
        with _INEXACT:  # a float has no numerator
            spots = [(index(x), v.numerator, v.denominator) for x, v in mapping.items()]
            unit = lcm(*{den for _, _, den in spots})
            for i, num, den in spots:
                ints[i] = num * (unit // den)
        self._store(pointed, unit, ints)

    make = classmethod(type.__call__)

    def _store(self, pointed: PointedSpace, unit: int, ints: list[int]) -> "Molecule":
        """Fill this blank molecule with ``ints[i] / unit`` (``unit > 0``),
        reduced, and return it; ``ints`` is a fresh list, its basepoint set to 0."""
        ints[pointed.basepoint] = 0
        g = gcd(unit, *ints)
        self.__dict__.update(pointed=pointed, unit=unit // g,
                             ints=tuple(ints if g == 1 else map(g.__rfloordiv__, ints)))
        return self

    @staticmethod
    def zero(pointed: PointedSpace) -> "Molecule":
        return Molecule(pointed, {})

    @staticmethod
    def point(pointed: PointedSpace, label: str) -> "Molecule":
        return Molecule(pointed, {label: ONE})

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(compress(self.pointed.space.points, self.ints))

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        fractions = [Fraction(v, self.unit) for v in self.ints if v]
        return tuple(zip(self.support, fractions))

    def __add__(self, other: "Molecule") -> "Molecule":
        return self._merge(other, add)

    def __sub__(self, other: "Molecule") -> "Molecule":
        return self._merge(other, sub)

    def _merge(self, other: "Molecule", op) -> "Molecule":
        if self.pointed != other.pointed:
            raise DomainError("molecules live over different pointed spaces")
        unit = lcm(self.unit, other.unit)
        a, b = unit // self.unit, unit // other.unit
        ints = [op(a * x, b * y) for x, y in zip(self.ints, other.ints)]
        return object.__new__(Molecule)._store(self.pointed, unit, ints)

    def scale(self, q: Fraction) -> "Molecule":
        with _INEXACT:
            num, den = q.numerator, q.denominator
        ints = [num * v for v in self.ints]
        return object.__new__(Molecule)._store(self.pointed, self.unit * den, ints)


@dataclass(frozen=True)
class LipschitzWitness:
    """A 1-Lipschitz function vanishing at the basepoint; pairing with a
    molecule lower-bounds the norm."""

    pointed: PointedSpace
    values: Mapping[str, Fraction]

    def __post_init__(self):
        space, values = self.pointed.space, self.values
        pts = space.points
        with refusing(DomainError,
                      "witness must assign a value to every point") as refuse:
            refuse.unless(values.keys() == set(pts))  # a list has no keys
        if values[self.pointed.basepoint_label] != ZERO:
            raise DomainError("witness must vanish at the basepoint")
        # compare as ints, in units of 1/unit
        den, sd = space.scaled
        unit, f = scale([values[x] for x in pts], "witness values", den)
        step = unit // den
        d = sd if step == 1 else [[step * v for v in row] for row in sd]
        for i, fi in enumerate(f):
            # one C-level test per row; the pair loop runs on a failing row
            if any(map(lt, d[i][i + 1:], map(abs, map(sub, f[i + 1:], repeat(fi))))):
                for j in range(i + 1, space.n):
                    if abs(fi - f[j]) > d[i][j]:
                        raise DomainError(
                            f"witness is not 1-Lipschitz at ({pts[i]}, {pts[j]})"
                        )

    def pair(self, m: Molecule) -> Fraction:
        if m.pointed is not self.pointed and m.pointed != self.pointed:
            raise DomainError("molecule is not over the witness's pointed space")
        return sum((v * self.values[x] for x, v in m.coeffs), ZERO)


def aell_norm_dual(m: Molecule) -> tuple[Fraction, LipschitzWitness]:
    """Norm via the Lipschitz-function LP, with an optimal witness.

    Only the support plus the basepoint enters the LP: a 1-Lipschitz function
    on that subspace extends to the whole space with the same constant (and
    the min-plus extension used for the returned witness does exactly that).
    Variables are shifted by the basepoint distance to become non-negative;
    the shift bounds are implied by the Lipschitz constraints, so the feasible
    region is unchanged.
    """
    pointed = m.pointed
    space = pointed.space
    supp = list(compress(range(space.n), m.ints))
    if not supp:
        return ZERO, LipschitzWitness(pointed, dict.fromkeys(space.points, ZERO))

    den, sd = space.scaled
    bp = pointed.basepoint
    c = [m.ints[x] for x in supp]
    # the LP on the ints and the distances times den: its optimum is unit den
    # times that of the LP on the rationals, and its vertex den times theirs
    rows = [sd[x] for x in supp]
    dbp = [row[bp] for row in rows]
    # g(x) <= 2 d(x, *), and g(x) - g(y) <= d(x, y) + d(x, *) - d(y, *)
    upper = [2 * v for v in dbp]
    w = [[sx[y] + di - dj for y, dj in zip(supp, dbp)] for sx, di in zip(rows, dbp)]
    value, g = difference_max(c, upper, w)
    # the optimum on support + basepoint, extended by min-plus to every
    # point, as ints in units of 1/den (the int vertex g less the shift)
    f = min_plus(rows + [sd[bp]], [*map(sub, g, dbp), 0])
    as_fraction = {v: Fraction(v, den) for v in set(f)}.__getitem__
    witness = LipschitzWitness(pointed, dict(zip(space.points, map(as_fraction, f))))
    # the shift and the pairing of m with the witness, in units of
    # 1/(unit den): the LP optimum is their sum, and the norm the pairing
    shift = sum(map(mul, c, dbp))
    paired = sum(map(mul, c, map(f.__getitem__, supp)))
    if value != paired + shift:
        raise InternalCheckError("optimal witness does not attain the optimum")
    return Fraction(paired, m.unit * den), witness


def aell_norm_primal(
    m: Molecule,
) -> tuple[Fraction, tuple[tuple[str, str, Fraction], ...]]:
    """Norm as the cheapest shipment of the molecule's imbalance.

    Positive coefficients are sources, negative ones sinks, and the basepoint
    absorbs the total.  Costs obey the triangle inequality, so only direct
    source-to-sink arcs are needed; successive shortest augmenting paths on
    the bipartite residual network (Bellman-Ford) give the minimum cost.
    Each path runs from a live source to the nearest live sink, the smallest
    index among equals.  Costs come from ``space.scaled`` and amounts from
    the molecule's ints, in units of 1/``m.unit``, so the search runs on
    ints; the plan is checked against the molecule's marginals, and plan and
    cost become Fractions on return.

    Each Bellman-Ford round relaxes the forward arcs s -> t, cost d(s, t),
    in source order, then the residual arcs t -> s of the arcs with flow,
    cost -d(s, t), in the order the flow first used them.  The first
    half-round's labels and predecessors, each sink's first nearest live
    source, are kept across augmentations: only the sinks whose first
    nearest source is spent are recomputed.  One round loop runs each
    search, reading those labels in place and copying them only when a
    residual arc first lowers a source (once a source is spent).  Later
    half-rounds relax only from the labels the previous one lowered: a
    label that was not lowered cannot strictly improve another, as its
    candidates were compared against labels that have only fallen since.
    So labels, predecessors, round count and paths are those of relaxing
    every arc every round.  Dijkstra would break ties otherwise.

    A residual arc never lowers a live source, whose label is 0.  If one
    did, the path from another live source to it, of negative cost, would
    close a negative cycle through a super-source feeding every source; but
    successive shortest paths keep the flow of least cost for its amount,
    so its residual network has no negative cycle.  The residual half-round
    still reads the arcs out of live sources: skipping them gave the same
    plans and measured slower.

    An augmentation that leaves its origin live and every flow it takes back
    positive keeps the labels and predecessors for the next one, which runs
    no search.  It shipped its end sink's whole demand, and the residual
    network only gained arcs t -> s along its path.  Each is tight, dist(t)
    - d(s, t) = dist(s), and t took its final label from s one half-round
    after s took its own.  So such an arc can lower only a label that is not
    final yet, and never sets a final one: each label reaches its final
    value in the same half-round, from the same predecessor, as before, and
    a search would return what is kept.  A spent source or a flow taken back to zero marks the labels
    stale, and the next augmentation searches from the kept first
    half-round.
    """
    space = m.pointed.space
    den, d = space.scaled
    # remaining supply (> 0) or demand (< 0) of each point, times unit
    excess = list(m.ints)
    excess[m.pointed.basepoint] -= sum(excess)
    supply = excess[:]
    sources = [i for i, v in enumerate(excess) if v > 0]
    sinks = [i for i, v in enumerate(excess) if v < 0]
    # each sink's costs from the sources, in source order; far, above every
    # label, marks a point not reached yet and a spent source's cost
    column = [[d[s][t] for s in sources] for t in sinks]
    far = max(map(max, column), default=0) + 1
    # the first half-round's labels and predecessors, kept up to date
    start = [0 if v > 0 else far for v in excess]
    start_pred = [-1] * space.n
    for t, costs in zip(sinks, column):
        start[t] = best = min(costs)
        start_pred[t] = sources[costs.index(best)]
    every_sink = set(sinks)
    limit = len(sources) + len(sinks)
    # (source, sink) -> shipped amount, in the order the arcs were first used
    flow: dict[tuple[int, int], int] = {}

    live = len(sources)
    stale = True
    while live:
        if stale:
            dist, pred = start, start_pred
            lowered = every_sink
            for _ in range(limit):
                lowered_sources = set()
                for (s, t), amount in flow.items():
                    if amount > 0 and t in lowered:
                        nd = dist[t] - d[s][t]
                        if nd < dist[s]:
                            if dist is start:
                                dist, pred = start[:], start_pred[:]
                            dist[s] = nd
                            pred[s] = t
                            lowered_sources.add(s)
                if not lowered_sources:
                    break
                lowered = set()
                for s in sorted(lowered_sources):
                    ds = dist[s]
                    row = d[s]
                    for t in sinks:
                        nd = ds + row[t]
                        if nd < dist[t]:
                            dist[t] = nd
                            pred[t] = s
                            lowered.add(t)
                if not lowered:
                    break
        end, best = -1, far
        for t in sinks:
            if excess[t] < 0 and dist[t] < best:
                end, best = t, dist[t]
        if end < 0:
            raise InternalCheckError("imbalance left unshipped")
        # walk the path back from its end: it ships the least of the end's
        # demand, the flows it takes back and its origin's supply
        amount, origin, hops = -excess[end], pred[end], 0
        while (t := pred[origin]) >= 0:
            hops += 1
            if hops > limit:
                raise InternalCheckError("augmenting path revisits a point")
            amount = min(amount, flow[origin, t])
            origin = pred[t]
        amount = min(amount, excess[origin])
        if amount <= 0:
            raise InternalCheckError(f"augmenting path ships {amount}")
        t = end  # and walk it again to ship that
        stale = False
        while t >= 0:
            s = pred[t]
            flow[s, t] = flow.get((s, t), 0) + amount
            if (t := pred[s]) >= 0:
                flow[s, t] -= amount
                stale |= not flow[s, t]
        excess[end] += amount
        excess[origin] -= amount
        if not excess[origin]:
            stale = True
            live -= 1
            start[origin] = far
            k = sources.index(origin)
            for t, costs in zip(sinks, column):
                costs[k] = far
                if start_pred[t] == origin:
                    start[t] = best = min(costs)
                    start_pred[t] = sources[costs.index(best)]

    arcs = [(s, t, amount) for (s, t), amount in sorted(flow.items()) if amount]
    _check_plan(supply, arcs)
    cost = sum(amount * d[s][t] for s, t, amount in arcs)
    pts = space.points
    plan = tuple((pts[s], pts[t], Fraction(amount, m.unit)) for s, t, amount in arcs)
    return Fraction(cost, den * m.unit), plan


def _check_plan(supply: list[int], arcs: list[tuple[int, int, int]]) -> None:
    """Raise ``InternalCheckError`` unless the int plan ``arcs`` of
    ``(source, sink, amount)`` ships positive amounts from sources to sinks,
    each source shipping exactly its supply and each sink receiving exactly
    its demand (``supply`` is negative at sinks)."""
    left = supply[:]
    for s, t, amount in arcs:
        if amount <= 0 or supply[s] <= 0 or supply[t] >= 0:
            raise InternalCheckError(
                f"transport plan ships {amount} from point {s} to point {t}"
            )
        left[s] -= amount
        left[t] += amount
    if any(left):
        raise InternalCheckError("transport plan does not match the molecule")


def aell_norm(m: Molecule) -> Fraction:
    """The free-space norm (primal route; see aell_norm_dual for the LP)."""
    cost, _ = aell_norm_primal(m)
    return cost


def norm_distance(m1: Molecule, m2: Molecule) -> Fraction:
    return aell_norm(m1 - m2)


def affine_extend(g: Isometry, m: Molecule) -> Molecule:
    """The unique affine extension of an isometry, applied to a molecule.

    Coefficients move to the image points, and the affine correction
    (1 - sum of coefficients) lands on the image of the basepoint.
    """
    pointed = m.pointed
    if g.space != pointed.space:
        raise DomainError("isometry acts on a different space")
    # point i's entry moves to g(i); the basepoint's entry is 0
    out = [v for _, v in sorted(zip(g.perm, m.ints))]
    out[g.perm[pointed.basepoint]] = m.unit - sum(m.ints)
    return object.__new__(Molecule)._store(pointed, m.unit, out)


def rebase(m: Molecule, new_basepoint: str) -> Molecule:
    """Express a molecule over a different basepoint.

    This is the affine re-basing sending each point of the space to itself;
    it preserves all pairwise norm distances.  The image of the old zero is
    the old basepoint viewed from the new one.
    """
    space = m.pointed.space
    new_pointed = PointedSpace(space, space.index(new_basepoint))
    ints = list(m.ints)
    ints[m.pointed.basepoint] = m.unit - sum(ints)
    return object.__new__(Molecule)._store(new_pointed, m.unit, ints)


def _phi_plus(pointed: PointedSpace, phi: Sequence[str]) -> list[str]:
    with refusing(DomainError, "phi must be a set of point labels"):
        return list(dict.fromkeys([*phi, pointed.basepoint_label]))


def moving_lower_bound(
    pointed: PointedSpace,
    phi: Sequence[str],
    g: Isometry,
    v: Molecule,
    w: Molecule,
) -> Fraction:
    """Certified lower bound on the norm distance between w and the affine
    image of v, from the capped distance-to-set witness function.

    The bound is the gap d(phi + basepoint, g(phi + basepoint)).  The gap and
    the witness come from one row, each point's distance to phi + basepoint:
    the gap is its least value on the translate, and the witness, the row
    capped at the gap, vanishes on phi + basepoint, so on w, and equals the
    gap on the translate: its pairing with g.v - w, that is with g.v, is the gap.
    """
    space = pointed.space
    phi_plus = _phi_plus(pointed, phi)
    for mol in (v, w):
        if mol.pointed != pointed:
            raise DomainError("molecule lives over a different pointed space")
        if not set(mol.support) <= set(phi_plus):
            raise DomainError("molecule support must lie in phi plus basepoint")
    moved = affine_extend(g, v)  # refuses an isometry of another space
    den, d = space.scaled
    near = min_plus([d[space.index(x)] for x in phi_plus], repeat(0))
    gap = min(near[space.index(g.apply_label(x))] for x in phi_plus)
    if not gap:
        return ZERO
    h = map(Fraction, map(min, repeat(gap), near), repeat(den))
    witness = LipschitzWitness(pointed, dict(zip(space.points, h)))
    bound = Fraction(gap, den)
    if witness.pair(moved) != bound:
        raise InternalCheckError("witness pairing missed the certified bound")
    return bound


def extension_certificate(
    action: GroupAction, pointed: PointedSpace, phi: Sequence[str],
    v: Molecule, w: Molecule, element: Optional[str] = None,
) -> tuple[str, Fraction, Fraction, Fraction, bool]:
    """``(element, epsilon0, witness_bound, norm_distance, certified)`` for
    the given element, or else the one moving phi + basepoint most (the
    earliest on ties, the identity when none moves it): its gap, the bound
    of :func:`moving_lower_bound`, the exact norm of g.v - w, and whether
    the bound equals the gap and the norm reaches it."""
    group, space = action.group, action.space
    phi_plus = _phi_plus(pointed, phi)
    if element is not None:
        best = group.index(element)
        gap = translation_gap(action, [space.index(x) for x in phi_plus], best)
    else:
        gap, witness = moving_gap(action, phi_plus)
        best = group.index(witness) if gap else group.identity
    g = action.images[best]
    bound = moving_lower_bound(pointed, phi_plus, g, v, w)
    lp = norm_distance(affine_extend(g, v), w)
    return group.elements[best], gap, bound, lp, bound == gap and lp >= bound


def fixed_point(action: GroupAction, seed: Molecule) -> Molecule:
    """Barycenter of the orbit of a molecule under the affine-extended action;
    exactly invariant under every group element."""
    pointed = seed.pointed
    if action.space != pointed.space:
        raise DomainError("action and molecule live on different spaces")
    acc = Molecule.zero(pointed)
    for iso in action.images:
        acc = acc + affine_extend(iso, seed)
    bary = acc.scale(Fraction(1, action.group.order))
    for iso in action.images:
        if affine_extend(iso, bary) != bary:
            raise InternalCheckError("orbit barycenter is not invariant")
    return bary
