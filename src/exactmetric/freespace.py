"""The free normed space over a finite pointed metric space.

Elements are molecules: finitely supported rational combinations of points,
with the basepoint playing the role of zero.  The norm is the largest prenorm
bounded by the distance on point differences.  Two independent exact solvers
compute it:

* dual route: maximize the pairing against 1-Lipschitz functions vanishing
  at the basepoint (a rational LP solved by the simplex);
* primal route: minimum-cost shipment realizing the molecule's imbalance,
  with the basepoint absorbing the total mass (successive shortest
  augmenting paths).

Exact strong duality between the two is a library-wide invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .actions import GroupAction, Isometry
from .errors import DomainError, InternalCheckError
from .metric import PointedSpace, scale, set_distance
from .simplex import simplex_max

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Molecule:
    """A finitely supported coefficient vector over the non-basepoint points.

    Coefficients are stored sorted by ambient point order, with zeros and any
    basepoint contribution dropped (the basepoint is the zero vector).
    """

    pointed: PointedSpace
    coeffs: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(pointed: PointedSpace, mapping: Mapping[str, Fraction]) -> "Molecule":
        bp = pointed.basepoint_label
        items = []
        for label, value in mapping.items():
            pointed.space.index(label)
            if not isinstance(value, Rational):
                raise DomainError("molecule coefficients must be exact rationals")
            if label != bp and value != ZERO:
                items.append((label, Fraction(value)))
        items.sort(key=lambda kv: pointed.space.index(kv[0]))
        return Molecule(pointed, tuple(items))

    @staticmethod
    def zero(pointed: PointedSpace) -> "Molecule":
        return Molecule(pointed, ())

    @staticmethod
    def point(pointed: PointedSpace, label: str) -> "Molecule":
        return Molecule.make(pointed, {label: ONE})

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.coeffs)

    def total(self) -> Fraction:
        return sum((v for _, v in self.coeffs), ZERO)

    def __add__(self, other: "Molecule") -> "Molecule":
        self._check_same(other)
        out = self.as_dict()
        for label, value in other.coeffs:
            out[label] = out.get(label, ZERO) + value
        return Molecule.make(self.pointed, out)

    def __sub__(self, other: "Molecule") -> "Molecule":
        return self + other.scale(Fraction(-1))

    def scale(self, q: Fraction) -> "Molecule":
        return Molecule.make(
            self.pointed, {label: q * value for label, value in self.coeffs}
        )

    def _check_same(self, other: "Molecule"):
        if self.pointed != other.pointed:
            raise DomainError("molecules live over different pointed spaces")


@dataclass(frozen=True)
class LipschitzWitness:
    """A 1-Lipschitz function vanishing at the basepoint; pairing with a
    molecule lower-bounds the norm."""

    pointed: PointedSpace
    values: Mapping[str, Fraction]

    def __post_init__(self):
        space = self.pointed.space
        if set(self.values) != set(space.points):
            raise DomainError("witness must assign a value to every point")
        if self.values[self.pointed.basepoint_label] != ZERO:
            raise DomainError("witness must vanish at the basepoint")
        # compare as ints, in units of 1/unit
        pts = space.points
        den, sd = space.scaled
        values = [self.values[x] for x in pts]
        unit, f = scale(values, "witness values", den)
        step = unit // den
        for i, fi in enumerate(f):
            for j in range(i + 1, space.n):
                if abs(fi - f[j]) > step * sd[i][j]:
                    raise DomainError(
                        f"witness is not 1-Lipschitz at ({pts[i]}, {pts[j]})"
                    )

    def pair(self, m: Molecule) -> Fraction:
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
    if not m.coeffs:
        return ZERO, LipschitzWitness(pointed, dict.fromkeys(space.points, ZERO))

    den, sd = space.scaled
    bp = pointed.basepoint
    supp = [space.index(x) for x, _ in m.coeffs]
    c = [v for _, v in m.coeffs]
    # the LP on distances times den: its optimum and vertex are den times
    # those of the LP on the distances themselves
    dbp = [sd[x][bp] for x in supp]
    nvar = len(supp)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i, x in enumerate(supp):
        # g(x) <= 2 d(x, *)
        row = [0] * nvar
        row[i] = 1
        rows.append(row)
        rhs.append(2 * dbp[i])
        for j, y in enumerate(supp):
            if i == j:
                continue
            # g(x) - g(y) <= d(x, y) + d(x, *) - d(y, *)
            row = [0] * nvar
            row[i] = 1
            row[j] = -1
            rows.append(row)
            rhs.append(sd[x][y] + dbp[i] - dbp[j])
    value, g = simplex_max(c, rows, rhs)
    shift = sum((ci * di for ci, di in zip(c, dbp)), ZERO)
    norm = (value - shift) / den
    # the optimum on support + basepoint, extended by min-plus to every
    # point, as ints in units of 1/(den * unit)
    unit, gs = scale(g, "LP optimum")
    f = [
        (sd[x], gi - unit * dbp[i]) for i, (x, gi) in enumerate(zip(supp, gs))
    ] + [(sd[bp], 0)]
    full = {
        label: Fraction(min(fy + unit * row[i] for row, fy in f), den * unit)
        for i, label in enumerate(space.points)
    }
    witness = LipschitzWitness(pointed, full)
    paired = witness.pair(m)
    if paired != norm:
        raise InternalCheckError("optimal witness does not attain the optimum")
    return norm, witness


def aell_norm_primal(
    m: Molecule,
) -> tuple[Fraction, tuple[tuple[str, str, Fraction], ...]]:
    """Norm as the cheapest shipment of the molecule's imbalance.

    Positive coefficients are sources, negative ones sinks, and the basepoint
    absorbs the total.  Costs obey the triangle inequality, so only direct
    source-to-sink arcs are needed; successive shortest augmenting paths on
    the bipartite residual network (Bellman-Ford) give the minimum cost.
    Each path runs from a live source to the nearest live sink, the smallest
    index among equals.  Costs come from ``space.scaled`` and amounts are
    counted in units of 1/lcm of the coefficient denominators, so the search
    runs on ints; the plan is checked against the molecule's marginals, and
    plan and cost become Fractions on return.

    Each Bellman-Ford round relaxes the forward arcs (sources in index
    order), then the residual arcs (in the order the flow first used them).
    The first half-round of an augmentation gives each sink the first
    minimum of its column of live-source costs; later half-rounds relax only
    from the labels the previous half-round lowered.  A label that was not
    lowered cannot strictly improve another: its candidates were compared
    against labels that have only fallen since.  So labels, predecessors,
    round count and paths are those of relaxing every arc every round.
    Dijkstra would break ties differently, and the plan would change.
    """
    space = m.pointed.space
    den, d = space.scaled
    unit, amounts = scale([v for _, v in m.coeffs], "molecule coefficients")
    # remaining supply (> 0) or demand (< 0) of each point, times unit
    excess = [0] * space.n
    for (x, _), a in zip(m.coeffs, amounts):
        excess[space.index(x)] = a
    excess[m.pointed.basepoint] -= sum(excess)
    supply = excess[:]
    sources = [i for i, v in enumerate(excess) if v > 0]
    sinks = [i for i, v in enumerate(excess) if v < 0]
    # each sink's costs from the sources, in source order.  Every label is
    # at most the largest cost, so far marks a point not reached yet, and a
    # spent source's cost in the first half-round.
    column = {t: [d[s][t] for s in sources] for t in sinks}
    far = max(map(max, column.values()), default=0) + 1
    # (source, sink) -> shipped amount, in the order the arcs were first used
    flow: dict[tuple[int, int], int] = {}

    live = len(sources)
    while live:
        # forward arcs source -> sink cost d(s, t), residual arcs
        # sink -> source with flow cost -d(s, t)
        dist = [far] * space.n
        pred = [-1] * space.n
        for t in sinks:
            costs = column[t]
            dist[t] = best = min(costs)
            pred[t] = sources[costs.index(best)]
        for s in sources:
            if excess[s] > 0:
                dist[s] = 0
        lowered = set(sinks)
        for _ in range(len(sources) + len(sinks)):
            lowered_sources = set()
            for (s, t), amount in flow.items():
                if amount > 0 and t in lowered:
                    nd = dist[t] - d[s][t]
                    if nd < dist[s]:
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
        ends = [t for t in sinks if excess[t] < 0]
        if not ends:
            raise InternalCheckError("imbalance left unshipped")
        # path alternates source, sink, source, ..., sink
        path = [min(ends, key=dist.__getitem__)]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        forward = list(zip(path[0::2], path[1::2]))
        backward = list(zip(path[2::2], path[1::2]))
        amount = min([excess[path[0]], -excess[path[-1]]] + [flow[a] for a in backward])
        for arc in forward:
            flow[arc] = flow.get(arc, 0) + amount
        for arc in backward:
            flow[arc] -= amount
        excess[path[0]] -= amount
        excess[path[-1]] += amount
        if not excess[path[0]]:
            live -= 1
            k = sources.index(path[0])
            for costs in column.values():
                costs[k] = far

    arcs = [(s, t, amount) for (s, t), amount in sorted(flow.items()) if amount]
    _check_plan(supply, arcs)
    cost = sum(amount * d[s][t] for s, t, amount in arcs)
    pts = space.points
    plan = tuple((pts[s], pts[t], Fraction(amount, unit)) for s, t, amount in arcs)
    return Fraction(cost, den * unit), plan


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
    # g is a bijection and no support point is the basepoint
    out = {g.apply_label(x): v for x, v in m.coeffs}
    out[g.apply_label(pointed.basepoint_label)] = ONE - m.total()
    return Molecule.make(pointed, out)


def rebase(m: Molecule, new_basepoint: str) -> Molecule:
    """Express a molecule over a different basepoint.

    This is the affine re-basing sending each point of the space to itself;
    it preserves all pairwise norm distances.  The image of the old zero is
    the old basepoint viewed from the new one.
    """
    space = m.pointed.space
    new_pointed = PointedSpace(space, space.index(new_basepoint))
    out = m.as_dict()
    out[m.pointed.basepoint_label] = ONE - m.total()
    return Molecule.make(new_pointed, out)


def moving_lower_bound(
    pointed: PointedSpace,
    phi: Sequence[str],
    g: Isometry,
    v: Molecule,
    w: Molecule,
) -> Fraction:
    """Certified lower bound on the norm distance between w and the affine
    image of v, from the capped distance-to-set witness function.

    The bound is the gap d(phi + basepoint, g(phi + basepoint)).  The witness
    vanishes on phi + basepoint and equals the gap on the translate, so its
    pairing with the difference is exactly the gap.
    """
    space = pointed.space
    bp = pointed.basepoint_label
    phi_plus = list(dict.fromkeys(list(phi) + [bp]))
    for mol in (v, w):
        if mol.pointed != pointed:
            raise DomainError("molecule lives over a different pointed space")
        if not set(mol.support) <= set(phi_plus):
            raise DomainError("molecule support must lie in phi plus basepoint")
    g_phi = [g.apply_label(x) for x in phi_plus]
    gap = set_distance(space, phi_plus, g_phi)
    if gap == ZERO:
        return ZERO
    h_values = {
        x: min(gap, set_distance(space, [x], phi_plus)) for x in space.points
    }
    witness = LipschitzWitness(pointed, h_values)
    gv = affine_extend(g, v)
    paired = witness.pair(gv - w)
    if paired != gap:
        raise InternalCheckError("witness pairing missed the certified bound")
    return gap


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
