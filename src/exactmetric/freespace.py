"""The free normed space over a finite pointed metric space.

Elements are molecules: finitely supported rational combinations of points,
with the basepoint playing the role of zero.  The norm is the largest prenorm
bounded by the distance on point differences.  Two independent exact solvers
compute it:

* dual route: maximize the pairing against 1-Lipschitz functions vanishing
  at the basepoint.  That LP's own dual, a min-cost flow over the support
  and the basepoint, is solved by an int network simplex, and the witness
  returned is the canonical f*, the pointwise largest optimal one, found
  from the flow's plan by one Dijkstra reweighted by the tree's potentials;
* primal route: minimum-cost shipment realizing the molecule's imbalance,
  with the basepoint absorbing the total mass (successive shortest
  augmenting paths).

Exact strong duality between the two is a library-wide invariant.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, lt, mul, sub
from typing import Optional, Sequence

from .actions import GroupAction, Isometry, moving_gap, translation_gap
from .errors import DomainError, InternalCheckError, refusing
from .metric import PointedSpace, min_plus, scale

ZERO = Fraction(0)
ONE = Fraction(1)
# the molecule constructor and Molecule.scale refuse a value in these words
_INEXACT = refusing(DomainError, "molecule coefficients must be exact rationals")
# the dual's network simplex prices _BLOCK rows of arcs at a time, and on k
# nodes gives up after _PIVOTS_PER_ARC * k * k pivots, about that many per arc
_BLOCK = 4
_PIVOTS_PER_ARC = 1


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
        with _INEXACT:  # a float has no numerator
            self._read(pointed, [(index(x), v.numerator, v.denominator)
                                 for x, v in mapping.items()])

    make = classmethod(type.__call__)

    def _read(self, pointed: PointedSpace, spots: list[tuple[int, int, int]]):
        """Fill this blank molecule with ``p / q`` at point ``i`` for each int
        triple ``(i, p, q)`` of ``spots`` (``q > 0``; a later triple at ``i``
        replaces an earlier one) and 0 elsewhere, and return it: the int entry
        of the constructor and of ``jsonio.molecule_from_json``."""
        ints = [0] * pointed.space.n
        unit = lcm(*{q for _, _, q in spots})
        for i, p, q in spots:
            ints[i] = p * (unit // q)
        return self._store(pointed, unit, ints)

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


@dataclass(frozen=True, init=False)
class LipschitzWitness:
    """A 1-Lipschitz function vanishing at the basepoint; pairing with a
    molecule lower-bounds the norm.

    ``LipschitzWitness(pointed, values)`` reads a label -> exact rational
    mapping that assigns every point.  The value at point i is ``ints[i] /
    unit``, reduced by the gcd as a molecule's coefficients are; ``values``
    reads them back as a label -> ``Fraction`` dict, one ``Fraction`` per
    distinct value, made the first time it is read.
    """

    pointed: PointedSpace
    unit: int
    ints: tuple[int, ...]

    def __init__(self, pointed: PointedSpace, values: Mapping[str, Fraction]):
        space = pointed.space
        with refusing(DomainError,
                      "witness must assign a value to every point") as refuse:
            refuse.unless(values.keys() == set(space.points))  # a list has no keys
        unit, f = scale([values[x] for x in space.points], "witness values",
                        space.scaled[0])
        self._store(pointed, unit, f)

    def _store(self, pointed: PointedSpace, unit: int, f: Sequence[int]):
        """Fill this blank witness with ``f[i] / unit`` at point i, reduced by
        the gcd, and return it, once the ints vanish at the basepoint and are
        1-Lipschitz: the one check of every witness, on the ints of the public
        constructor, the dual route and ``moving_lower_bound``.  ``unit`` is a
        multiple of the space's denominator."""
        if f[pointed.basepoint]:
            raise DomainError("witness must vanish at the basepoint")
        space = pointed.space
        pts = space.points
        # compare as ints, in units of 1/unit
        den, sd = space.scaled
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
        g = gcd(unit, *f)
        self.__dict__.update(pointed=pointed, unit=unit // g,
                             ints=tuple(f if g == 1 else map(g.__rfloordiv__, f)))
        return self

    @cached_property
    def values(self) -> dict[str, Fraction]:
        value = {v: Fraction(v, self.unit) for v in set(self.ints)}
        return dict(zip(self.pointed.space.points, map(value.__getitem__, self.ints)))

    def pair(self, m: Molecule) -> Fraction:
        if m.pointed is not self.pointed and m.pointed != self.pointed:
            raise DomainError("molecule is not over the witness's pointed space")
        return Fraction(sum(map(mul, m.ints, self.ints)), m.unit * self.unit)


def aell_norm_dual(m: Molecule) -> tuple[Fraction, LipschitzWitness]:
    """Norm via the Lipschitz-function LP, with its canonical optimal witness.

    Only the support plus the basepoint enters the LP: a 1-Lipschitz function
    on that subspace extends to the whole space with the same constant (and
    the min-plus extension used for the returned witness does exactly that).
    Its LP dual is a min-cost flow on the complete digraph over those nodes,
    arc costs the int distances (in units of 1/den for the space's
    denominator den) and supplies the molecule's ints, which
    ``_network_simplex`` solves.  The tree's flow, each path of it made one
    source-to-sink arc, is the plan that ``_check_plan`` checks; the tree's
    potentials are an optimal witness g.  The returned witness is f*, the
    pointwise largest optimal one, which depends on neither: the largest
    1-Lipschitz f vanishing at the basepoint with f(s) - f(t) = d(s, t) on
    every plan arc, found by ``_largest_witness`` with g's reweighting.  It
    is stored from its ints and checked on them, and its pairing must equal
    the plan's cost; the zero molecule gets the zero witness.
    """
    pointed = m.pointed
    space = pointed.space
    supp = list(compress(range(space.n), m.ints))
    den, sd = space.scaled
    if not supp:
        zero = object.__new__(LipschitzWitness)._store(pointed, den, [0] * space.n)
        return ZERO, zero

    bp = pointed.basepoint
    nodes = [*supp, bp]
    rows = [sd[x] for x in nodes]
    cost = list(map(itemgetter(*nodes), rows))
    supply = [*map(m.ints.__getitem__, supp), -sum(m.ints)]
    flow, g = _network_simplex(cost, supply)
    plan = _direct(supply, flow)
    excess = list(m.ints)
    excess[bp] = supply[-1]
    _check_plan(excess, [(nodes[s], nodes[t], amount) for s, t, amount in plan])
    # f* on support + basepoint, extended by min-plus to every point, as ints
    # in units of 1/den; its pairing with m and the plan's cost are in units
    # of 1/(unit den)
    f = min_plus(rows, _largest_witness(cost, g, plan))
    witness = object.__new__(LipschitzWitness)._store(pointed, den, f)
    value = sum(amount * cost[s][t] for s, t, amount in plan)
    if sum(map(mul, m.ints, f)) != value:
        raise InternalCheckError("optimal witness does not attain the optimum")
    return Fraction(value, m.unit * den), witness


def _network_simplex(
    cost: Sequence[Sequence[int]], supply: Sequence[int],
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """A min-cost flow on the complete digraph over nodes 0..k-1, arc u -> v
    of cost ``cost[u][v]`` >= 0, with net outflow ``supply[v]`` at each node
    (the root, the last node, takes the rest): ``(arcs, g)``, the arcs ``(u,
    v, amount)`` of positive flow of an optimal spanning tree and its node
    potentials, with g(root) = 0, g(u) - g(v) <= cost[u][v] on every arc and
    equality on the tree's.

    A primal network simplex on strongly feasible trees (Cunningham 1976),
    on ints.  The first tree is the star at the root: x -> root carries
    supply[x] >= 0, and root -> x carries -supply[x] otherwise.  Arcs are
    priced a block of ``_BLOCK`` rows (about ``_BLOCK`` k arcs) at a time,
    the blocks in turn from where the last search stopped; the first block
    with a negative reduced cost enters its most negative arc (the first
    row, then the first column, among equals).  The leaving arc is the last
    blocking arc met on the pivot cycle, traversed from its apex along the
    entering arc; that keeps every tree strongly feasible, which rules out
    cycling.  More than ``_PIVOTS_PER_ARC`` k k pivots raise
    ``InternalCheckError``.
    """
    k = len(supply)
    root = k - 1
    # the tree: each node's parent, whether its tree arc points up (x ->
    # parent[x]) and that arc's flow, its depth, children and potential
    parent = [root] * k
    up = [b >= 0 for b in supply]
    flow = list(map(abs, supply))
    depth = [1] * k
    children: list[list[int]] = [[] for _ in supply]
    children[root] = list(range(root))
    g = [row[root] if b >= 0 else -cost[root][x]
         for x, (row, b) in enumerate(zip(cost, supply))]
    parent[root], depth[root], g[root] = -1, 0, 0
    first = 0  # the first row of the next block to price
    for _ in range(_PIVOTS_PER_ARC * k * k + 1):
        best = 0
        for _ in range(0, k, _BLOCK):
            for u in range(first, min(first + _BLOCK, k)):
                reduced = min(map(add, cost[u], g)) - g[u]
                if reduced < best:
                    best, a = reduced, u
            first = first + _BLOCK if first + _BLOCK < k else 0
            if best:
                break
        else:  # no arc prices below 0: the tree is optimal
            return [(x, parent[x], flow[x]) if up[x] else (parent[x], x, flow[x])
                    for x in range(root) if flow[x]], g
        b = list(map(add, cost[a], g)).index(best + g[a])
        # the tree paths from a and from b up to their apex
        side_a, side_b = [], []
        x, y = a, b
        while x != y:
            if depth[x] >= depth[y]:
                side_a.append(x)
                x = parent[x]
            else:
                side_b.append(y)
                y = parent[y]
        # flow falls on the arcs against the cycle apex -> a -> b -> apex:
        # the upward ones on a's side and the downward ones on b's; the
        # last of the least met from the apex leaves
        leave, delta = -1, 0
        for x in side_a:
            if up[x] and (leave < 0 or flow[x] < delta):
                leave, delta = x, flow[x]
        for y in side_b:
            if not up[y] and (leave < 0 or flow[y] <= delta):
                leave, delta = y, flow[y]
        if leave < 0:
            raise InternalCheckError("pivot cycle has no arc to leave")
        for x in side_a:
            flow[x] += -delta if up[x] else delta
        for y in side_b:
            flow[y] += delta if up[y] else -delta
        # the leaving arc's subtree hangs from the entering arc instead: the
        # stem from the entering arc's end to the leaving arc turns over,
        # and the subtree's potentials move by the reduced cost
        if leave in side_a:
            stem, p, arc_up, shift = side_a[:side_a.index(leave) + 1], b, True, best
        else:
            stem, p, arc_up, shift = side_b[:side_b.index(leave) + 1], a, False, -best
        amount = delta
        for x in stem:
            children[parent[x]].remove(x)
            children[p].append(x)
            parent[x], up[x], flow[x], arc_up, amount = p, arc_up, amount, not up[x], flow[x]
            p = x
        depth[stem[0]] = depth[parent[stem[0]]] + 1
        subtree = stem[:1]
        for x in subtree:
            g[x] += shift
            for y in children[x]:
                depth[y] = depth[x] + 1
                subtree.append(y)
    raise InternalCheckError("network simplex pivot budget exhausted")


def _direct(
    supply: Sequence[int], arcs: Sequence[tuple[int, int, int]],
) -> list[tuple[int, int, int]]:
    """The source-to-sink plan ``(s, t, amount)`` of a flow on the arcs
    ``(u, v, amount)`` of a tree, with net outflow ``supply[v]`` at each
    node: each path of the flow from a source to a sink becomes one arc s ->
    t, no dearer under the triangle inequality.  Sources are drained in node
    order, each walk taking the last arc out of a node that still carries
    flow, up to the first node of unmet demand.  A walk that finds no such
    arc ends the plan there, short of the supplies, for ``_check_plan`` to
    refuse."""
    heads: list[list[list[int]]] = [[] for _ in supply]
    for u, v, amount in arcs:
        heads[u].append([v, amount])
    left = list(supply)
    plan = []
    for s in range(len(supply)):
        while left[s] > 0:
            path, t = [], s
            while left[t] >= 0:
                out = heads[t]
                while out and not out[-1][1]:
                    out.pop()
                if not out:
                    return plan
                path.append(out[-1])
                t = out[-1][0]
            amount = min(left[s], -left[t], *[arc[1] for arc in path])
            for arc in path:
                arc[1] -= amount
            left[s] -= amount
            left[t] += amount
            plan.append((s, t, amount))
    return plan


def _largest_witness(
    cost: Sequence[Sequence[int]], g: Sequence[int],
    plan: Sequence[tuple[int, int, int]],
) -> list[int]:
    """The pointwise largest f with f(v) <= f(u) + cost[u][v] for all nodes
    u, v and f(t) <= f(s) - cost[s][t] on each plan arc ``(s, t, _)``, and
    f(root) = 0 at the last node: the shortest paths from the root, by one
    dense Dijkstra (Johnson 1977).  Its labels are f less the potentials
    ``g``, under which every arc length is >= 0 when g is 1-Lipschitz and
    tight on the plan arcs; any other g still gives the length of some
    path, so f no smaller than the shortest.

    The root's arcs are relaxed first.  A node's other arcs are relaxed only
    when a plan arc set its label: a label from a node's arc u -> x makes
    x's arcs x -> v no shorter, by the triangle inequality, than the arcs
    u -> v relaxed already."""
    back: list[list[int]] = [[] for _ in g]
    for s, t, _ in plan:
        back[s].append(t)
    label = list(map(sub, cost[-1], g))
    # each node's label from its plan arcs, while no arc did better
    via: list[Optional[int]] = [None] * len(g)
    todo = list(range(len(g)))
    while todo:
        u = min(todo, key=label.__getitem__)
        todo.remove(u)
        fu = label[u] + g[u]
        if label[u] == via[u]:
            label = list(map(min, label, map(sub, map(add, cost[u], repeat(fu)), g)))
        for t in back[u]:
            reached = fu - cost[u][t] - g[t]
            if reached < label[t]:
                label[t] = via[t] = reached
    return list(map(add, label, g))


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
    The witness is stored from that row's ints and paired with g.v on ints.
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
    h = tuple(map(min, repeat(gap), near))
    witness = object.__new__(LipschitzWitness)._store(pointed, den, h)
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
