"""Katetov functions, hat extensions, one-step extension fragments and towers.

A Katetov function over (X, d) is an f: X -> [0, oo) with

    |f(x) - f(y)| <= d(x, y) <= f(x) + f(y)   for all x, y,

equivalently the distance profile of a virtual extra point.  The hat
extension pushes such an f from a subset to the whole space by

    hat(f)(x) = min over y in the support of f(y) + d(y, x),

which is the pointwise-largest Katetov extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product, repeat
from numbers import Rational
from operator import add, sub
from typing import Mapping, Optional, Sequence

from .actions import Isometry
from .errors import BudgetExceededError, DomainError, InternalCheckError
from .metric import FiniteMetricSpace, _scan, scale, set_distance


@dataclass(frozen=True)
class KatetovFunction:
    """Rational values on a support inside an ambient space.

    The Katetov inequalities are required over the induced subspace on the
    support only; use :func:`hat_extension` to reach the rest of the space.
    """

    space: FiniteMetricSpace
    support: tuple[str, ...]
    values: Mapping[str, Fraction]

    def __post_init__(self):
        if not self.support:
            raise DomainError("a Katetov function needs a non-empty support")
        if set(self.support) != set(self.values):
            raise DomainError("values must be given exactly on the support")
        report = is_katetov(self.space, self.values, self.support)
        if not report.ok:
            raise DomainError(
                f"not Katetov: {report.side} inequality fails at {report.pair}"
            )

    def value(self, x: str) -> Fraction:
        return self.values[x]


@dataclass(frozen=True)
class KatetovReport:
    ok: bool
    pair: Optional[tuple[str, str]] = None
    side: Optional[str] = None  # "lower" (d > f+f) or "upper" (|df| > d)

    def as_json(self):
        if self.ok:
            return {"ok": True}
        return {"ok": False, "pair": list(self.pair), "side": self.side}


def is_katetov(
    space: FiniteMetricSpace,
    values: Mapping[str, Fraction],
    support: Optional[Sequence[str]] = None,
) -> KatetovReport:
    """Check both Katetov inequalities on all pairs of the support.

    Every support label must be a point of the space and carry a
    non-negative exact rational; otherwise :class:`DomainError` is raised.
    """
    pts = tuple(support) if support is not None else space.points
    idx = [space.index(x) for x in pts]
    for x in pts:
        if x not in values:
            raise DomainError(f"no value given at {x!r}")
        if not isinstance(values[x], Rational):
            raise DomainError(f"value at {x!r} must be an exact rational")
        if values[x] < 0:
            raise DomainError(f"negative value at {x!r}")
    den, sd = space.scaled
    unit, v = scale([values[x] for x in pts], "Katetov values", den)
    step = unit // den
    for (x, i, vx), (y, j, vy) in combinations(zip(pts, idx, v), 2):
        d = step * sd[i][j]
        if abs(vx - vy) > d:
            return KatetovReport(False, (x, y), "upper")
        if d > vx + vy:
            return KatetovReport(False, (x, y), "lower")
    return KatetovReport(True)


def _hats(space: FiniteMetricSpace, fs: Sequence[KatetovFunction]):
    """``(unit, rows, hats)``: the distances and the hat extensions of
    ``fs``, as int tuples in point order times one common ``unit``."""
    den, sd = space.scaled
    unit, flat = scale(
        [f.values[y] for f in fs for y in f.support], "Katetov values", den
    )
    rows = tuple(tuple(map((unit // den).__mul__, r)) for r in sd)
    it = iter(flat)
    return unit, rows, [tuple(reduce(partial(map, min), [
        map(add, repeat(next(it)), rows[space.index(y)]) for y in f.support
    ])) for f in fs]


def hat_extension(f: KatetovFunction) -> KatetovFunction:
    """Extend f from its support to the full space via the min-plus formula."""
    space = f.space
    unit, _, (hat,) = _hats(space, [f])
    values = dict(zip(space.points, map(Fraction, hat, repeat(unit))))
    ext = KatetovFunction(space, space.points, values)
    for y in f.support:
        if ext.value(y) != f.value(y):
            raise InternalCheckError("hat extension failed to restrict to f")
    return ext


def point_function(space: FiniteMetricSpace, x: str) -> KatetovFunction:
    """The distance profile of x itself (its image under the canonical
    embedding of the space into its function extension)."""
    i = space.index(x)
    return KatetovFunction(
        space, space.points,
        {p: space.dist[i][j] for j, p in enumerate(space.points)},
    )


def sup_distance(f: KatetovFunction, g: KatetovFunction) -> Fraction:
    """max over x of |f(x) - g(x)|; both must live on the same full domain."""
    if f.space != g.space or set(f.support) != set(g.support):
        raise DomainError("sup_distance requires a common domain")
    k = len(f.support)
    values = [*map(f.value, f.support), *map(g.value, f.support)]
    unit, v = scale(values, "Katetov values")
    return Fraction(max(map(abs, map(sub, v[:k], v[k:]))), unit)


@dataclass(frozen=True)
class AttachmentRecord:
    support: tuple[str, ...]
    values: Mapping[str, Fraction]
    point: str          # label in the result (new, or an absorbing duplicate)
    fresh: bool         # False when deduplicated against an earlier function


@dataclass(frozen=True)
class StarFragment:
    base: FiniteMetricSpace
    attached: tuple[AttachmentRecord, ...]
    result: FiniteMetricSpace


def star_fragment(
    space: FiniteMetricSpace,
    attachments: Sequence[KatetovFunction],
) -> StarFragment:
    """Adjoin one point per attachment, metrized by hat extensions.

    New-point/old-point distances are the hat values; new/new distances are
    sup distances of the hats.  Attachments whose hat coincides with an
    earlier hat, or with the distance profile of an existing point, are
    deduplicated (the extension is a set of functions, so duplicates collapse
    rather than forcing a pseudometric).  Profiles are compared as value
    tuples in point order; among equal rows of a pseudometric the first
    point absorbs.
    """
    return _checked(_assemble(space, attachments))


def _assemble(
    space: FiniteMetricSpace,
    attachments: Sequence[KatetovFunction],
) -> StarFragment:
    """``star_fragment`` before its self-check."""
    for f in attachments:
        if f.space != space:
            raise DomainError("attachment lives on a different space")
    pts = space.points
    unit, rows, all_hats = _hats(space, attachments)
    owner: dict[tuple[int, ...], str] = {}
    for x, row in zip(pts, rows):
        owner.setdefault(row, x)
    existing = set(pts)
    hats: list[tuple[int, ...]] = []
    records: list[AttachmentRecord] = []
    for f, hat in zip(attachments, all_hats):
        label = owner.get(hat)
        fresh = label is None
        if fresh:
            label = f"p{len(hats) + 1}"
            while label in existing:
                label += "_"
            existing.add(label)
            owner[hat] = label
            hats.append(hat)
        records.append(AttachmentRecord(f.support, dict(f.values), label, fresh))
    sups = [[0] * len(hats) for _ in hats]
    for a, b in combinations(range(len(hats)), 2):
        sups[a][b] = sups[b][a] = max(map(abs, map(sub, hats[a], hats[b])))
    dist = [row + tuple(h[i] for h in hats) for i, row in enumerate(rows)]
    dist += [h + tuple(s) for h, s in zip(hats, sups)]
    points = pts + tuple(owner[h] for h in hats)
    result = FiniteMetricSpace.from_scaled(points, unit, dist, space.pseudo)
    return StarFragment(space, tuple(records), result)


def _checked(frag: StarFragment) -> StarFragment:
    """``frag``, once the metric axioms of its result are checked."""
    result = frag.result
    # Fraction rows on purpose: an int scan multiplies the passes an
    # extension benchmark run keeps in memory (ROADMAP items 1-2)
    report = _scan(result, result.dist)
    if not report.ok:
        raise InternalCheckError(
            f"extension fragment failed metric validation: {report.axiom} "
            f"at {report.witness}"
        )
    return frag


@dataclass(frozen=True)
class TowerPolicy:
    """Bounds on the per-level enumeration of attachment functions.

    Supports have at most ``support_size`` points; values range over the grid
    step, 2*step, ..., up to ``value_cap``.  Zero is excluded from the grid:
    a zero value would duplicate an existing point.  ``point_budget`` caps the
    total point count of any intermediate space.
    """

    support_size: int = 1
    grid_step: Fraction = Fraction(1)
    value_cap: Fraction = Fraction(2)
    point_budget: int = 64

    def __post_init__(self):
        if self.support_size < 1:
            raise DomainError("support size must be at least 1")
        if self.grid_step <= 0:
            raise DomainError("grid step must be positive")
        if self.value_cap < self.grid_step:
            raise DomainError("value cap must be at least the grid step")
        if self.point_budget < 0:
            raise DomainError("point budget must be non-negative")

    def grid(self) -> list[Fraction]:
        count = self.value_cap // self.grid_step
        return [k * self.grid_step for k in range(1, count + 1)]


def tower(
    space: FiniteMetricSpace, depth: int, policy: TowerPolicy
) -> FiniteMetricSpace:
    """Iterate the one-step extension ``depth`` times under a finite policy.

    The result is a deterministic under-approximation of the full function
    extension: only grid-valued functions on small supports are realized.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if not depth or not space.n:
        # every level of the empty space is the empty space
        return space
    if policy.value_cap // policy.grid_step > policy.point_budget:
        # level one realizes each grid value on a one-point support as a
        # distinct hat, at most n of them existing points
        raise BudgetExceededError(
            f"the value grid alone exceeds the budget {policy.point_budget}"
        )
    grid = policy.grid()
    current = space
    for _ in range(depth):
        attachments: list[KatetovFunction] = []
        pts = current.points
        for k in range(1, min(policy.support_size, current.n) + 1):
            for supp in combinations(pts, k):
                for vals in product(grid, repeat=k):
                    mapping = dict(zip(supp, vals))
                    if not is_katetov(current, mapping, supp).ok:
                        continue
                    attachments.append(
                        KatetovFunction(current, supp, mapping)
                    )
        # refuse a level over budget before its self-check, the costly part
        frag = _assemble(current, attachments)
        if frag.result.n > policy.point_budget:
            raise BudgetExceededError(
                f"tower level would have {frag.result.n} points "
                f"(budget {policy.point_budget})"
            )
        current = _checked(frag).result
    return current


def act_on_katetov(g: Isometry, f: KatetovFunction) -> KatetovFunction:
    """Push f forward along an isometry: the result is f o g^{-1} on g(support)."""
    if g.space != f.space:
        raise DomainError("isometry and function live on different spaces")
    vals = {g.apply_label(x): f.value(x) for x in f.support}
    return KatetovFunction(f.space, tuple(vals), vals)


@dataclass(frozen=True)
class GapResult:
    gap: Fraction
    epsilon: Fraction
    certified: bool

    def as_json(self):
        return {
            "gap": str(self.gap),
            "epsilon": str(self.epsilon),
            "certified": self.certified,
        }


def prop_k_gap(
    phi: KatetovFunction, psi: KatetovFunction
) -> GapResult:
    """Separation of hat extensions of functions on well-separated supports.

    With A = supp(phi), B = supp(psi) and epsilon = d(A, B), the sup distance
    of the two hat extensions is at least epsilon; ``certified`` records the
    exact comparison.
    """
    if phi.space != psi.space:
        raise DomainError("both functions must live on the same space")
    eps = set_distance(phi.space, phi.support, psi.support)
    gap = sup_distance(hat_extension(phi), hat_extension(psi))
    return GapResult(gap, eps, gap >= eps)
