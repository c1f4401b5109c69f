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
from itertools import combinations, product, repeat
from numbers import Rational
from operator import index, sub
from typing import Mapping, Optional, Sequence

from .actions import Isometry
from .errors import BudgetExceededError, DomainError, InternalCheckError, refusing
from .metric import FiniteMetricSpace, _scan, min_plus, scale, set_distance

_OFF_SUPPORT = refusing(DomainError, "values must be given exactly on the support")
# a checked (support, values) record of a Katetov function
_Pair = tuple[tuple[str, ...], Mapping[str, Fraction]]


@dataclass(frozen=True)
class KatetovFunction:
    """Rational values on a support inside an ambient space.

    The Katetov inequalities are required over the induced subspace on the
    support only; use :func:`hat_extension` to reach the rest of the space.
    A ``support`` sequence is stored as a tuple, read once, so a list or an
    iterator gives the record built from the tuple; ``values`` is a dict, so
    it cannot be hashed.
    """

    space: FiniteMetricSpace
    support: tuple[str, ...]
    values: Mapping[str, Fraction]

    def __post_init__(self):
        with _OFF_SUPPORT:
            object.__setattr__(self, "support", tuple(self.support))
        report = is_katetov(self.space, self.values, self.support)
        if not report.ok:
            raise DomainError(
                f"not Katetov: {report.side} inequality fails at {report.pair}"
            )
        if not self.support:
            raise DomainError("a Katetov function needs a non-empty support")

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

    The support, ``space.points`` when none is given, must hold exactly the
    labels of ``values``, each a point of the space, once, with a
    non-negative exact rational value, else :class:`DomainError`.
    """
    with _OFF_SUPPORT as refuse:
        pts = space.points if support is None else tuple(support)
        refuse.unless(set(pts) == set(values))
        vals = [values[x] for x in pts]  # a list of labels is no mapping
    idx = [space.index(x) for x in pts]
    if len(set(idx)) < len(idx):
        x = next(x for i, x in enumerate(pts) if x in pts[:i])
        raise DomainError(f"support repeats the label {x!r}")
    for x, value in zip(pts, vals):
        if type(value) not in (Fraction, int) and not isinstance(value, Rational):
            raise DomainError(f"value at {x!r} must be an exact rational")
        if value < 0:
            raise DomainError(f"negative value at {x!r}")
    den, sd = space.scaled
    unit, v = scale(vals, "Katetov values", den)
    step = unit // den
    for (x, i, vx), (y, j, vy) in combinations(zip(pts, idx, v), 2):
        d = step * sd[i][j]
        if abs(vx - vy) > d:
            return KatetovReport(False, (x, y), "upper")
        if d > vx + vy:
            return KatetovReport(False, (x, y), "lower")
    return KatetovReport(True)


def _hats(space: FiniteMetricSpace, pairs: Sequence[_Pair]):
    """``(unit, rows, hats)``: the distances and the hat extensions of the
    pairs, as int tuples in point order times one common ``unit``."""
    den, sd = space.scaled
    unit, flat = scale(
        [vals[y] for supp, vals in pairs for y in supp], "Katetov values", den
    )
    rows = tuple(tuple(map((unit // den).__mul__, r)) for r in sd)
    it = iter(flat)
    return unit, rows, [
        min_plus([rows[space.index(y)] for y in supp], it) for supp, _ in pairs
    ]


def hat_extension(f: KatetovFunction) -> KatetovFunction:
    """Extend f from its support to the full space via the min-plus formula."""
    space = f.space
    unit, _, (hat,) = _hats(space, [(f.support, f.values)])
    values = dict(zip(space.points, map(Fraction, hat, repeat(unit))))
    ext = KatetovFunction(space, space.points, values)
    for y in f.support:
        if ext.value(y) != f.value(y):
            raise InternalCheckError("hat extension failed to restrict to f")
    return ext


def point_function(space: FiniteMetricSpace, x: str) -> KatetovFunction:
    """The distance profile of x itself (its image under the canonical
    embedding of the space into its function extension)."""
    den, rows = space.scaled
    values = map(Fraction, rows[space.index(x)], repeat(den))
    return KatetovFunction(space, space.points, dict(zip(space.points, values)))


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
    with refusing(DomainError, "attachments must be Katetov functions"):
        attachments = tuple(attachments)  # read twice below
        for f in attachments:
            if f.space != space:
                raise DomainError("attachment lives on a different space")
        pairs = [(f.support, f.values) for f in attachments]
    return _checked(_assemble(space, pairs))


def _assemble(
    space: FiniteMetricSpace,
    pairs: Sequence[_Pair],
    budget: Optional[int] = None,
) -> StarFragment:
    """``star_fragment`` of checked pairs before its self-check; a tower
    level over ``budget`` points is refused before its distances are built."""
    pts = space.points
    unit, rows, all_hats = _hats(space, pairs)
    owner: dict[tuple[int, ...], str] = {}
    for x, row in zip(pts, rows):
        owner.setdefault(row, x)
    existing = set(pts)
    hats: list[tuple[int, ...]] = []
    records: list[AttachmentRecord] = []
    for (support, values), hat in zip(pairs, all_hats):
        label = owner.get(hat)
        fresh = label is None
        if fresh:
            label = f"p{len(hats) + 1}"
            while label in existing:
                label += "_"
            existing.add(label)
            owner[hat] = label
            hats.append(hat)
        records.append(AttachmentRecord(support, dict(values), label, fresh))
    if budget is not None and len(pts) + len(hats) > budget:
        raise BudgetExceededError(
            f"tower level would have {len(pts) + len(hats)} points "
            f"(budget {budget})"
        )
    sups = [[0] * len(hats) for _ in hats]
    for a, b in combinations(range(len(hats)), 2):
        sups[a][b] = sups[b][a] = max(map(abs, map(sub, hats[a], hats[b])))
    dist = [row + tuple(h[i] for h in hats) for i, row in enumerate(rows)]
    dist += [h + tuple(s) for h, s in zip(hats, sups)]
    points = pts + tuple(owner[h] for h in hats)
    result = FiniteMetricSpace.from_scaled(points, unit, dist, space.pseudo)
    return StarFragment(tuple(records), result)


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
        if not all(isinstance(v, int) for v in (self.support_size, self.point_budget)):
            raise DomainError("support size and point budget must be integers")
        if not all(isinstance(v, Rational) for v in (self.grid_step, self.value_cap)):
            raise DomainError("grid step and value cap must be exact rationals")
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
    with refusing(DomainError, "depth must be non-negative") as refuse:
        refuse.unless(index(depth) >= 0)
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
        pairs: list[_Pair] = []
        pts = current.points
        for k in range(1, min(policy.support_size, current.n) + 1):
            for supp in combinations(pts, k):
                for vals in product(grid, repeat=k):
                    mapping = dict(zip(supp, vals))
                    if is_katetov(current, mapping, supp).ok:
                        pairs.append((supp, mapping))
        frag = _assemble(current, pairs, policy.point_budget)
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
