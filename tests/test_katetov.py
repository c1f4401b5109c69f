from fractions import Fraction
from itertools import combinations
from operator import sub
from random import Random

import pytest

from exactmetric import (
    BudgetExceededError,
    DomainError,
    FiniteMetricSpace,
    Isometry,
    KatetovFunction,
    TowerPolicy,
    act_on_katetov,
    hat_extension,
    is_katetov,
    point_function,
    prop_k_gap,
    star_fragment,
    sup_distance,
    tower,
    validate,
)
from exactmetric import katetov
from exactmetric.katetov import KatetovReport
from exactmetric.randgen import cycle_space, rand_katetov, rand_metric_space

from conftest import space_from_rows

F = Fraction


@pytest.fixture
def two_points():
    return space_from_rows(["a", "b"], [[0, 2], [2, 0]])


@pytest.fixture
def line05():
    return space_from_rows(["a", "b"], [[0, 5], [5, 0]])


def test_is_katetov_ok(two_points):
    assert is_katetov(two_points, {"a": F(1), "b": F(1)}).ok


def test_is_katetov_upper_violation(two_points):
    report = is_katetov(two_points, {"a": F(1), "b": F(4)})
    assert not report.ok and report.side == "upper"
    assert set(report.pair) == {"a", "b"}


def test_is_katetov_lower_violation(two_points):
    report = is_katetov(two_points, {"a": F(1, 2), "b": F(1)})
    assert not report.ok and report.side == "lower"


def test_negative_value_rejected(two_points):
    with pytest.raises(DomainError):
        is_katetov(two_points, {"a": F(-1), "b": F(1)})


def test_float_value_rejected(two_points):
    # a float would reach star_fragment and build a space holding floats
    with pytest.raises(DomainError, match="exact rational"):
        KatetovFunction(two_points, ("a",), {"a": 0.5})
    with pytest.raises(DomainError, match="^value at 'b' must be an exact rational$"):
        is_katetov(two_points, {"a": F(1), "b": 1.5})
    assert is_katetov(two_points, {"a": 1, "b": F(1)}).ok


@pytest.mark.parametrize("values, side", [
    ({"a": F(1), "b": F(4)}, "upper"),  # |f(a) - f(b)| = 3 > d(a, b) = 2
    ({"a": F(0), "b": F(1)}, "lower"),  # d(a, b) = 2 > f(a) + f(b) = 1
])
def test_a_katetov_function_refuses_values_that_are_not_katetov(two_points, values, side):
    with pytest.raises(
        DomainError, match=rf"^not Katetov: {side} inequality fails at \('a', 'b'\)$"
    ):
        KatetovFunction(two_points, ("a", "b"), values)


def test_a_katetov_function_given_a_list_support_is_stored_as_a_tuple(two_points):
    values = {"a": F(1), "b": F(1)}
    f = KatetovFunction(two_points, ["a", "b"], values)
    assert f.support == ("a", "b")
    assert f == KatetovFunction(two_points, ("a", "b"), values)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(f)


def test_hat_single_support():
    sp = space_from_rows(["a", "b"], [[0, 2], [2, 0]])
    f = KatetovFunction(sp, ("a",), {"a": F(1)})
    hat = hat_extension(f)
    assert hat.value("a") == 1 and hat.value("b") == 3


def test_hat_of_full_support_is_identity(two_points):
    f = KatetovFunction(two_points, ("a", "b"), {"a": F(1), "b": F(1)})
    hat = hat_extension(f)
    assert dict(hat.values) == {"a": F(1), "b": F(1)}


def test_point_function_is_distance_profile(line013):
    pf = point_function(line013, "1")
    assert dict(pf.values) == {"0": F(1), "1": F(0), "3": F(2)}


def test_sup_distance_zero_on_equal(two_points):
    f = KatetovFunction(two_points, ("a", "b"), {"a": F(1), "b": F(1)})
    assert sup_distance(f, f) == 0


def test_sup_distance_of_point_profiles_is_distance(line013):
    for x in line013.points:
        for y in line013.points:
            assert sup_distance(
                point_function(line013, x), point_function(line013, y)
            ) == line013.d_label(x, y)


def test_sup_distance_line5_hats(line05):
    phi = hat_extension(KatetovFunction(line05, ("a",), {"a": F(1)}))
    psi = hat_extension(KatetovFunction(line05, ("b",), {"b": F(1)}))
    assert dict(phi.values) == {"a": F(1), "b": F(6)}
    assert dict(psi.values) == {"a": F(6), "b": F(1)}
    assert sup_distance(phi, psi) == 5


def test_star_fragment_empty_is_base(line013):
    frag = star_fragment(line013, [])
    assert frag.result == line013


def test_star_fragment_midpoint(two_points):
    f = KatetovFunction(two_points, ("a", "b"), {"a": F(1), "b": F(1)})
    frag = star_fragment(two_points, [f])
    assert frag.result.points == ("a", "b", "p1")
    assert frag.result.d_label("p1", "a") == 1
    assert frag.result.d_label("p1", "b") == 1


def test_star_fragment_dedupes_equal_attachments(two_points):
    f = KatetovFunction(two_points, ("a", "b"), {"a": F(1), "b": F(1)})
    frag = star_fragment(two_points, [f, f])
    assert frag.result.n == 3
    assert [rec.point for rec in frag.attached] == ["p1", "p1"]
    assert [rec.fresh for rec in frag.attached] == [True, False]


def test_star_fragment_absorbs_point_profiles(line013):
    pf = point_function(line013, "1")
    frag = star_fragment(line013, [pf])
    assert frag.result == line013
    assert frag.attached[0].point == "1" and not frag.attached[0].fresh


def test_star_fragment_realizes_values_on_support(line013):
    f = KatetovFunction(line013, ("0", "3"), {"0": F(2), "3": F(2)})
    frag = star_fragment(line013, [f])
    p = frag.attached[0].point
    assert frag.result.d_label(p, "0") == 2
    assert frag.result.d_label(p, "3") == 2


def test_tower_depth_zero(line013):
    policy = TowerPolicy(1, F(1), F(1), 100)
    assert tower(line013, 0, policy) == line013


def test_tower_singleton_grid_one():
    sp = space_from_rows(["a"], [[0]])
    out = tower(sp, 1, TowerPolicy(1, F(1), F(1), 10))
    assert out.points == ("a", "p1")
    assert out.d_label("a", "p1") == 1


def test_tower_budget_exceeded(line013):
    with pytest.raises(BudgetExceededError):
        tower(line013, 2, TowerPolicy(2, F(1), F(3), 8))


def test_a_tower_level_may_hold_exactly_its_point_budget():
    """Level one over a point adds one hat per grid value: 3 points.  A
    grid of 2 values under a budget of 2 passes the grid check and is
    refused at the level, with its count."""
    sp = space_from_rows(["a"], [[0]])
    out = tower(sp, 1, TowerPolicy(1, F(1), F(2), 3))
    assert out.points == ("a", "p1", "p2")
    with pytest.raises(
        BudgetExceededError, match=r"^tower level would have 3 points \(budget 2\)$"
    ):
        tower(sp, 1, TowerPolicy(1, F(1), F(2), 2))
    with pytest.raises(
        BudgetExceededError, match="^the value grid alone exceeds the budget 1$"
    ):
        tower(sp, 1, TowerPolicy(1, F(1), F(2), 1))


def test_tower_planted_pair():
    # every admissible two-point grid function is realized one level later
    sp = space_from_rows(["a", "b"], [[0, 2], [2, 0]])
    policy = TowerPolicy(2, F(1), F(2), 200)
    out = tower(sp, 1, policy)
    for x in ("a", "b"):
        for y in ("a", "b"):
            if x == y:
                continue
            for vx in (F(1), F(2)):
                for vy in (F(1), F(2)):
                    if not is_katetov(out, {x: vx, y: vy}, (x, y)).ok:
                        continue
                    assert any(
                        out.d_label(p, x) == vx and out.d_label(p, y) == vy
                        for p in out.points
                        if p not in (x, y)
                    )


def test_tower_checks_each_candidate_once(monkeypatch):
    # a kept candidate is not checked again as a KatetovFunction
    calls = []

    def counted(space, values, support=None):
        calls.append(support)
        return is_katetov(space, values, support)

    monkeypatch.setattr(katetov, "is_katetov", counted)
    sp = space_from_rows(["a", "b"], [[0, 2], [2, 0]])
    out = tower(sp, 1, TowerPolicy(2, F(1), F(2), 200))
    # supports {a}, {b} with 2 grid values each, {a, b} with 2 * 2
    assert len(calls) == 2 * 2 + 2 * 2
    assert out.n > sp.n


def test_act_on_katetov_identity(line013):
    f = KatetovFunction(line013, ("0",), {"0": F(1)})
    g = Isometry.identity(line013)
    assert act_on_katetov(g, f) == f


def test_act_on_katetov_rotation():
    c4 = cycle_space(4)
    r = Isometry(c4, (1, 2, 3, 0))
    f = KatetovFunction(c4, ("0",), {"0": F(1)})
    moved = act_on_katetov(r, f)
    assert moved.support == ("1",)
    assert moved.value("1") == 1


def test_equivariance_on_c6():
    c6 = cycle_space(6)
    r = Isometry(c6, tuple((i + 1) % 6 for i in range(6)))
    rng = Random(5)
    for _ in range(20):
        pts = list(c6.points)
        rng.shuffle(pts)
        supp = tuple(sorted(pts[: rng.randint(1, 6)]))
        f = rand_katetov(rng, c6, supp)
        lhs = hat_extension(act_on_katetov(r, f))
        rinv = r.inverse()
        rhs = {x: hat_extension(f).value(rinv.apply_label(x)) for x in c6.points}
        assert dict(lhs.values) == rhs


def test_hat_maximality_random():
    rng = Random(11)
    for _ in range(50):
        sp = rand_metric_space(rng, rng.randint(2, 6))
        pts = list(sp.points)
        rng.shuffle(pts)
        supp = tuple(sorted(pts[: rng.randint(1, sp.n)]))
        f = rand_katetov(rng, sp, supp)
        hat = hat_extension(f)
        g = rand_katetov(rng, sp, tuple(sp.points))
        if all(g.value(y) == f.value(y) for y in supp):
            assert all(g.value(x) <= hat.value(x) for x in sp.points)


def test_prop_k_line5(line05):
    phi = KatetovFunction(line05, ("a",), {"a": F(1)})
    psi = KatetovFunction(line05, ("b",), {"b": F(1)})
    res = prop_k_gap(phi, psi)
    assert res.gap == 5 and res.epsilon == 5 and res.certified


def test_prop_k_equal_supports(two_points):
    phi = KatetovFunction(two_points, ("a", "b"), {"a": F(1), "b": F(1)})
    res = prop_k_gap(phi, phi)
    assert res.gap == 0 and res.epsilon == 0 and res.certified


def test_star_fragment_refuses_an_attachment_on_another_space(two_points, line05):
    with pytest.raises(DomainError, match="^attachment lives on a different space$"):
        star_fragment(two_points, [point_function(line05, "a")])


@pytest.mark.parametrize("other", [
    lambda two_points, line05: point_function(line05, "a"),
    lambda two_points, line05: KatetovFunction(two_points, ("a",), {"a": F(2)}),
])
def test_sup_distance_refuses_functions_on_different_domains(two_points, line05, other):
    with pytest.raises(DomainError, match="^sup_distance requires a common domain$"):
        sup_distance(point_function(two_points, "a"), other(two_points, line05))


def test_act_on_katetov_refuses_an_isometry_of_another_space(two_points, line05):
    with pytest.raises(
        DomainError, match="^isometry and function live on different spaces$"
    ):
        act_on_katetov(Isometry.identity(line05), point_function(two_points, "a"))


def test_prop_k_refuses_functions_on_different_spaces(two_points, line05):
    with pytest.raises(
        DomainError, match="^both functions must live on the same space$"
    ):
        prop_k_gap(point_function(two_points, "a"), point_function(line05, "b"))


def test_star_fragment_always_metric_random():
    rng = Random(3)
    for _ in range(40):
        sp = rand_metric_space(rng, rng.randint(2, 5))
        fns = []
        for _ in range(rng.randint(1, 3)):
            pts = list(sp.points)
            rng.shuffle(pts)
            supp = tuple(sorted(pts[: rng.randint(1, sp.n)]))
            fns.append(rand_katetov(rng, sp, supp))
        frag = star_fragment(sp, fns)
        assert validate(frag.result).ok


def test_support_label_outside_the_space_is_a_domain_error(two_points):
    with pytest.raises(DomainError, match="unknown point label 'zzz'"):
        is_katetov(two_points, {"zzz": F(1)}, ["zzz"])
    with pytest.raises(DomainError, match="exactly on the support"):
        is_katetov(two_points, {"a": F(1), "b": F(1)}, ["a"])
    # checks run in order: support/values mismatch, unknown label, sign,
    # and only then a non-empty support
    with pytest.raises(DomainError, match="exactly on the support"):
        KatetovFunction(two_points, (), {"a": F(1)})
    with pytest.raises(DomainError, match="needs a non-empty support"):
        KatetovFunction(two_points, (), {})
    with pytest.raises(DomainError, match="exactly on the support"):
        KatetovFunction(two_points, ("zzz",), {"a": F(-1)})
    with pytest.raises(DomainError, match="unknown point label"):
        KatetovFunction(two_points, ("zzz",), {"zzz": F(-1)})
    with pytest.raises(DomainError, match="negative value"):
        KatetovFunction(two_points, ("a",), {"a": F(-1)})


def test_a_support_iterator_is_read_once():
    """``is_katetov`` must not consume the support before it is stored."""
    f = KatetovFunction(cycle_space(4), (x for x in ["0"]), {"0": F(1)})
    assert f.support == ("0",)


def test_is_katetov_without_a_support_reads_it_as_the_space_points(two_points):
    # a value off the space, or a point without a value, breaks the rule
    # "values exactly on the support" as it would with the support given
    for values in ({"a": 1, "b": 1, "zz": -7}, {"a": F(1)}):
        with pytest.raises(DomainError, match="exactly on the support"):
            is_katetov(two_points, values)
        with pytest.raises(DomainError, match="exactly on the support"):
            is_katetov(two_points, values, two_points.points)


@pytest.mark.parametrize("fields", [
    {"support_size": 1.5},
    {"point_budget": 64.0},
    {"grid_step": F(1, 2), "value_cap": 2.0},
    {"grid_step": "1"},
    {"grid_step": 0.5},
])
def test_tower_policy_refuses_wrongly_typed_fields(fields):
    with pytest.raises(DomainError, match="must be"):
        TowerPolicy(**fields)


@pytest.mark.parametrize("step", [F(0), F(-1)])
def test_tower_policy_refuses_a_grid_step_that_is_not_positive(step):
    with pytest.raises(DomainError, match="^grid step must be positive$"):
        TowerPolicy(grid_step=step)


def test_tower_policy_takes_a_point_budget_of_zero():
    assert TowerPolicy(point_budget=0).point_budget == 0
    with pytest.raises(DomainError, match="^point budget must be non-negative$"):
        TowerPolicy(point_budget=-1)


def star_fragment_scan(space, attachments):
    """``star_fragment`` as written before profiles were hashed, kept as the
    oracle: every hat is compared with each base point's profile, then with
    each kept hat, and new/new distances come from ``sup_distance``.
    Returns the result space and the (point, fresh) pair of each
    attachment."""
    for f in attachments:
        if f.space != space:
            raise DomainError("attachment lives on a different space")
    base_hats = [point_function(space, x).values for x in space.points]
    kept = []
    records = []
    existing = set(space.points)
    fresh_count = 0
    for f in attachments:
        hat = hat_extension(f)
        hv = dict(hat.values)
        dup_label = None
        for j, bh in enumerate(base_hats):
            if hv == bh:
                dup_label = space.points[j]
                break
        if dup_label is None:
            for label, _, kv in kept:
                if hv == kv:
                    dup_label = label
                    break
        if dup_label is not None:
            records.append((dup_label, False))
            continue
        fresh_count += 1
        label = f"p{fresh_count}"
        while label in existing:
            label += "_"
        existing.add(label)
        kept.append((label, hat, hv))
        records.append((label, True))
    pts = space.points + tuple(label for label, _, _ in kept)
    n0 = space.n
    n = len(pts)
    dist = [[F(0)] * n for _ in range(n)]
    for i in range(n0):
        for j in range(n0):
            dist[i][j] = space.dist[i][j]
    for a, (_, hat_a, _) in enumerate(kept):
        ia = n0 + a
        for j, x in enumerate(space.points):
            dist[ia][j] = dist[j][ia] = hat_a.value(x)
        for b in range(a):
            ib = n0 + b
            dd = sup_distance(hat_a, kept[b][1])
            dist[ia][ib] = dist[ib][ia] = dd
    result = FiniteMetricSpace(pts, tuple(tuple(r) for r in dist), space.pseudo)
    return result, records


def _dedup_attachments(rng, sp):
    """Random attachments that hit every dedup case: fresh hats, a point's
    own profile, the same function twice, and an earlier hat restricted to a
    larger support (whose hat is that hat again)."""
    out = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.randrange(4)
        pts = list(sp.points)
        rng.shuffle(pts)
        supp = tuple(pts[: rng.randint(1, sp.n)])
        if kind == 1:
            x = supp[0]
            out.append(KatetovFunction(
                sp, supp, {y: sp.d_label(x, y) for y in supp}))
        elif kind == 2 and out:
            out.append(rng.choice(out))
        elif kind == 3 and out:
            f = rng.choice(out)
            hat = hat_extension(f)
            wider = tuple(dict.fromkeys(f.support + supp))
            out.append(KatetovFunction(
                sp, wider, {y: hat.value(y) for y in wider}))
        else:
            out.append(rand_katetov(rng, sp, supp))
    return out


# The Fraction forms of ``is_katetov``, ``hat_extension`` and the
# ``star_fragment`` construction, as written before they read
# ``space.scaled``, kept as oracles for the integer versions.


def is_katetov_fractions(space, values, support):
    for x, y in combinations(support, 2):
        d = space.d_label(x, y)
        if abs(values[x] - values[y]) > d:
            return KatetovReport(False, (x, y), "upper")
        if d > values[x] + values[y]:
            return KatetovReport(False, (x, y), "lower")
    return KatetovReport(True)


def hat_fractions(f):
    return {
        x: min(f.value(y) + f.space.d_label(y, x) for y in f.support)
        for x in f.space.points
    }


def star_fragment_fractions(space, attachments):
    """The result space and the (point, fresh) pair of each attachment."""
    pts = space.points
    owner = {}
    for x, row in zip(pts, space.dist):
        owner.setdefault(row, x)
    existing = set(pts)
    hats = []
    records = []
    for f in attachments:
        hat = tuple(map(hat_fractions(f).__getitem__, pts))
        label = owner.get(hat)
        fresh = label is None
        if fresh:
            label = f"p{len(hats) + 1}"
            while label in existing:
                label += "_"
            existing.add(label)
            owner[hat] = label
            hats.append(hat)
        records.append((label, fresh))
    sups = [[F(0)] * len(hats) for _ in hats]
    for a, b in combinations(range(len(hats)), 2):
        sups[a][b] = sups[b][a] = max(map(abs, map(sub, hats[a], hats[b])))
    dist = [
        row + tuple(h[i] for h in hats) for i, row in enumerate(space.dist)
    ]
    dist += [h + tuple(s) for h, s in zip(hats, sups)]
    result = FiniteMetricSpace(
        pts + tuple(owner[h] for h in hats), tuple(dist), space.pseudo
    )
    return result, records


def _oracle_space(rng, trial):
    """Metric and pseudometric bases, on palettes or on rationals with
    denominators up to 4."""
    pseudo = trial % 2 == 0
    palette = [F(0), F(1), F(2)] if pseudo else [F(1), F(2), F(3, 2)]
    return rand_metric_space(
        rng, rng.randint(1, 6), pseudo=pseudo,
        palette=palette if trial % 3 else None,
    )


def _shifted(rng, f):
    """f plus a constant whose denominator (5, 7 or 9) divides no base
    space's denominator; a non-negative constant keeps f Katetov."""
    shift = F(rng.randint(0, 3), rng.choice([5, 7, 9]))
    return KatetovFunction(
        f.space, f.support, {x: v + shift for x, v in f.values.items()})


def _katetov_draws(seed, trials):
    """(space, support, values): shifted Katetov functions, a third with a
    planted upper failure and a third with a planted lower one."""
    rng = Random(seed)
    for trial in range(trials):
        sp = _oracle_space(rng, trial)
        pts = list(sp.points)
        rng.shuffle(pts)
        supp = tuple(pts[: rng.randint(1, sp.n)])
        values = dict(_shifted(rng, rand_katetov(rng, sp, supp)).values)
        plant = trial % 3
        if plant and len(supp) >= 2:
            x, y = rng.sample(supp, 2)
            d = sp.d_label(x, y)
            if plant == 1:  # f(y) - f(x) > d(x, y)
                values[y] = values[x] + d + F(1, rng.choice([1, 2, 7]))
            else:  # f(x) + f(y) < d(x, y) unless d(x, y) = 0
                values[x] = values[y] = d * F(rng.randint(0, 3), 7)
        yield sp, supp, values


def test_is_katetov_matches_the_fraction_oracle():
    sides = set()
    for sp, supp, values in _katetov_draws(21, 600):
        report = is_katetov(sp, values, supp)
        assert report == is_katetov_fractions(sp, values, supp)
        sides.add(report.side)
    assert sides == {None, "upper", "lower"}


def test_hat_extension_matches_the_fraction_oracle():
    checked = 0
    for sp, supp, values in _katetov_draws(22, 600):
        if not is_katetov(sp, values, supp).ok:
            continue
        f = KatetovFunction(sp, supp, values)
        assert dict(hat_extension(f).values) == hat_fractions(f)
        checked += 1
    assert checked > 200


def test_star_fragment_matches_the_scan_oracle():
    """Both oracles: the scan before hashing and the Fraction construction."""
    rng = Random(8)
    pool = ["p1", "p1_", "p2", "p3", "a", "b", "c"]
    fresh_and_absorbed = set()
    for trial in range(300):
        base = _oracle_space(rng, trial)
        sp = FiniteMetricSpace(
            tuple(rng.sample(pool, base.n)), base.dist, base.pseudo)
        fns = _dedup_attachments(rng, sp)
        if fns:
            g = _shifted(rng, rng.choice(fns))
            fns += [g, g]
        frag = star_fragment(sp, fns)
        points = [(r.point, r.fresh) for r in frag.attached]
        for oracle in (star_fragment_scan, star_fragment_fractions):
            result, records = oracle(sp, fns)
            assert frag.result == result
            assert points == records
        assert [(r.support, r.values) for r in frag.attached] == [
            (f.support, f.values) for f in fns
        ]
        fresh_and_absorbed.update(fresh for _, fresh in points)
    assert fresh_and_absorbed == {True, False}


@pytest.mark.parametrize(
    "support, values", [(5, {"0": F(1)}), (("0",), 5), (("0",), None)]
)
def test_a_record_that_is_not_iterable_is_not_given_on_its_support(support, values):
    message = "values must be given exactly on the support"
    with pytest.raises(DomainError, match=message):
        KatetovFunction(cycle_space(2), support, values)
