import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, repeat
from operator import add
from random import Random

import pytest

from conftest import cli_env
from exactmetric import (
    BudgetExceededError,
    DomainError,
    FiniteGroup,
    GroupAction,
    InternalCheckError,
    InvariantPseudometric,
    StructuralError,
    cyclic_group,
    dihedral_group,
    kernel_subgroup,
    min_fvf_cover,
    moving_certificate,
    orbit_isomorphism,
    pullback_pseudometric,
    quotient_space,
    set_distance,
    symmetric_group,
)
from exactmetric import quotients
from exactmetric.actions import _unchecked
from exactmetric.jsonio import group_to_json, pseudometric_from_json
from exactmetric.metric import scale
from exactmetric.randgen import (
    rand_action,
    rand_fraction,
    rand_group,
    rand_invariant_pseudometric,
    rotation_action,
)

F = Fraction


def discrete(group):
    delta = tuple(F(g != group.identity) for g in range(group.order))
    return InvariantPseudometric(group, delta)


def zero_pm(group):
    return InvariantPseudometric(group, (F(0),) * group.order)


def cycle_pm(n):
    """Word metric on Z_n with respect to {1, -1}."""
    delta = tuple(F(min(g, n - g)) for g in range(n))
    return InvariantPseudometric(cyclic_group(n), delta)


def coset_indicator_pm(group, subgroup):
    """Distance 0 inside a left coset of the subgroup, 1 across cosets."""
    delta = tuple(F(g not in subgroup) for g in range(group.order))
    return InvariantPseudometric(group, delta)


@pytest.mark.parametrize("order, delta, error, match", [
    (3, (1, 1, 1), DomainError, "identity"),
    (3, (0, 1, 2), DomainError, "symmetric"),
    (4, (0, 1, 3, 1), DomainError, "triangle"),
    (3, (0, 1), StructuralError, "size"),
    # the null set {0, 1, 3} is not closed under inverse, {0, 1} not under product
    (4, (0, 0, 1, 1), DomainError, "^pseudometric is not symmetric at 1$"),
    (4, (0, 0, 1, 0), DomainError, r"^pseudometric triangle .* fails at \(1, 1\)$"),
])
def test_length_function_axioms_enforced(order, delta, error, match):
    with pytest.raises(error, match=match):
        InvariantPseudometric(cyclic_group(order), tuple(map(F, delta)))


def test_left_invariance_enforced():
    group = cyclic_group(3)
    # a path metric (identity row not symmetric) and a metric whose identity
    # row is a valid length function but whose other rows are not its translate
    for d, match in ((["012", "101", "210"], "symmetric"),
                     (["011", "102", "120"], "left-invariant")):
        record = dict(group_to_json(group), pseudometric=[list(row) for row in d])
        with pytest.raises(DomainError, match=match):
            pseudometric_from_json(record)


def test_kernel_discrete_is_trivial():
    group = cyclic_group(4)
    assert kernel_subgroup(discrete(group)) == (group.identity,)


def test_kernel_zero_is_everything():
    group = cyclic_group(4)
    assert kernel_subgroup(zero_pm(group)) == tuple(range(4))


def test_kernel_s3_transposition_subgroup():
    s3 = symmetric_group(3)
    h = (s3.index("012"), s3.index("021"))
    pm = coset_indicator_pm(s3, h)
    assert kernel_subgroup(pm) == h


def test_quotient_discrete_is_regular():
    group = cyclic_group(4)
    space, action = quotient_space(discrete(group))
    assert space.n == 4
    assert space.points == ("0H", "1H", "2H", "3H")
    assert all(
        space.dist[i][j] == (0 if i == j else 1)
        for i in range(4)
        for j in range(4)
    )
    assert action.group is group


def test_quotient_zero_is_a_point():
    space, _ = quotient_space(zero_pm(cyclic_group(5)))
    assert space.n == 1


def test_quotient_s3_by_index_two_kernel():
    s3 = symmetric_group(3)
    h = (s3.index("012"), s3.index("021"))
    space, action = quotient_space(coset_indicator_pm(s3, h))
    assert space.n == 3
    assert all(
        space.dist[i][j] == (0 if i == j else 1)
        for i in range(3)
        for j in range(3)
    )
    # the translation action permutes the three cosets transitively
    reached = {iso.apply(0) for iso in action.images}
    assert reached == {0, 1, 2}


def test_quotient_checks_each_image_once_as_groupaction_composes_it(isometry_checks):
    """C6 by the word metric: one check per product that ``GroupAction``
    composes, |G|^2 = 36, and none when the images are built."""
    quotient_space(cycle_pm(6))
    assert len(isometry_checks) == 6 ** 2


def test_a_kernel_holding_a_moved_element_breaks_coset_constancy(monkeypatch):
    monkeypatch.setattr(quotients, "kernel_subgroup", lambda pm: (0, 2))
    with pytest.raises(
        InternalCheckError,
        match=r"^quotient metric not constant on coset pair \(0H, 0H\)$",
    ):
        quotient_space(cycle_pm(4))  # delta(2) = 2


def test_a_kernel_missing_a_null_element_leaves_no_metric_space(monkeypatch):
    pm = InvariantPseudometric(cyclic_group(4), tuple(map(F, (0, 1, 0, 1))))
    monkeypatch.setattr(quotients, "kernel_subgroup", lambda pm: (0,))
    with pytest.raises(InternalCheckError, match="^quotient is not a metric space: "):
        quotient_space(pm)


def test_a_translation_action_that_moves_nothing_is_not_transitive(monkeypatch):
    def identity(space, perm):
        return _unchecked(space, tuple(range(space.n)))

    monkeypatch.setattr(quotients, "_unchecked", identity)
    with pytest.raises(
        InternalCheckError, match="^left translation action is not transitive$"
    ):
        quotient_space(cycle_pm(4))


def test_a_stretched_pullback_fails_to_match_the_orbit(monkeypatch):
    pullback = quotients.pullback_pseudometric

    def stretched(action, xi):
        pm = pullback(action, xi)
        return InvariantPseudometric(pm.group, tuple(2 * v for v in pm.delta))

    monkeypatch.setattr(quotients, "pullback_pseudometric", stretched)
    with pytest.raises(
        InternalCheckError, match="^quotient and orbit fail to match isometrically$"
    ):
        orbit_isomorphism(rotation_action(6), "0")


def test_a_group_with_wrong_inverses_fails_the_gap_bound(monkeypatch):
    pm = cycle_pm(4)
    # phi = {1} symmetrizes to {0, 1}, which covers {0, 1, 2} with V = {0};
    # the witness 3 is then read at distance delta(0 + 3 + 1) = 0 from phi
    monkeypatch.setattr(FiniteGroup, "inv", lambda self, g: self.identity)
    with pytest.raises(
        InternalCheckError, match="^exhibited element fails the quotient gap bound$"
    ):
        moving_certificate(pm, F(1), [["1"]])


def test_a_search_whose_pairs_bring_nothing_finds_no_cover(monkeypatch):
    # with only the diagonals c V c = {2c} of C4, no F covers 1 and 3
    monkeypatch.setattr(quotients, "or_", lambda gain, new: gain)
    with pytest.raises(InternalCheckError, match="^no cover found$"):
        min_fvf_cover(cyclic_group(4), [0])


def test_quotient_cycle_metric():
    space, _ = quotient_space(cycle_pm(6))
    assert space.n == 6
    assert space.d_label("0H", "3H") == 3
    assert space.d_label("1H", "5H") == 2


def test_pullback_of_rotation_action_is_cycle_metric():
    action = rotation_action(6)
    pm = pullback_pseudometric(action, "0")
    assert pm.delta == cycle_pm(6).delta


def test_pullback_then_quotient_matches_orbit():
    action = rotation_action(6)
    mapping = orbit_isomorphism(action, "0")
    assert sorted(mapping.values()) == sorted(action.space.points)


def test_orbit_isomorphism_random():
    rng = Random(53)
    for _ in range(25):
        action = rand_action(rng)
        xi = rng.choice(action.space.points)
        mapping = orbit_isomorphism(action, xi)
        assert len(mapping) == len(set(mapping.values()))


def reference_orbit_isomorphism(action, xi):
    """The orbit map read through the quotient space and its action: each
    coset's element is parsed back from its label."""
    qspace, _ = quotient_space(pullback_pseudometric(action, xi))
    g = action.group
    i = action.space.index(xi)
    return {
        label: action.space.points[action.images[g.index(label[:-1])].apply(i)]
        for label in qspace.points
    }


def test_orbit_isomorphism_matches_the_label_route():
    rng = Random(239)
    for _ in range(40):
        action = rand_action(rng)
        for xi in action.space.points:
            got = orbit_isomorphism(action, xi)
            want = reference_orbit_isomorphism(action, xi)
            assert got == want and list(got) == list(want)


def test_orbit_isomorphism_builds_no_group_action(monkeypatch):
    action = rand_action(Random(241), max_points=6)
    built = []
    check = GroupAction.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GroupAction, "__post_init__", counted)
    quotient_space(pullback_pseudometric(action, action.space.points[0]))
    assert len(built) == 1  # the counter sees the quotient's own action
    built.clear()
    for xi in action.space.points:
        orbit_isomorphism(action, xi)
    assert built == []


@pytest.mark.parametrize("max_order", [12, 24])
def test_random_pseudometrics_mostly_have_a_proper_kernel(max_order):
    rng = Random(4242 + max_order)
    one_point = proper = 0
    for _ in range(400):
        group = rand_group(rng, max_order=max_order)
        size = len(kernel_subgroup(rand_invariant_pseudometric(rng, group)))
        one_point += size == group.order
        proper += 1 < size < group.order
    assert one_point <= 400 / 3
    assert proper >= 400 / 2


def fraction_closure_pseudometric(rng, group):
    """``rand_invariant_pseudometric`` as it was with its ``Fraction``
    closure over all products, kept as the oracle for the integer one."""
    n = group.order
    e = group.identity
    weight = [F(0) if i == e else rand_fraction(rng, 1, 6, max_den=2) for i in range(n)]
    for i in range(n):
        j = group.inv(i)
        low = min(weight[i], weight[j])
        weight[i] = weight[j] = low
    if n > 1:
        z = rng.choice([i for i in range(n) if i != e])
        weight[z] = weight[group.inv(z)] = F(0)
    delta = list(weight)
    delta[e] = F(0)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                c = group.mul(a, b)
                via = delta[a] + delta[b]
                if via < delta[c]:
                    delta[c] = via
                    changed = True
    return InvariantPseudometric(group, tuple(delta))


def test_integer_closure_matches_the_fraction_closure():
    """Same length function and same RNG state afterwards."""
    driver = Random(77)
    for draw in range(200):
        group = rand_group(driver, max_order=24 if draw % 2 else 12)
        seed = driver.getrandbits(64)
        rng, ref = Random(seed), Random(seed)
        pm = rand_invariant_pseudometric(rng, group)
        assert pm == fraction_closure_pseudometric(ref, group), seed
        assert rng.getstate() == ref.getstate()
        assert all(type(v) is Fraction for v in pm.delta)


def min_map_pseudometric(rng, group):
    """``rand_invariant_pseudometric`` as it was with one builtin ``min``
    per entry in its relaxation, kept as the oracle for the comprehension."""
    n = group.order
    e = group.identity
    weight = [F(0) if i == e else rand_fraction(rng, 1, 6, max_den=2) for i in range(n)]
    for i in range(n):
        j = group.inv(i)
        low = min(weight[i], weight[j])
        weight[i] = weight[j] = low
    if n > 1:
        z = rng.choice([i for i in range(n) if i != e])
        weight[z] = weight[group.inv(z)] = F(0)
    den, delta = scale(weight, "weights")
    shifts = [group.table[group.inv(a)] for a in range(n)]
    settled = None
    while delta != settled:
        settled = delta
        for a, shift in enumerate(shifts):
            via = map(add, repeat(delta[a]), map(delta.__getitem__, shift))
            delta = tuple(map(min, delta, via))
    return InvariantPseudometric(group, tuple(map(Fraction, delta, repeat(den))))


def test_relaxation_comprehension_matches_the_min_map():
    driver = Random(78)
    for draw in range(200):
        group = rand_group(driver, max_order=24 if draw % 2 else 12)
        seed = driver.getrandbits(64)
        rng, ref = Random(seed), Random(seed)
        assert rand_invariant_pseudometric(rng, group) == min_map_pseudometric(ref, group), seed
        assert rng.getstate() == ref.getstate()


def test_quotient_random_pseudometrics():
    rng = Random(59)
    for _ in range(40):
        group = rand_group(rng)
        pm = rand_invariant_pseudometric(rng, group)
        space, action = quotient_space(pm)
        assert 1 <= space.n <= group.order
        assert group.order % space.n == 0


def test_fvf_whole_group_needs_one():
    group = cyclic_group(7)
    size, f = min_fvf_cover(group, list(range(7)))
    assert size == 1 and f == (group.identity,)


def test_fvf_z5_with_small_ball():
    group = cyclic_group(5)
    v = [0, 1, 4]
    size, f = min_fvf_cover(group, v)
    assert size == 2
    fvf = {
        group.mul(group.mul(a, b), c) for a in f for b in v for c in f
    }
    assert fvf == set(range(5))


def test_fvf_z4_identity_only():
    group = cyclic_group(4)
    size, f = min_fvf_cover(group, [group.identity])
    assert size == 3
    fvf = {group.mul(a, c) for a in f for c in f}
    assert fvf == set(range(4))


def test_fvf_empty_v_rejected():
    with pytest.raises(DomainError, match="^V must be non-empty$"):
        min_fvf_cover(cyclic_group(3), [])


def test_fvf_monotone_random():
    rng = Random(61)
    for _ in range(30):
        group = rand_group(rng, max_order=12)
        n = group.order
        small = sorted(rng.sample(range(n), rng.randint(1, n)))
        extra = sorted(set(small) | {rng.randrange(n)})
        ks, _ = min_fvf_cover(group, small)
        kl, _ = min_fvf_cover(group, extra)
        assert kl <= ks


def reference_min_fvf_cover(group, v):
    """The exhaustive search: every subset in size order, then
    lexicographic, with F V F rebuilt as a set for each."""
    n = group.order
    vset = sorted(set(v))
    for size in range(1, n + 1):
        for f in combinations(range(n), size):
            fv = {group.mul(a, b) for a in f for b in vset}
            if len({group.mul(a, b) for a in fv for b in f}) == n:
                return size, f
    raise AssertionError("no cover found")


@pytest.mark.parametrize("n", range(5, 13))
def test_fvf_matches_the_exhaustive_search_on_dihedral_stabilizers(n):
    group = dihedral_group(n)
    for x in range(n):
        # r_k maps i to i + k and s_k maps i to k - i, so the stabilizer of
        # the vertex x is {r0, s_2x}
        ball = [group.index("r0"), group.index(f"s{2 * x % n}")]
        assert min_fvf_cover(group, ball) == reference_min_fvf_cover(group, ball)


def test_fvf_matches_the_exhaustive_search_on_c20():
    group = cyclic_group(20)
    v = [group.identity]
    assert min_fvf_cover(group, v) == reference_min_fvf_cover(group, v)


def test_fvf_matches_the_exhaustive_search_on_random_groups():
    rng = Random(1013)
    sizes = set()
    for draw in range(60):
        group = rand_group(rng, 24)
        n = group.order
        # every other V is small, so the search goes several sizes deep
        k = rng.randint(1, n) if draw % 2 else min(n, rng.randint(2, 4))
        v = rng.sample(range(n), k)
        got = min_fvf_cover(group, v)
        assert got == reference_min_fvf_cover(group, v), (group.elements, v)
        sizes.add(got[0])
    assert len(sizes) >= 4


def test_fvf_c24_identity_finishes_within_the_default_budget():
    group = cyclic_group(24)
    assert min_fvf_cover(group, [group.identity]) == (8, (0, 1, 2, 3, 4, 9, 13, 19))


def test_fvf_budget_is_enforced():
    group = cyclic_group(36)
    with pytest.raises(BudgetExceededError, match=(
        r"^FVF search on \|G\| = 36 with \|V\| = 1 exceeded its budget of 500 "
        r"subsets at size 8 \(501 visited\)$"
    )):
        min_fvf_cover(group, [group.identity], budget=500)
    with pytest.raises(DomainError, match="budget must be positive"):
        min_fvf_cover(group, [group.identity], budget=0)


def test_fvf_budget_of_one_admits_a_one_subset_search():
    group = cyclic_group(3)
    assert min_fvf_cover(group, [0, 1, 2], budget=1) == (1, (0,))


@pytest.mark.parametrize("v", [[3], [0, 3], [-1]])
def test_fvf_v_outside_the_group_is_a_domain_error(v):
    with pytest.raises(DomainError, match="^V contains an invalid element index$"):
        min_fvf_cover(cyclic_group(3), v)


@pytest.mark.parametrize("order, budget, size, visited", [
    # depth 0, 1, 2 visit one subset each; the leaf that finds (0, 1, 2, 5)
    # counts its 3 subsets
    (8, 5, 4, 6),
    # depth 0 to 3 visit one subset each; the first leaf finds no cover and
    # counts all 8 of its subsets
    (12, 4, 5, 12),
])
def test_fvf_refusal_counts_each_visited_subset(order, budget, size, visited):
    group = cyclic_group(order)
    with pytest.raises(BudgetExceededError, match=(
        rf"^FVF search on \|G\| = {order} with \|V\| = 1 exceeded its budget of "
        rf"{budget} subsets at size {size} \({visited} visited\)$"
    )):
        min_fvf_cover(group, [group.identity], budget=budget)


def test_fvf_cut_bounds_the_whole_search():
    """A branch is cut when the pairs still to come cannot reach |G|: with
    that bound the search of C6 with V = {e} visits 35 subsets in all, and
    a looser bound visits more."""
    group = cyclic_group(6)
    assert min_fvf_cover(group, [group.identity], budget=35) == (4, (0, 1, 2, 3))
    with pytest.raises(BudgetExceededError, match=r"at size 4 \(35 visited\)$"):
        min_fvf_cover(group, [group.identity], budget=34)


def test_fvf_c36_identity_fails_fast_under_the_default_budget():
    group = cyclic_group(36)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"\|G\| = 36"):
        min_fvf_cover(group, [group.identity])
    # the exhaustive search ran for minutes without an answer
    assert time.perf_counter() - start < 60


def test_fvf_budget_through_the_cli():
    doc = json.dumps({"group": group_to_json(cyclic_group(36)), "V": ["0"]})
    for extra in ([], ["--budget", "500"]):
        proc = subprocess.run(
            [sys.executable, "-m", "exactmetric.cli", "fvf", *extra],
            input=doc, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 1, proc.stderr
        err = json.loads(proc.stdout)["error"]
        assert err["kind"] == "BudgetExceededError"
        assert "|G| = 36 with |V| = 1" in err["message"]
    assert "budget of 500 subsets" in err["message"]


def test_moving_certificate_z12():
    pm = cycle_pm(12)
    group = pm.group
    entries = moving_certificate(pm, F(3, 2), [["0", "1"]])
    entry = entries[0]
    assert entry.witness is not None
    assert entry.gap is not None and entry.gap >= F(3, 2)
    # the whole group can never be moved off itself
    entries = moving_certificate(pm, F(3, 2), [group.elements])
    assert entries[0].witness is None and entries[0].gap is None


def test_moving_certificate_radius_must_be_positive():
    with pytest.raises(DomainError):
        moving_certificate(cycle_pm(5), F(0), [["0"]])


def test_moving_certificate_refuses_a_float_radius():
    with pytest.raises(DomainError, match="ball radius must be exact rationals"):
        moving_certificate(cycle_pm(5), 0.5, [["0"]])


def test_length_function_is_kept_scaled_and_laid_out_as_delta_of_a_inverse_b():
    group = dihedral_group(4)
    pm = rand_invariant_pseudometric(Random(7), group)
    den, ints = pm.scaled
    assert [F(v, den) for v in ints] == list(pm.delta)
    laid_out, scaled = pm.layout(pm.delta), pm.layout(ints)
    for a in range(group.order):
        for b in range(group.order):
            want = pm.delta[group.mul(group.inv(a), b)]
            assert laid_out[a][b] == want and scaled[a][b] == want * den


def test_a_length_function_given_a_list_is_stored_as_a_tuple():
    pm = InvariantPseudometric(cyclic_group(2), [F(0), F(1)])
    assert pm.delta == (F(0), F(1))
    assert hash(pm) == hash(InvariantPseudometric(cyclic_group(2), (F(0), F(1))))


def test_moving_certificate_gap_verified_random():
    rng = Random(67)
    for _ in range(20):
        pm = rand_invariant_pseudometric(rng, rand_group(rng, max_order=12))
        group = pm.group
        positive = sorted({v for v in pm.delta if v > 0})
        if not positive:
            continue
        radius = positive[0]
        k = rng.randint(1, min(3, group.order))
        phi = [group.elements[i] for i in rng.sample(range(group.order), k)]
        for entry in moving_certificate(pm, radius, [phi]):
            if entry.gap is not None:
                assert entry.gap >= radius


def test_moving_certificate_rejects_an_empty_phi():
    pm = cycle_pm(6)
    with pytest.raises(DomainError, match="non-empty"):
        moving_certificate(pm, F(1), [["1"], []])


def reference_moving_certificate(pm, radius, phis):
    """The certificate read on the quotient space built by ``quotient_space``:
    each coset's element is parsed back from its label, each element's coset
    is searched for, and the gap is ``set_distance`` on coset labels."""
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    g = pm.group
    ball = [i for i in range(g.order) if pm.delta[i] < radius]
    qspace, _ = quotient_space(pm)
    reps = [g.index(label[:-1]) for label in qspace.points]
    elem_coset = [
        next(j for j, r in enumerate(reps) if pm.delta[g.mul(g.inv(i), r)] == 0)
        for i in range(g.order)
    ]
    entries = []
    for phi in phis:
        idx = sorted({g.index(x) for x in phi})
        sym = sorted(set(idx) | {g.inv(i) for i in idx})
        covered = set()
        for a in sym:
            for vv in ball:
                av = g.mul(a, vv)
                for b in sym:
                    covered.add(g.mul(av, b))
        outside = [i for i in range(g.order) if i not in covered]
        phi_labels = tuple(g.elements[i] for i in idx)
        if not outside:
            entries.append((phi_labels, None, None))
            continue
        witness = outside[0]
        phi_cosets = [qspace.points[elem_coset[i]] for i in sym]
        moved = [qspace.points[elem_coset[g.mul(witness, i)]] for i in sym]
        gap = set_distance(qspace, phi_cosets, moved)
        if gap < radius:
            raise DomainError("exhibited element fails the quotient gap bound")
        entries.append((phi_labels, g.elements[witness], gap))
    return entries


def test_moving_certificate_matches_the_quotient_space_reference():
    rng = Random(211)
    seen = set()
    for _ in range(60):
        group = rand_group(rng, max_order=24)
        pm = rand_invariant_pseudometric(rng, group)
        n = group.order
        elems = group.elements
        phis = [list(elems)]
        for _ in range(3):
            # duplicates kept
            phis.append([elems[rng.randrange(n)] for _ in range(rng.randint(1, 4))])
        closed = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        phis.append([elems[i] for i in sorted(closed | {group.inv(i) for i in closed})])
        values = sorted(set(pm.delta))
        radii = [v for v in values if v > 0] + [values[-1] + 1, F(1, 3)]
        for radius in radii:
            got = [
                (e.phi, e.witness, e.gap)
                for e in moving_certificate(pm, radius, phis)
            ]
            assert got == reference_moving_certificate(pm, radius, phis)
            seen |= {entry[1] is None for entry in got}
    # both a covered phi and an exhibited witness occur
    assert seen == {True, False}


def reference_triangle_failure(group, delta):
    """The first pair (a, b) with delta(ab) > delta(a) + delta(b), compared
    as Fractions."""
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            if delta[ab] > delta[a] + delta[b]:
                return (
                    "pseudometric triangle inequality fails at "
                    f"({group.elements[a]}, {group.elements[b]})"
                )
    return None


def test_length_triangle_check_matches_the_fraction_loop():
    rng = Random(223)
    outcomes = set()
    for _ in range(150):
        group = rand_group(rng, max_order=16)
        delta = list(rand_invariant_pseudometric(rng, group).delta)
        # plant a violation: move one symmetric pair, keeping delta(e) = 0
        # and delta(g^-1) = delta(g)
        for _ in range(rng.randint(0, 2)):
            g = rng.randrange(group.order)
            if g != group.identity:
                delta[g] = delta[group.inv(g)] = rand_fraction(rng, 0, 8, max_den=3)
        expected = reference_triangle_failure(group, delta)
        outcomes.add(expected is None)
        if expected is None:
            InvariantPseudometric(group, tuple(delta))
        else:
            with pytest.raises(DomainError) as info:
                InvariantPseudometric(group, tuple(delta))
            assert str(info.value) == expected
    assert outcomes == {True, False}


def test_non_exact_lengths_are_rejected():
    with pytest.raises(DomainError, match="exact rationals"):
        InvariantPseudometric(cyclic_group(3), (F(0), 0.5, 0.5))


@pytest.mark.parametrize("delta", [5, None, F(1)])
def test_a_length_function_that_is_not_iterable_does_not_match_the_order(delta):
    with pytest.raises(
        StructuralError, match="length function size does not match group order"
    ):
        InvariantPseudometric(cyclic_group(2), delta)
