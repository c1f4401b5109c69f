from fractions import Fraction
from random import Random

import pytest

from exactmetric import (
    DomainError,
    InvariantPseudometric,
    StructuralError,
    cyclic_group,
    kernel_subgroup,
    min_fvf_cover,
    moving_certificate,
    orbit_isomorphism,
    pullback_pseudometric,
    quotient_space,
    symmetric_group,
)
from exactmetric.jsonio import group_to_json, pseudometric_from_json
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
    with pytest.raises(DomainError):
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
