from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from exactmetric import (
    DomainError,
    FiniteGroup,
    FiniteMetricSpace,
    GroupAction,
    Isometry,
    StructuralError,
    action_from_closure,
    cyclic_group,
    enumerate_isometries,
    moving_gap,
    orbit,
    orbit_diameter,
    set_distance,
    translation_gap,
)
from exactmetric.randgen import (
    cycle_space,
    rand_action,
    rand_metric_space,
    rotation_action,
)

from conftest import space_from_rows

F = Fraction


def brute_force_isometries(space):
    out = []
    n = space.n
    for perm in permutations(range(n)):
        if all(
            space.dist[perm[i]][perm[j]] == space.dist[i][j]
            for i in range(n)
            for j in range(n)
        ):
            out.append(perm)
    return out


@pytest.mark.parametrize("labels", [("a", "a"), (1, True)])
def test_duplicate_group_labels_are_structural(labels):
    # 1 == True, so a label map would merge them just as a set does
    with pytest.raises(StructuralError, match="duplicate"):
        FiniteGroup(labels, ((0, 1), (1, 0)))


@pytest.mark.parametrize("label", ["5", ["0"]])
def test_group_index_of_unknown_or_unhashable_label_is_a_domain_error(label):
    z5 = cyclic_group(5)
    assert z5.index("3") == 3
    with pytest.raises(DomainError, match="unknown group element"):
        z5.index(label)


def test_rigid_space_has_only_identity(line013):
    isos = enumerate_isometries(line013)
    assert [g.perm for g in isos] == [(0, 1, 2)]


def test_equilateral_triangle_has_six():
    sp = space_from_rows(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    isos = enumerate_isometries(sp)
    assert len(isos) == 6
    assert [g.perm for g in isos] == brute_force_isometries(sp)


def test_c6_has_twelve():
    c6 = cycle_space(6)
    isos = enumerate_isometries(c6)
    assert len(isos) == 12
    assert [g.perm for g in isos] == brute_force_isometries(c6)


def test_enumeration_matches_brute_force_random():
    rng = Random(17)
    palette = [F(1), F(2)]
    for _ in range(20):
        sp = rand_metric_space(rng, rng.randint(2, 5), palette=palette)
        assert [g.perm for g in enumerate_isometries(sp)] == \
            brute_force_isometries(sp)


def fraction_isometries(space):
    """``enumerate_isometries`` as it was, comparing ``Fraction`` rows and
    building each result through the verifying constructor; kept as the
    oracle for the int search."""
    n = space.n
    d = space.dist
    profiles = [tuple(sorted(d[i])) for i in range(n)]
    out, perm, used = [], [], [False] * n

    def backtrack(k):
        if k == n:
            out.append(Isometry(space, tuple(perm)))
            return
        for cand in range(n):
            if used[cand] or profiles[cand] != profiles[k]:
                continue
            if any(d[perm[j]][cand] != d[j][k] for j in range(k)):
                continue
            used[cand] = True
            perm.append(cand)
            backtrack(k + 1)
            perm.pop()
            used[cand] = False

    backtrack(0)
    return out


def test_int_search_matches_the_fraction_search():
    rng = Random(23)
    palette = [F(1, 2), F(1), F(3, 2)]
    for trial in range(90):
        kind = trial % 3
        if kind == 0:
            space = rand_metric_space(rng, rng.randint(1, 7), palette=palette)
        elif kind == 1:
            space = cycle_space(rng.randint(1, 9))
        else:  # discrete, with a random unit: every permutation is one
            unit = rng.choice([F(1), F(2, 3), F(5, 2)])
            space = rand_metric_space(rng, rng.randint(1, 5), palette=[unit])
        isos = enumerate_isometries(space)
        assert isos == fraction_isometries(space)
        assert [Isometry(space, g.perm) for g in isos] == isos
        assert all(g.space is space for g in isos)
    # a hand-built space, whose int form is computed on first use
    discrete = space_from_rows(
        range(6), [[int(i != j) for j in range(6)] for i in range(6)]
    )
    isos = enumerate_isometries(discrete)
    assert len(isos) == 720 and isos == fraction_isometries(discrete)


def test_isometries_form_a_group():
    c5 = cycle_space(5)
    isos = enumerate_isometries(c5)
    perms = {g.perm for g in isos}
    for g in isos:
        assert g.inverse().perm in perms
        for h in isos:
            assert g.compose(h).perm in perms


def test_pseudometric_rejected():
    sp = space_from_rows(["a", "b"], [[0, 0], [0, 0]], pseudo=True)
    with pytest.raises(DomainError):
        enumerate_isometries(sp)


def test_non_isometry_rejected(line013):
    with pytest.raises(DomainError):
        Isometry(line013, (1, 0, 2))
    with pytest.raises(DomainError):
        Isometry(line013, (0, 0, 2))


def test_homomorphism_law_enforced():
    c4 = cycle_space(4)
    rot = Isometry(c4, (1, 2, 3, 0))
    group = cyclic_group(4)
    bad = (
        Isometry.identity(c4), rot, rot.compose(rot), rot,
    )
    with pytest.raises(DomainError):
        GroupAction(group, c4, bad)


def test_images_on_another_space_rejected():
    action = rotation_action(4)
    discrete4 = space_from_rows(
        ["0", "1", "2", "3"],
        [[int(i != j) for j in range(4)] for i in range(4)],
    )
    with pytest.raises(DomainError, match="action's space"):
        GroupAction(action.group, discrete4, action.images)
    # an equal space object is the same space
    GroupAction(action.group, cycle_space(4), action.images)


def test_moving_gap_whole_space_is_zero():
    action = rotation_action(6)
    gap, _ = moving_gap(action, list(action.space.points))
    assert gap == 0


def test_moving_gap_c6_singleton():
    action = rotation_action(6)
    gap, witness = moving_gap(action, ["0"])
    assert gap == 3
    assert action.images[action.group.index(witness)].apply_label("0") == "3"


def test_moving_gap_c6_pair():
    action = rotation_action(6)
    gap, witness = moving_gap(action, ["0", "1"])
    assert gap == 2
    assert witness == "g3"


def test_orbit_trivial_action(line013):
    action = action_from_closure(line013, [])
    assert orbit(action, "1") == ["1"]
    assert orbit_diameter(action, "1") == 0


def test_orbit_c6():
    action = rotation_action(6)
    assert orbit(action, "0") == list(action.space.points)
    assert orbit_diameter(action, "0") == 3


def test_orbit_size_divides_group_order():
    c6 = cycle_space(6)
    action = action_from_closure(c6, enumerate_isometries(c6))
    for x in c6.points:
        assert action.group.order % len(orbit(action, x)) == 0


def test_epsilon_net_bounds_gap():
    # an epsilon-net of the whole orbit cannot be moved by epsilon or more
    action = rotation_action(6)
    net = ["0", "2", "4"]  # every point lies within distance 1 < 3/2
    gap, _ = moving_gap(action, net)
    assert gap < F(3, 2)


# A loop of order 5: 0 is an identity and every row holds 0, yet
# (gh)k != g(hk) at 36 of the 125 triples.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("rows", [tuple, list])
def test_non_associative_table_is_a_domain_error(rows):
    with pytest.raises(DomainError, match="^multiplication table is not associative$"):
        FiniteGroup(tuple("abcde"), tuple(rows(r) for r in LOOP5))


def test_table_rows_may_be_lists():
    c2 = FiniteGroup(("a", "b"), [[0, 1], [1, 0]])
    assert c2.identity == 0 and c2.inv(1) == 1


def closure_by_composition(space, generators):
    """``action_from_closure`` as written before it closed permutation
    tuples, kept as the oracle: a verified ``Isometry`` for every product
    tried, and the table read off inline."""
    ident = Isometry.identity(space)
    seen = {ident.perm: ident}
    frontier = [ident]
    for gen in generators:
        if gen.perm not in seen:
            seen[gen.perm] = gen
            frontier.append(gen)
    while frontier:
        nxt = []
        for a in list(seen.values()):
            for b in frontier:
                c = a.compose(b)
                if c.perm not in seen:
                    seen[c.perm] = c
                    nxt.append(c)
        frontier = nxt
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    labels = tuple(f"g{i}" for i in range(len(perms)))
    table = tuple(
        tuple(index[tuple(p[q[k]] for k in range(space.n))] for q in perms)
        for p in perms
    )
    group = FiniteGroup(labels, table)
    images = tuple(seen[p] for p in perms)
    return GroupAction(group, space, images)


def test_closure_matches_the_composition_oracle():
    rng = Random(5)
    palette = [F(1), F(2), F(3)]
    for trial in range(120):
        kind = trial % 3
        if kind == 0:
            space = cycle_space(rng.randint(1, 8))
        elif kind == 1:  # discrete: every permutation is an isometry
            space = rand_metric_space(rng, rng.randint(1, 4), palette=[F(1)])
        else:
            space = rand_metric_space(rng, rng.randint(2, 6), palette=palette)
        isos = enumerate_isometries(space)
        gens = [rng.choice(isos) for _ in range(rng.randint(0, 3))]
        if trial % 4 == 0:
            gens.append(Isometry.identity(space))
        if gens and trial % 5 == 0:
            gens.append(gens[0])
        # generators on an equal but distinct space object are accepted
        twin = FiniteMetricSpace(space.points, space.dist, space.pseudo)
        if trial % 6 == 0:
            gens = [Isometry(twin, g.perm) for g in gens]
        assert action_from_closure(space, gens) == closure_by_composition(space, gens)


def test_closure_rejects_a_generator_on_another_space():
    space = cycle_space(5)
    other = space_from_rows([str(i) for i in range(5)],
                            [[int(i != j) for j in range(5)] for i in range(5)])
    foreign = Isometry(other, (1, 0, 2, 3, 4))
    for closure in (action_from_closure, closure_by_composition):
        with pytest.raises(DomainError, match="^cannot compose isometries of different spaces$"):
            closure(space, [foreign])
    # checked up front, so a foreign identity is no longer skipped silently
    with pytest.raises(DomainError, match="^cannot compose isometries of different spaces$"):
        action_from_closure(space, [Isometry.identity(other)])


def label_translate(action, g, labels):
    """The image of a list of point labels under element g."""
    iso = action.images[g]
    return [iso.apply_label(x) for x in labels]


def reference_moving_gap(action, f):
    """The gap read through labels: ``set_distance`` between f and each
    translate of f, keeping the earliest maximum."""
    if not f:
        raise DomainError("moving_gap requires a non-empty set")
    best, witness = None, action.group.identity
    for g in range(action.group.order):
        gap = set_distance(action.space, f, label_translate(action, g, f))
        if best is None or gap > best:
            best, witness = gap, g
    return best, action.group.elements[witness]


def test_moving_gap_matches_the_label_reference():
    rng = Random(229)
    ties = 0
    for _ in range(80):
        action = rand_action(rng, max_points=8)
        points = action.space.points
        for _ in range(4):
            # duplicates kept
            f = [rng.choice(points) for _ in range(rng.randint(1, 4))]
            got = moving_gap(action, f)
            assert got == reference_moving_gap(action, f)
            gaps = [
                set_distance(action.space, f, label_translate(action, g, f))
                for g in range(action.group.order)
            ]
            ties += gaps.count(got[0]) > 1
    assert ties > 0


def test_translation_gap_matches_the_label_translate():
    rng = Random(233)
    for _ in range(60):
        action = rand_action(rng, max_points=8)
        points = action.space.points
        f = [rng.choice(points) for _ in range(rng.randint(1, 4))]
        idx = [action.space.index(x) for x in f]
        for g in range(action.group.order):
            assert translation_gap(action, idx, g) == set_distance(
                action.space, f, label_translate(action, g, f)
            )


def test_translation_gap_rejects_an_empty_set():
    action = rotation_action(4)
    with pytest.raises(DomainError, match="non-empty"):
        translation_gap(action, [], 1)
