import json
from fractions import Fraction
from random import Random

import pytest

from exactmetric import (
    DomainError,
    FiniteMetricSpace,
    InternalCheckError,
    Isometry,
    LipschitzWitness,
    Molecule,
    PointedSpace,
    action_from_closure,
    aell_norm_dual,
    aell_norm_primal,
    affine_extend,
    freespace,
    enumerate_isometries,
    fixed_point,
    moving_lower_bound,
    norm_distance,
    rebase,
)
from exactmetric.metric import scale
from exactmetric.randgen import (
    cycle_space,
    rand_coeffs,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)

from conftest import FIXTURES, fixture_generator, space_from_rows

F = Fraction


def test_point_molecule_norm_is_basepoint_distance(line013_pointed):
    m = Molecule.point(line013_pointed, "3")
    assert aell_norm_dual(m)[0] == 3
    assert aell_norm_primal(m)[0] == 3


def test_solver_answers_match_the_recorded_fixture():
    """Plans and witnesses, not only norms: each solver's tie-breaks among
    optimal answers stay as recorded in ``fixtures/solver_answers.json``."""
    generate = fixture_generator()
    recorded = json.loads((FIXTURES / "solver_answers.json").read_text())
    cases = generate.solver_cases()
    assert len(cases) == len(recorded) == 300
    for m, want in zip(cases, recorded):
        assert generate.solver_answer(m) == want, m


def test_point_difference_norm_is_distance(line013_pointed):
    m = Molecule.point(line013_pointed, "1") - Molecule.point(line013_pointed, "3")
    assert aell_norm_dual(m)[0] == 2


def test_line_two_a_minus_b(line013_pointed):
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    dual, witness = aell_norm_dual(m)
    primal, plan = aell_norm_primal(m)
    assert dual == 3 and primal == 3
    assert witness.pair(m) == 3


def test_primal_plan_point_difference(line013_pointed):
    m = Molecule.point(line013_pointed, "1") - Molecule.point(line013_pointed, "3")
    cost, plan = aell_norm_primal(m)
    assert cost == 2
    assert plan == (("1", "3", F(1)),)


def test_primal_sum_ships_from_basepoint(line013_pointed):
    m = Molecule.make(line013_pointed, {"1": F(1), "3": F(1)})
    cost, _ = aell_norm_primal(m)
    assert cost == 4  # one unit each from the basepoint


def test_float_distance_is_a_domain_error():
    # no float reaches either solver, nor comes back as the norm
    space = FiniteMetricSpace(("a", "b"), ((F(0), 0.5), (0.5, F(0))))
    m = Molecule.point(PointedSpace(space, 0), "b")
    for solve in (aell_norm_primal, aell_norm_dual):
        with pytest.raises(DomainError, match="exact rationals"):
            solve(m)


def test_zero_molecule(line013_pointed):
    z = Molecule.zero(line013_pointed)
    assert aell_norm_dual(z)[0] == 0
    assert aell_norm_primal(z) == (F(0), ())


def test_norm_distance_examples(line013_pointed):
    a = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    assert norm_distance(a, a) == 0
    assert norm_distance(a, Molecule.zero(line013_pointed)) == 3


def test_norm_distance_space_mismatch(line013_pointed):
    other = PointedSpace(line013_pointed.space, 1)
    with pytest.raises(DomainError, match="over different pointed spaces"):
        norm_distance(
            Molecule.zero(line013_pointed), Molecule.zero(other)
        )


def test_witness_validation(line013_pointed):
    with pytest.raises(DomainError):
        LipschitzWitness(line013_pointed, {"0": F(1), "1": F(0), "3": F(0)})
    with pytest.raises(DomainError):
        LipschitzWitness(line013_pointed, {"0": F(0), "1": F(2), "3": F(0)})


def test_float_coefficient_is_a_domain_error(line013_pointed):
    with pytest.raises(DomainError, match="exact rationals"):
        Molecule.make(line013_pointed, {"1": 0.1})


def test_float_witness_value_is_a_domain_error(line013_pointed):
    with pytest.raises(DomainError, match="exact rationals"):
        LipschitzWitness(line013_pointed, {"0": F(0), "1": 0.5, "3": F(1)})


def test_affine_extend_identity(line013_pointed):
    m = Molecule.make(line013_pointed, {"1": F(2)})
    g = Isometry.identity(line013_pointed.space)
    assert affine_extend(g, m) == m


def test_affine_extend_basepoint_fixing_is_linear():
    sp = space_from_rows(["*", "a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pointed = PointedSpace(sp, 0)
    g = Isometry(sp, (0, 2, 1))  # swap a, b; fixes *
    m = Molecule.make(pointed, {"a": F(3, 2)})
    out = affine_extend(g, m)
    assert out.as_dict() == {"b": F(3, 2)}


def test_affine_extend_swap_with_basepoint():
    sp = space_from_rows(["*", "a"], [[0, 1], [1, 0]])
    pointed = PointedSpace(sp, 0)
    g = Isometry(sp, (1, 0))
    m = Molecule.point(pointed, "a")
    out = affine_extend(g, m)
    assert out == Molecule.zero(pointed)
    assert norm_distance(m, out) == 1


def test_affine_extension_is_group_action():
    c5 = cycle_space(5)
    pointed = PointedSpace(c5, 0)
    isos = enumerate_isometries(c5)
    rng = Random(23)
    m = Molecule.make(pointed, rand_coeffs(rng, pointed))
    for g in isos:
        for h in isos:
            assert affine_extend(g.compose(h), m) == \
                affine_extend(g, affine_extend(h, m))


def test_affine_extension_preserves_norm_distance():
    c5 = cycle_space(5)
    pointed = PointedSpace(c5, 0)
    rng = Random(29)
    v = Molecule.make(pointed, rand_coeffs(rng, pointed))
    w = Molecule.make(pointed, rand_coeffs(rng, pointed))
    for g in enumerate_isometries(c5):
        assert norm_distance(affine_extend(g, v), affine_extend(g, w)) == \
            norm_distance(v, w)


def _recompose(translation, columns, m):
    # translation + sum of m_x * columns[x]: an affine map given by its parts
    out = translation
    for x, v in m.coeffs:
        out = out + columns[x].scale(v)
    return out


def test_decompose_isometry_extension():
    sp = space_from_rows(["*", "a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pointed = PointedSpace(sp, 0)
    g = Isometry(sp, (0, 2, 1))
    translation = affine_extend(g, Molecule.zero(pointed))
    columns = {
        x: affine_extend(g, Molecule.point(pointed, x)) - translation
        for x in ("a", "b")
    }
    assert translation == Molecule.zero(pointed)
    assert columns["a"] == Molecule.point(pointed, "b")
    # recomposition from (translation, columns) reproduces the map
    rng = Random(41)
    for _ in range(5):
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        assert _recompose(translation, columns, m) == affine_extend(g, m)


def test_affine_map_from_isometry_matches_extension():
    c4 = cycle_space(4)
    pointed = PointedSpace(c4, 0)
    bp = pointed.basepoint_label
    rng = Random(31)
    for g in enumerate_isometries(c4):
        # the affine map sending each point molecule x to g(x), built from
        # g's action on labels alone
        translation = Molecule.point(pointed, g.apply_label(bp))
        columns = {
            x: Molecule.point(pointed, g.apply_label(x)) - translation
            for x in c4.points if x != bp
        }
        for _ in range(5):
            m = Molecule.make(pointed, rand_coeffs(rng, pointed))
            assert _recompose(translation, columns, m) == affine_extend(g, m)


def test_affine_extension_is_affine_and_extends_the_isometry():
    rng = Random(37)
    for n in (4, 5):
        pointed = PointedSpace(cycle_space(n), 0)
        for g in enumerate_isometries(pointed.space):
            for x in pointed.space.points:
                assert affine_extend(g, Molecule.point(pointed, x)) == \
                    Molecule.point(pointed, g.apply_label(x))
            for t in (F(-3, 2), F(0), F(1, 3), F(1), F(7, 2)):
                a = Molecule.make(pointed, rand_coeffs(rng, pointed))
                b = Molecule.make(pointed, rand_coeffs(rng, pointed))
                mixed = a.scale(t) + b.scale(1 - t)
                assert affine_extend(g, mixed) == \
                    affine_extend(g, a).scale(t) + affine_extend(g, b).scale(1 - t)


def test_rebase_same_basepoint_is_identity(line013_pointed):
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    assert rebase(m, "0") == m


def test_rebase_zero_molecule_lands_on_old_basepoint(line013_pointed):
    out = rebase(Molecule.zero(line013_pointed), "3")
    assert out.pointed.basepoint_label == "3"
    assert out.as_dict() == {"0": F(1)}
    assert aell_norm_dual(out)[0] == 3  # distance between the two basepoints


def test_rebase_preserves_pairwise_norm_distances():
    rng = Random(37)
    for _ in range(30):
        sp = rand_metric_space(rng, rng.randint(2, 6))
        pointed = rand_pointed(rng, sp)
        m1 = Molecule.make(pointed, rand_coeffs(rng, pointed, 4))
        m2 = Molecule.make(pointed, rand_coeffs(rng, pointed, 4))
        target = rng.choice(sp.points)
        assert norm_distance(m1, m2) == \
            norm_distance(rebase(m1, target), rebase(m2, target))


def test_moving_lower_bound_c12():
    action = rotation_action(12)
    space = action.space
    pointed = PointedSpace(space, 0)
    g6 = action.images[action.group.index("g6")]
    v = Molecule.make(pointed, {"1": F(2)})
    w = Molecule.make(pointed, {"1": F(-1, 2)})
    bound = moving_lower_bound(pointed, ["0", "1"], g6, v, w)
    assert bound == 5
    assert norm_distance(affine_extend(g6, v), w) >= bound


def test_moving_lower_bound_equal_molecules_still_separate():
    action = rotation_action(12)
    pointed = PointedSpace(action.space, 0)
    g6 = action.images[action.group.index("g6")]
    v = Molecule.make(pointed, {"1": F(1)})
    bound = moving_lower_bound(pointed, ["0", "1"], g6, v, v)
    assert bound == 5
    assert norm_distance(affine_extend(g6, v), v) >= bound


def test_moving_lower_bound_zero_gap():
    action = rotation_action(4)
    pointed = PointedSpace(action.space, 0)
    ident = action.images[action.group.identity]
    v = Molecule.make(pointed, {"1": F(1)})
    assert moving_lower_bound(pointed, ["0", "1"], ident, v, v) == 0


def test_moving_lower_bound_rejects_outside_support():
    action = rotation_action(6)
    pointed = PointedSpace(action.space, 0)
    g = action.images[3]
    v = Molecule.make(pointed, {"4": F(1)})
    with pytest.raises(DomainError):
        moving_lower_bound(pointed, ["0", "1"], g, v, v)


def test_fixed_point_trivial_group(line013_pointed):
    action = action_from_closure(line013_pointed.space, [])
    seed = Molecule.make(line013_pointed, {"1": F(2)})
    assert fixed_point(action, seed) == seed


def test_fixed_point_swap():
    sp = space_from_rows(["*", "a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pointed = PointedSpace(sp, 0)
    g = Isometry(sp, (0, 2, 1))
    action = action_from_closure(sp, [g])
    bary = fixed_point(action, Molecule.point(pointed, "a"))
    assert bary.as_dict() == {"a": F(1, 2), "b": F(1, 2)}


def test_fixed_point_c6_with_hub():
    # 6-cycle plus a hub equidistant from everything; rotations fix the hub
    rows = [
        [0, 1, 2, 3, 2, 1, 2],
        [1, 0, 1, 2, 3, 2, 2],
        [2, 1, 0, 1, 2, 3, 2],
        [3, 2, 1, 0, 1, 2, 2],
        [2, 3, 2, 1, 0, 1, 2],
        [1, 2, 3, 2, 1, 0, 2],
        [2, 2, 2, 2, 2, 2, 0],
    ]
    sp = space_from_rows(["0", "1", "2", "3", "4", "5", "*"], rows)
    pointed = PointedSpace(sp, 6)
    rot = Isometry(sp, (1, 2, 3, 4, 5, 0, 6))
    action = action_from_closure(sp, [rot])
    assert action.group.order == 6
    bary = fixed_point(action, Molecule.point(pointed, "0"))
    assert bary.as_dict() == {p: F(1, 6) for p in sp.points[:6]}


def test_strong_duality_random():
    rng = Random(41)
    for _ in range(200):
        sp = rand_metric_space(rng, rng.randint(2, 9))
        pointed = rand_pointed(rng, sp)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        assert aell_norm_dual(m)[0] == aell_norm_primal(m)[0]


def test_uniform_metric_free_norm_differs_from_l1():
    # with every distance equal to 1 the norm of a difference of two unit
    # vectors is 1, not the coordinate-sum 2; the identification with the
    # sum norm needs the two-point distances through the basepoint to add up
    labels = ["*", "a", "b", "c"]
    rows = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    pointed = PointedSpace(space_from_rows(labels, rows), 0)
    diff = Molecule.point(pointed, "a") - Molecule.point(pointed, "b")
    assert aell_norm_dual(diff)[0] == 1
    assert sum(abs(v) for _, v in diff.coeffs) == 2


def _full_scan_primal(m):
    """The transport solver that relaxed every arc in every Bellman-Ford
    round, kept as the oracle of the change-driven one: the same
    ``(cost, plan)``."""
    space = m.pointed.space
    den, d = space.scaled
    unit, amounts = scale([v for _, v in m.coeffs], "molecule coefficients")
    excess = [0] * space.n
    for (x, _), a in zip(m.coeffs, amounts):
        excess[space.index(x)] = a
    excess[m.pointed.basepoint] -= sum(excess)
    sources = [i for i, v in enumerate(excess) if v > 0]
    sinks = [i for i, v in enumerate(excess) if v < 0]
    flow = {}
    while any(excess[s] > 0 for s in sources):
        dist = {s: 0 for s in sources if excess[s] > 0}
        pred = {}
        for _ in range(len(sources) + len(sinks)):
            changed = False
            for s in sources:
                if s in dist:
                    ds = dist[s]
                    for t in sinks:
                        nd = ds + d[s][t]
                        if t not in dist or nd < dist[t]:
                            dist[t] = nd
                            pred[t] = s
                            changed = True
            for (s, t), amount in flow.items():
                if amount > 0 and t in dist:
                    nd = dist[t] - d[s][t]
                    if s not in dist or nd < dist[s]:
                        dist[s] = nd
                        pred[s] = t
                        changed = True
            if not changed:
                break
        live = [t for t in sinks if excess[t] < 0 and t in dist]
        path = [min(live, key=dist.__getitem__)]
        while path[-1] in pred:
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
    cost = 0
    plan = []
    for (s, t), amount in sorted(flow.items()):
        if amount:
            cost += amount * d[s][t]
            plan.append((space.points[s], space.points[t], Fraction(amount, unit)))
    return Fraction(cost, den * unit), tuple(plan)


def test_change_driven_bellman_ford_matches_the_full_scan():
    """Same cost and plan, arc for arc, as relaxing every arc every round, on
    3000 molecules over 2..13 points; every other space has distances from
    {1, 2, 3} and integer coefficients, so that paths tie often."""
    rng = Random(7007)
    palette = [F(1), F(2), F(3)]
    multi_arc = 0
    for k in range(3000):
        ties = k % 2 == 1
        space = rand_metric_space(rng, 2 + k % 12, palette=palette if ties else None)
        pointed = rand_pointed(rng, space)
        if ties:
            coeffs = {x: F(rng.choice([-2, -1, 1, 2])) for x in space.points}
        else:
            coeffs = rand_coeffs(rng, pointed, space.n)
        m = Molecule.make(pointed, coeffs)
        want = _full_scan_primal(m)
        assert aell_norm_primal(m) == want, m
        multi_arc += len(want[1]) > 2
    assert multi_arc > 1000


def test_plan_check_rejects_a_tampered_plan():
    # supply 3 at point 0 and 1 at point 1; demand 2 at points 2 and 3
    supply = [3, 1, -2, -2]
    plan = [(0, 2, 2), (0, 3, 1), (1, 3, 1)]
    freespace._check_plan(supply, plan)
    tampered = [
        [(0, 2, 2), (0, 3, 1)],                        # point 1 ships nothing
        [(0, 2, 3), (1, 3, 1)],                        # point 2 gets too much
        [(0, 2, 2), (0, 3, 1), (1, 3, 1), (0, 2, 0)],  # a zero amount
        [(0, 2, 3), (0, 3, 1), (1, 3, 1), (0, 2, -1)], # a negative amount
        [(0, 2, 2), (0, 3, 1), (1, 3, 2), (3, 1, 1)],  # a sink ships
        [(0, 2, 2), (0, 3, 2), (1, 0, 1)],             # into a source
    ]
    for arcs in tampered:
        with pytest.raises(InternalCheckError):
            freespace._check_plan(supply, arcs)
