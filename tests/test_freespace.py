import json
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from random import Random

import pytest

from exactmetric import (
    DomainError,
    actions,
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
    extension_certificate,
    fixed_point,
    moving_lower_bound,
    norm_distance,
    rebase,
    set_distance,
)
from exactmetric.jsonio import action_from_json
from exactmetric.metric import scale
from exactmetric.randgen import (
    cycle_space,
    rand_action,
    rand_coeffs,
    rand_fraction,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)
from exactmetric.simplex import simplex_max

from conftest import FIXTURES, fixture_generator, space_from_rows
from test_simplex import _difference_rows, _dual_args

F = Fraction


def test_point_molecule_norm_is_basepoint_distance(line013_pointed):
    m = Molecule.point(line013_pointed, "3")
    assert aell_norm_dual(m)[0] == 3
    assert aell_norm_primal(m)[0] == 3


def test_solver_answers_match_the_recorded_fixture(monkeypatch):
    """Plans and witnesses, not only norms: the primal's tie-breaks among
    optimal plans and the dual's witness, the largest optimal one, stay as
    recorded in ``fixtures/solver_answers.json``.  The dual's network simplex
    runs on ints: every flow and potential it returns is an int, as the
    dual's witness assumes."""
    trees = []
    real = freespace._network_simplex

    def recorded_tree(cost, supply):
        trees.append(real(cost, supply))
        return trees[-1]

    monkeypatch.setattr(freespace, "_network_simplex", recorded_tree)
    generate = fixture_generator()
    recorded = json.loads((FIXTURES / "solver_answers.json").read_text())
    cases = generate.solver_cases()
    assert len(cases) == len(recorded) == 300
    for m, want in zip(cases, recorded):
        assert generate.solver_answer(m) == want, m
    assert len(trees) == sum(bool(m.coeffs) for m in cases) > 0
    assert {type(v) for arcs, g in trees for v in [*g, *(x for arc in arcs for x in arc)]} == {int}


def _largest_optimal_witness(m, plan):
    """f*, label -> Fraction: on support + basepoint, the largest f with
    f(*) = 0, f(v) <= f(u) + d(u, v) for all u, v and f(t) <= f(s) - d(s, t)
    on each arc of ``plan``, by Bellman-Ford on ``Fraction`` distances;
    elsewhere, its min-plus extension."""
    space = m.pointed.space
    d = space.dist
    nodes = [space.index(x) for x in m.support] + [m.pointed.basepoint]
    arcs = [(u, v, d[u][v]) for u in nodes for v in nodes if u != v]
    arcs += [(space.index(s), space.index(t), -d[space.index(s)][space.index(t)])
             for s, t, _ in plan]
    f = {v: None for v in nodes}
    f[m.pointed.basepoint] = F(0)
    for _ in nodes:
        for u, v, length in arcs:
            if f[u] is not None and (f[v] is None or f[u] + length < f[v]):
                f[v] = f[u] + length
    return {x: min(f[v] + d[v][i] for v in nodes) for i, x in enumerate(space.points)}


def test_the_dual_witness_is_the_largest_optimal_witness():
    """On the recorded solver cases and on spaces with distances from {1, 2,
    3}, where optimal witnesses tie, the dual's witness of a non-zero
    molecule is f*, computed here from the primal's plan, another solver's;
    and at every point it is at least the witness of the vertex the tableau
    finds for the dual LP."""
    rng = Random(4114)
    cases = fixture_generator().solver_cases()
    for k in range(120):
        space = rand_metric_space(rng, 2 + k % 9, palette=[F(1), F(2), F(3)])
        pointed = rand_pointed(rng, space)
        cases.append(Molecule.make(pointed, rand_coeffs(rng, pointed, space.n)))
    below = 0
    for m in cases:
        norm, witness = aell_norm_dual(m)
        if not (args := _dual_args(m)):
            # every witness is optimal for the zero molecule, which gets 0
            assert set(witness.values.values()) == {0}
            continue
        assert witness.values == _largest_optimal_witness(m, aell_norm_primal(m)[1]), m
        # the tableau's vertex, shifted back by the basepoint distances and
        # extended by min-plus as the witness is
        space = m.pointed.space
        den, _ = space.scaled
        _, x = simplex_max(*_difference_rows(*args))
        nodes = [space.index(p) for p in m.support] + [m.pointed.basepoint]
        _, upper, _ = args
        g = [F(xi - u // 2, den) for xi, u in zip(x, upper)] + [F(0)]
        vertex = {p: min(gv + space.dist[v][i] for v, gv in zip(nodes, g))
                  for i, p in enumerate(space.points)}
        assert sum(F(c) * vertex[p] for p, c in m.coeffs) == norm
        assert all(witness.values[p] >= vertex[p] for p in space.points)
        below += witness.values != vertex
    assert below > 0


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
    for solve in (aell_norm_primal, aell_norm_dual):
        with pytest.raises(DomainError, match="exact rationals"):
            space = FiniteMetricSpace(("a", "b"), ((F(0), 0.5), (0.5, F(0))))
            solve(Molecule.point(PointedSpace(space, 0), "b"))


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


@pytest.mark.parametrize("pointed", ["other labels", "other basepoint"])
def test_witness_pair_refuses_a_molecule_over_another_pointed_space(
    line013_pointed, pointed
):
    """Over a space with other labels the pairing would miss a label; over
    the same space with another basepoint it would pair against a witness
    that does not vanish at the molecule's basepoint."""
    witness = LipschitzWitness(line013_pointed, {"0": F(0), "1": F(1), "3": F(3)})
    if pointed == "other labels":
        m = Molecule.make(PointedSpace(cycle_space(3), 0), {"2": F(1)})
    else:
        m = Molecule.make(PointedSpace(line013_pointed.space, 1), {"3": F(1)})
    with pytest.raises(
        DomainError, match="^molecule is not over the witness's pointed space$"
    ):
        witness.pair(m)
    assert witness.pair(Molecule.make(line013_pointed, {"3": F(1)})) == 3


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
    assert dict(out.coeffs) == {"b": F(3, 2)}


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


def test_every_way_to_build_a_molecule_gives_one_int_form():
    """A mapping with zeros and a basepoint entry, ``+``, ``-``, ``scale``,
    ``affine_extend`` by the identity and ``rebase`` there and back give the
    same molecule, equal and hashing alike: ints over ``unit``, the lcm of
    the reduced denominators, with the basepoint's entry 0."""
    rng = Random(4747)
    kinds = set()
    for k in range(300):
        space = rand_metric_space(rng, 1 + k % 7)
        pointed = rand_pointed(rng, space)
        bp = pointed.basepoint_label
        coeffs = rand_coeffs(rng, pointed, space.n)
        m = Molecule(pointed, coeffs)
        unit = lcm(*(v.denominator for v in coeffs.values() if v))
        assert (m.unit, m.ints) == (
            unit, tuple(int(coeffs.get(x, 0) * unit) for x in space.points)
        )
        assert dict(m.coeffs) == {x: v for x, v in coeffs.items() if v}
        zeros = dict.fromkeys(space.points, F(0))
        other = rng.choice(space.points)
        ways = [
            Molecule(pointed, {**zeros, **coeffs, bp: rand_fraction(rng, -5, 5)}),
            Molecule(pointed, {x: v / 2 for x, v in coeffs.items()}).scale(F(2)),
            Molecule(pointed, {x: v / 3 for x, v in coeffs.items()})
            + Molecule(pointed, {x: 2 * v / 3 for x, v in coeffs.items()}),
            Molecule(pointed, {x: 3 * v for x, v in coeffs.items()})
            - Molecule(pointed, {x: 2 * v for x, v in coeffs.items()}),
            affine_extend(Isometry.identity(space), m),
            rebase(rebase(m, other), bp),
        ]
        for built in ways:
            assert built == m and hash(built) == hash(m)
            assert (built.unit, built.ints) == (m.unit, m.ints)
        kinds.add("zero" if not any(m.ints) else "unit 1" if unit == 1 else "unit > 1")
    assert kinds == {"zero", "unit 1", "unit > 1"}


def test_rebase_same_basepoint_is_identity(line013_pointed):
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    assert rebase(m, "0") == m


def test_rebase_zero_molecule_lands_on_old_basepoint(line013_pointed):
    out = rebase(Molecule.zero(line013_pointed), "3")
    assert out.pointed.basepoint_label == "3"
    assert dict(out.coeffs) == {"0": F(1)}
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


def test_moving_lower_bound_refuses_a_witness_that_misses_the_bound(monkeypatch):
    """Tampered: the affine image of v reads as the zero molecule, so the
    witness pairs with it to 0, not to the gap 5."""
    action = rotation_action(12)
    pointed = PointedSpace(action.space, 0)
    g6 = action.images[action.group.index("g6")]
    v = Molecule.make(pointed, {"1": F(1)})
    monkeypatch.setattr(freespace, "affine_extend", lambda g, m: Molecule.zero(m.pointed))
    with pytest.raises(
        InternalCheckError, match="^witness pairing missed the certified bound$"
    ):
        moving_lower_bound(pointed, ["0", "1"], g6, v, v)


def _set_distance_moving_lower_bound(pointed, phi, g, v, w):
    """``moving_lower_bound`` with a label-level gap and one ``set_distance``
    call per point, kept as the oracle of the one that reads one
    ``min_plus`` row: ``(bound, witness values)``, no witness at a zero
    gap."""
    space = pointed.space
    phi_plus = list(dict.fromkeys(list(phi) + [pointed.basepoint_label]))
    gap = set_distance(space, phi_plus, [g.apply_label(x) for x in phi_plus])
    if gap == 0:
        return gap, None
    h = {x: min(gap, set_distance(space, [x], phi_plus)) for x in space.points}
    assert LipschitzWitness(pointed, h).pair(affine_extend(g, v) - w) == gap
    return gap, h


def test_moving_lower_bound_matches_the_set_distance_loop(monkeypatch):
    """Same bound and witness on cycles, discrete and palette spaces, for a
    random isometry each: zero gaps (the translate meets phi + basepoint)
    and positive ones."""
    rng = Random(2424)
    witnesses = []
    store = LipschitzWitness._store

    def recorded(self, pointed, unit, f):
        witness = store(self, pointed, unit, f)
        witnesses.append(witness.values)
        return witness

    monkeypatch.setattr(LipschitzWitness, "_store", recorded)
    gaps = set()
    for k in range(150):
        n = 2 + k % 5
        shape = k % 3
        if shape == 0:
            space = cycle_space(2 * n)
        elif shape == 1:
            space = rand_metric_space(rng, n, palette=[F(1), F(2), F(3)])
        else:
            space = space_from_rows(
                [f"x{i}" for i in range(n)],
                [[int(i != j) for j in range(n)] for i in range(n)],
            )
        pointed = rand_pointed(rng, space)
        g = rng.choice(enumerate_isometries(space))
        phi = rng.sample(space.points, rng.randint(1, space.n - 1))
        support = phi + [pointed.basepoint_label]
        v, w = (
            Molecule.make(pointed, {x: F(rng.randint(-3, 3)) for x in support})
            for _ in range(2)
        )
        witnesses.clear()
        bound = moving_lower_bound(pointed, phi, g, v, w)
        witness = witnesses[0] if witnesses else None
        assert (bound, witness) == \
            _set_distance_moving_lower_bound(pointed, phi, g, v, w)
        gaps.add(bound > 0)
    assert gaps == {False, True}


def test_moving_lower_bound_rejects_outside_support():
    action = rotation_action(6)
    pointed = PointedSpace(action.space, 0)
    g = action.images[3]
    v = Molecule.make(pointed, {"4": F(1)})
    with pytest.raises(DomainError):
        moving_lower_bound(pointed, ["0", "1"], g, v, v)


@pytest.mark.parametrize("basepoint", [1, "another space"])
def test_moving_lower_bound_refuses_a_molecule_over_another_pointed_space(basepoint):
    """v over the same space with another basepoint, or w over another
    space with the same one."""
    action = rotation_action(6)
    pointed = PointedSpace(action.space, 0)
    v = w = Molecule.make(pointed, {"1": F(1)})
    if basepoint == 1:
        v = Molecule.make(PointedSpace(action.space, 1), {"0": F(1)})
    else:
        w = Molecule.make(PointedSpace(cycle_space(5), 0), {"1": F(1)})
    with pytest.raises(
        DomainError, match="^molecule lives over a different pointed space$"
    ):
        moving_lower_bound(pointed, ["0", "1"], action.images[3], v, w)


def test_moving_lower_bound_refuses_an_isometry_of_another_space():
    """A rotation of C4 read on C6 by its labels moves {0, 1} to {1, 2}: a
    zero gap, returned without a look at the isometry's space."""
    pointed = PointedSpace(cycle_space(6), 0)
    g = rotation_action(4).images[1]
    v = Molecule.make(pointed, {"1": F(1)})
    with pytest.raises(DomainError, match="isometry acts on a different space"):
        moving_lower_bound(pointed, ["1"], g, v, v)


def _th_extension_check(action, pointed, phi_labels, v, w, element):
    """The command line's certificate as it was computed before
    ``extension_certificate``, kept as that function's oracle."""
    space = action.space
    phi_plus = sorted(set(phi_labels) | {pointed.basepoint_label})
    if element is not None:
        best = action.group.index(element)
        gap = actions.translation_gap(action, [space.index(x) for x in phi_plus], best)
    else:
        # the identity stands for "no element moves phi" (gap 0)
        gap, witness = actions.moving_gap(action, phi_plus)
        best = action.group.index(witness) if gap else action.group.identity
    iso = action.images[best]
    bound = freespace.moving_lower_bound(pointed, phi_labels, iso, v, w)
    lp = freespace.norm_distance(freespace.affine_extend(iso, v), w)
    return {
        "element": action.group.elements[best],
        "epsilon0": str(gap),
        "witness_bound": str(bound),
        "norm_distance": str(lp),
        "certified": bound == gap and lp >= bound,
    }


def _certificate_payload(*args):
    element, gap, bound, lp, certified = extension_certificate(*args)
    return {
        "element": element,
        "epsilon0": str(gap),
        "witness_bound": str(bound),
        "norm_distance": str(lp),
        "certified": certified,
    }


def test_extension_certificate_matches_the_cli_oracle_on_the_fixture():
    """``th_ext.json`` (C12, phi {0, 1}) with no element, where g6 moves
    phi most, and with each element of its group."""
    doc = json.loads((FIXTURES / "th_ext.json").read_text())
    action = action_from_json(doc["action"])
    pointed = PointedSpace(action.space, action.space.index(doc["basepoint"]))
    v, w = (
        Molecule.make(pointed, {x: F(c) for x, c in doc[key].items()})
        for key in ("v", "w")
    )
    for element in (None, *action.group.elements):
        args = (action, pointed, doc["phi_set"], v, w, element)
        assert _certificate_payload(*args) == _th_extension_check(*args)
    assert extension_certificate(*args[:5])[:3] == ("g6", 5, 5)


def test_extension_certificate_matches_the_cli_oracle_on_random_actions():
    """Seeded actions with random basepoints, phi, v and w, for no element
    or a random one: zero gaps and positive ones."""
    rng = Random(2525)
    gaps = set()
    for _ in range(100):
        action = rand_action(rng, 8)
        pointed = rand_pointed(rng, action.space)
        phi = rng.sample(action.space.points, rng.randint(1, action.space.n))
        support = phi + [pointed.basepoint_label]
        v, w = (
            Molecule.make(pointed, {x: rand_fraction(rng, -3, 3) for x in support})
            for _ in range(2)
        )
        element = rng.choice([None, *action.group.elements])
        args = (action, pointed, phi, v, w, element)
        payload = _certificate_payload(*args)
        assert payload == _th_extension_check(*args)
        gaps.add((element is None, payload["epsilon0"] != "0"))
    assert gaps == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("values", [5, None, F(1)])
def test_witness_values_that_are_not_iterable_assign_no_point(values):
    pointed = PointedSpace(cycle_space(3), 0)
    with pytest.raises(DomainError, match="witness must assign a value to every point"):
        LipschitzWitness(pointed, values)


def test_fixed_point_trivial_group(line013_pointed):
    action = action_from_closure(line013_pointed.space, [])
    seed = Molecule.make(line013_pointed, {"1": F(2)})
    assert fixed_point(action, seed) == seed


def test_fixed_point_refuses_a_molecule_over_another_space(line013_pointed):
    action = rotation_action(3)
    seed = Molecule.make(line013_pointed, {"1": F(2)})
    with pytest.raises(
        DomainError, match="^action and molecule live on different spaces$"
    ):
        fixed_point(action, seed)


def test_fixed_point_swap():
    sp = space_from_rows(["*", "a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pointed = PointedSpace(sp, 0)
    g = Isometry(sp, (0, 2, 1))
    action = action_from_closure(sp, [g])
    bary = fixed_point(action, Molecule.point(pointed, "a"))
    assert dict(bary.coeffs) == {"a": F(1, 2), "b": F(1, 2)}


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
    assert dict(bary.coeffs) == {p: F(1, 6) for p in sp.points[:6]}


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


def _full_scan_primal(m, paths=None):
    """The transport solver that relaxed every arc in every Bellman-Ford
    round, kept as the oracle of the change-driven one: the same
    ``(cost, plan)``.  It searches afresh for each augmentation; ``paths``
    (a list) gets each augmenting path, as point labels from its source."""
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
        if paths is not None:
            paths.append([space.points[x] for x in path])
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


def _counting_searches(monkeypatch):
    """A list that gets one entry per Bellman-Ford search the primal runs:
    its round loop is its one call of ``range``."""
    searches = []

    def counting(rounds):
        searches.append(rounds)
        return range(rounds)

    monkeypatch.setattr(freespace, "range", counting, raising=False)
    return searches


def test_change_driven_bellman_ford_matches_the_full_scan(monkeypatch):
    """Same cost and plan, arc for arc, as relaxing every arc every round, on
    3000 molecules over 2..13 points; every other space has distances from
    {1, 2, 3} and integer coefficients, so that paths tie often.  Then on
    360 molecules over 14..28 points, the distance workload's sizes: three
    in four spaces have distances from a palette of one to three values,
    and those molecules have coefficients from {-2, -1, 1, 2}.  Over 1000
    of their augmentations keep the last one's labels and run no search."""
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

    palettes = [None, [F(1), F(2), F(3)], [F(1), F(2)], [F(2), F(3), F(4)]]
    searches = _counting_searches(monkeypatch)
    paths = []
    for k in range(360):
        palette = palettes[k % 4]
        space = rand_metric_space(rng, 14 + k % 15, palette=palette)
        pointed = rand_pointed(rng, space)
        if palette:
            coeffs = {x: F(rng.choice([-2, -1, 1, 2])) for x in space.points}
        else:
            coeffs = rand_coeffs(rng, pointed, space.n)
        m = Molecule.make(pointed, coeffs)
        want = _full_scan_primal(m, paths)
        assert aell_norm_primal(m) == want, m
    assert len(paths) - len(searches) > 1000
    assert sum(len(path) > 2 for path in paths) > 600


def _on_a_line(at, coeffs):
    """The molecule ``coeffs`` over the points ``at`` of the real line, based
    at the first point."""
    labels = list(at)
    space = space_from_rows(
        labels, [[abs(at[a] - at[b]) for b in labels] for a in labels]
    )
    return Molecule.make(PointedSpace(space, 0), {x: F(v) for x, v in coeffs.items()})


def test_a_spent_source_makes_the_next_augmentation_search_again(monkeypatch):
    """Two sources far apart, each with its own sinks, so that no path takes
    flow back.  s1 fills t1 and stays live, so the second augmentation keeps
    the labels; s2 fills t2 and is spent, so the third searches again."""
    m = _on_a_line(
        {"bp": 1000, "s1": 0, "t1": 1, "u1": 2, "s2": 100, "t2": 101},
        {"s1": 2, "t1": -1, "u1": -1, "s2": 1, "t2": -1},
    )
    paths = []
    want = _full_scan_primal(m, paths)
    assert paths == [["s1", "t1"], ["s2", "t2"], ["s1", "u1"]]
    searches = _counting_searches(monkeypatch)
    assert aell_norm_primal(m) == want
    assert len(searches) == 2


def test_a_zeroed_back_arc_makes_the_next_augmentation_search_again(monkeypatch):
    """s1 fills t and is spent, so the second augmentation searches.  Its
    path s2 -> t <- s1 -> u takes back all of s1's flow to t and leaves s2
    live: only the zeroed back arc makes the third search.  The kept labels
    would walk that path again and ship nothing."""
    m = _on_a_line(
        {"bp": 1000, "u": 0, "s1": 4, "t": 5, "s2": 7},
        {"s1": 1, "t": -1, "u": -2, "s2": 2},
    )
    paths = []
    want = _full_scan_primal(m, paths)
    assert paths == [["s1", "t"], ["s2", "t", "s1", "u"], ["s2", "u"]]
    searches = _counting_searches(monkeypatch)
    assert aell_norm_primal(m) == want
    assert len(searches) == 3


def _rebuilt_start_primal(m, spent=None):
    """The transport solver that rebuilt the first half-round for every
    augmentation, kept as the oracle of the one that keeps it: the same
    ``(cost, plan)``.  When a source is spent, ``spent`` (a list) gets the
    labels of the sinks it was the first nearest live source of, and of the
    other sinks."""
    space = m.pointed.space
    den, d = space.scaled
    unit, amounts = scale([v for _, v in m.coeffs], "molecule coefficients")
    excess = [0] * space.n
    for (x, _), a in zip(m.coeffs, amounts):
        excess[space.index(x)] = a
    excess[m.pointed.basepoint] -= sum(excess)
    supply = excess[:]
    sources = [i for i, v in enumerate(excess) if v > 0]
    sinks = [i for i, v in enumerate(excess) if v < 0]
    column = {t: [d[s][t] for s in sources] for t in sinks}
    far = max(map(max, column.values()), default=0) + 1
    flow = {}

    live = len(sources)
    while live:
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
            if spent is not None:
                moved = {
                    space.points[t]
                    for t, costs in column.items()
                    if sources[costs.index(min(costs))] == path[0]
                }
                others = {space.points[t] for t in sinks} - moved
                spent.append((moved, others))
            k = sources.index(path[0])
            for costs in column.values():
                costs[k] = far

    arcs = [(s, t, amount) for (s, t), amount in sorted(flow.items()) if amount]
    freespace._check_plan(supply, arcs)
    cost = sum(amount * d[s][t] for s, t, amount in arcs)
    pts = space.points
    plan = tuple((pts[s], pts[t], Fraction(amount, unit)) for s, t, amount in arcs)
    return Fraction(cost, den * unit), plan


@pytest.mark.parametrize(
    "coeffs, spent",
    [
        # s1 is t's first nearest source and is spent first, so t's entry
        # moves to s2, which ships the rest
        ({"s1": 1, "s2": 1, "t": -2}, [({"t"}, set()), ({"t"}, set())]),
        # s1 is spent while u's first nearest is s2: u keeps its entry
        (
            {"s1": 2, "s2": 1, "t": -2, "u": -1},
            [({"t"}, {"u"}), ({"t", "u"}, set())],
        ),
    ],
)
def test_a_spent_source_moves_only_the_sinks_it_was_first_nearest_to(
    coeffs, spent
):
    m = _on_a_line({"bp": 100, "s1": 0, "t": 1, "s2": 3, "u": 5}, coeffs)
    log = []
    assert aell_norm_primal(m) == _rebuilt_start_primal(m, log)
    assert log == spent


def test_the_kept_first_half_round_gives_the_rebuilt_plans():
    """Same cost and plan, arc for arc, on spaces with many ties: cycles,
    distances from {1, 2, 3}, and discrete spaces, with coefficients from
    {-2, -1, 1, 2}.  When a source is spent, the sinks it was the first
    nearest source of move, and often other sinks keep their entries."""
    rng = Random(2424)
    palette = [F(1), F(2), F(3)]
    spent = []
    for k in range(450):
        n = 3 + k % 10
        shape = k % 3
        if shape == 0:
            space = cycle_space(n)
        elif shape == 1:
            space = rand_metric_space(rng, n, palette=palette)
        else:
            space = space_from_rows(
                [f"x{i}" for i in range(n)],
                [[int(i != j) for j in range(n)] for i in range(n)],
            )
        pointed = rand_pointed(rng, space)
        coeffs = {x: F(rng.choice([-2, -1, 1, 2])) for x in space.points}
        m = Molecule.make(pointed, coeffs)
        assert aell_norm_primal(m) == _rebuilt_start_primal(m, spent), m
    assert sum(len(moved) for moved, _ in spent) > 2000
    assert sum(len(others) for _, others in spent) > 1000


def test_the_kept_first_half_round_gives_the_rebuilt_plans_at_workload_sizes():
    """Same cost and plan, arc for arc, at the distance workload's sizes,
    n = 12..28, on full-support molecules: default random spaces, distances
    from {1, 2, 3}, and pseudometrics whose palettes hold 0, so that many
    arcs cost nothing.  Half the molecules of each kind of space have
    coefficients from {-2, -1, 1, 2}, so that amounts tie too."""
    rng = Random(3838)
    palettes = [None, [F(1), F(2), F(3)], [F(0), F(1), F(2), F(3)], [F(0), F(1)]]
    free_arcs = 0
    for k in range(680):
        palette = palettes[k % 4]
        space = rand_metric_space(
            rng, 12 + k % 17, pseudo=k % 4 >= 2, palette=palette
        )
        pointed = rand_pointed(rng, space)
        if k % 8 < 4:
            coeffs = {x: F(rng.choice([-2, -1, 1, 2])) for x in space.points}
        else:
            coeffs = {x: rand_fraction(rng, -5, 5) or F(1) for x in space.points}
        m = Molecule.make(pointed, coeffs)
        want = _rebuilt_start_primal(m)
        assert aell_norm_primal(m) == want, m
        free_arcs += sum(space.d_label(s, t) == 0 for s, t, _ in want[1])
    assert free_arcs > 1000


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


def test_plan_check_names_an_arc_at_a_point_with_no_supply():
    """A point that is neither a source nor a sink is named by its first
    arc, before the marginals are compared."""
    supply = [3, 1, -2, -2, 0]
    plan = [(0, 2, 2), (0, 3, 1), (1, 3, 1)]
    freespace._check_plan(supply, plan)
    for arc in [(4, 2, 1), (0, 4, 1)]:
        s, t, amount = arc
        with pytest.raises(
            InternalCheckError,
            match=f"transport plan ships {amount} from point {s} to point {t}",
        ):
            freespace._check_plan(supply, plan + [arc])


def test_primal_refuses_a_path_round_a_predecessor_cycle(monkeypatch):
    """Tampered: the second Bellman-Ford search runs no residual round.
    Every source here supplies 1, so each augmentation spends its origin and
    searches afresh: the second search is the second augmentation's.  It
    ships along a path that is not a shortest one and leaves a negative
    cycle in the residual network.  The third search's predecessors run
    round that cycle, and the path walk stops there."""
    space = space_from_rows(
        ["0", "1", "2", "3", "4"],
        [[0, 2, 1, 1, 1], [2, 0, 2, 1, 2], [1, 2, 0, 1, 2],
         [1, 1, 1, 0, 1], [1, 2, 2, 1, 0]],
    )
    m = Molecule.make(PointedSpace(space, 0), {"1": 1, "2": 1, "3": -1, "4": -2})
    assert aell_norm_dual(m)[0] == 4
    paths = []
    searches = _counting_searches(monkeypatch)
    assert aell_norm_primal(m) == _full_scan_primal(m, paths)
    assert len(paths) == len(searches) == 3
    searches = []

    def tampered(rounds):
        searches.append(rounds)
        return range(0 if len(searches) == 2 else rounds)

    monkeypatch.setattr(freespace, "range", tampered, raising=False)
    with pytest.raises(InternalCheckError, match="^augmenting path revisits a point$"):
        aell_norm_primal(m)
    assert len(searches) == 3


def test_primal_refuses_a_path_that_ships_nothing(monkeypatch, line013_pointed):
    """Tampered: the first augmentation's amount, the ``min`` of the end's
    demand and the origin's supply for a molecule with one source and one
    sink, reads 0."""
    zeroed = []

    def tampered(*values, key=None):
        if len(values) == 2 and not zeroed:
            zeroed.append(values)
            return 0
        return min(*values, key=key)

    monkeypatch.setattr(freespace, "min", tampered, raising=False)
    with pytest.raises(InternalCheckError, match="^augmenting path ships 0$"):
        aell_norm_primal(Molecule.point(line013_pointed, "3"))
    assert zeroed == [(1, 1)]


def test_primal_refuses_an_imbalance_left_unshipped(monkeypatch, line013_pointed):
    """Tampered: the basepoint absorbs one unit too few of the molecule's
    total 2, so after the first augmentation fills the only sink its source
    is still live."""
    totals = []

    def tampered(values, start=0):
        totals.append(sum(values, start))
        return totals[-1] - (len(totals) == 1)

    monkeypatch.setattr(freespace, "sum", tampered, raising=False)
    with pytest.raises(InternalCheckError, match="^imbalance left unshipped$"):
        aell_norm_primal(Molecule.make(line013_pointed, {"3": F(2)}))
    assert totals == [2]


def _parent_make(pointed, mapping):
    """``Molecule.make`` before it looked labels up once and skipped the
    conversion of ``Fraction`` values, kept as its oracle."""
    bp = pointed.basepoint_label
    items = []
    for label, value in mapping.items():
        pointed.space.index(label)
        if not isinstance(value, Rational):
            raise DomainError("molecule coefficients must be exact rationals")
        if label != bp and value != 0:
            items.append((label, Fraction(value)))
    items.sort(key=lambda kv: pointed.space.index(kv[0]))
    return Molecule(pointed, dict(items))


def _parent_add(m1, m2):
    if m1.pointed != m2.pointed:
        raise DomainError("molecules live over different pointed spaces")
    out = dict(m1.coeffs)
    for label, value in m2.coeffs:
        out[label] = out.get(label, F(0)) + value
    return _parent_make(m1.pointed, out)


def _parent_sub(m1, m2):
    return _parent_add(m1, _parent_make(
        m2.pointed, {x: F(-1) * v for x, v in m2.coeffs}))


def _outcome(f, *args):
    """``f(*args)`` with the types of its coefficients, or the message of
    the ``DomainError`` it raised."""
    try:
        m = f(*args)
    except DomainError as e:
        return str(e)
    return m, [type(v) for _, v in m.coeffs]


def test_make_add_and_sub_match_the_parent():
    """The same molecules, with ``Fraction`` coefficients, or the same first
    ``DomainError``, as the parent's ``make``, ``+`` and ``-``, on 2000
    seeded cases.  Coefficients are ints, bools and ``Fraction``s, zeros
    among them, on labels that include the basepoint; a float, an unknown
    label and a float on an unknown label land at random positions."""
    rng = Random(1919)
    spaces = [rand_pointed(rng, rand_metric_space(rng, n)) for n in range(1, 8)]
    values = [0, 1, -3, True, False, F(0), F(1), F(-2, 3), F(5, 7)]
    seen = set()
    for k in range(2000):
        pointed = rng.choice(spaces)
        labels = rng.sample(pointed.space.points, rng.randint(0, pointed.space.n))
        items = [(x, rng.choice(values)) for x in labels]
        bad = [(rng.choice(pointed.space.points), 0.5), ("zz", F(1)), ("zy", 0.25)]
        for item in bad:
            if rng.random() < 0.2:
                items.insert(rng.randint(0, len(items)), item)
        mapping = dict(items)
        want = _outcome(_parent_make, pointed, mapping)
        assert _outcome(Molecule.make, pointed, mapping) == want, mapping
        seen.add(want if isinstance(want, str) else "ok")
        other = rng.choice(spaces) if k % 10 == 0 else pointed
        m1 = Molecule.make(pointed, {x: rng.choice(values) for x in labels})
        m2 = Molecule.make(other, {x: rng.choice(values) for x in other.space.points
                                   if rng.random() < 0.7})
        for new, old in ((m1.__add__, _parent_add), (m1.__sub__, _parent_sub)):
            want = _outcome(old, m1, m2)
            assert _outcome(new, m2) == want
            seen.add(want if isinstance(want, str) else "ok")
    assert seen == {
        "ok", "unknown point label 'zz'", "unknown point label 'zy'",
        "molecule coefficients must be exact rationals",
        "molecules live over different pointed spaces",
    }


def test_dual_refuses_a_vertex_that_does_not_attain_the_optimum(monkeypatch):
    """Potentials that are not optimal, the network simplex's negated, order
    the Dijkstra of f* wrongly.  Where it then misses a shortest path, its
    witness, still 1-Lipschitz and vanishing at the basepoint, pairs below
    the plan's cost and is refused; elsewhere the answer is unchanged."""
    cases = [m for m in fixture_generator().solver_cases() if m.coeffs]
    answers = [aell_norm_dual(m) for m in cases]
    real = freespace._network_simplex

    def negated(cost, supply):
        arcs, g = real(cost, supply)
        return arcs, [-v for v in g]

    monkeypatch.setattr(freespace, "_network_simplex", negated)
    refused = 0
    for m, answer in zip(cases, answers):
        try:
            assert aell_norm_dual(m) == answer
        except InternalCheckError as exc:
            assert str(exc) == "optimal witness does not attain the optimum"
            refused += 1
    assert refused > 0


@pytest.mark.parametrize("tamper, message", [
    (lambda arcs: arcs[1:], "^transport plan does not match the molecule$"),
    (lambda arcs: [(s, t, -a) for s, t, a in arcs[:1]] + arcs[1:],
     "^transport plan ships -1 from point 1 to point 0$"),
], ids=["an arc dropped", "an amount negated"])
def test_dual_refuses_a_tree_flow_that_the_plan_check_refuses(
    monkeypatch, line013_pointed, tamper, message
):
    """The tree's flow, ``1 -> 0`` and ``1 -> 3`` one unit each, becomes the
    plan that ``_check_plan`` checks: without an arc it ships short of the
    molecule, and a negated amount is shipped as it stands."""
    real = freespace._network_simplex

    def tampered(cost, supply):
        arcs, g = real(cost, supply)
        return tamper(arcs), g

    monkeypatch.setattr(freespace, "_network_simplex", tampered)
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    with pytest.raises(InternalCheckError, match=message):
        aell_norm_dual(m)


def _reference_network_simplex(cost, supply):
    """``freespace._network_simplex`` as its docstring states it, written
    plainly: the tree is a dict of arcs ``(u, v) -> flow``, and each pivot
    finds the parents and the potentials again from the root."""
    k = len(supply)
    root = k - 1
    tree = {(x, root) if b >= 0 else (root, x): abs(b) for x, b in enumerate(supply[:-1])}
    first = 0
    while True:
        parent, g, reached = {root: None}, {root: 0}, [root]
        for p in reached:
            for u, v in tree:
                if p in (u, v) and (x := v if u == p else u) not in g:
                    parent[x] = p
                    g[x] = g[p] - cost[p][x] if u == p else g[p] + cost[x][p]
                    reached.append(x)
        entering = None
        for _ in range(0, k, 4):
            block = range(first, min(first + 4, k))
            first = first + 4 if first + 4 < k else 0
            best = min((cost[u][v] - g[u] + g[v], u, v) for u in block for v in range(k))
            if best[0] < 0:
                entering = best
                break
        if entering is None:
            return sorted((u, v, f) for (u, v), f in tree.items() if f), [g[x] for x in range(k)]
        _, a, b = entering
        paths = []
        for x in (a, b):
            paths.append([x])
            while parent[paths[-1][-1]] is not None:
                paths[-1].append(parent[paths[-1][-1]])
        path_a, path_b = paths
        apex = next(x for x in path_a if x in path_b)
        # the cycle's tree steps from the apex down to a, then from b up to it
        steps = [(parent[x], x) for x in reversed(path_a[:path_a.index(apex)])]
        steps += [(y, parent[y]) for y in path_b[:path_b.index(apex)]]
        backward = [(t, s) for s, t in steps if (t, s) in tree]
        delta = min(tree[arc] for arc in backward)
        # the last blocking arc met from the apex leaves
        leave = [arc for arc in backward if tree[arc] == delta][-1]
        for s, t in steps:
            if (s, t) in tree:
                tree[s, t] += delta
            else:
                tree[t, s] -= delta
        del tree[leave]
        tree[a, b] = delta


def test_the_network_simplex_pivots_as_its_plain_reference():
    """On the recorded solver cases and on full-support molecules over up to
    30 points, with and without a palette, the network simplex ends on the
    tree, flows and potentials of the plain reference: the same pricing
    blocks, entering arcs, tie-breaks and leaving arcs."""
    rng = Random(5115)
    cases = fixture_generator().solver_cases()
    for k in range(60):
        space = rand_metric_space(rng, 11 + k % 20, palette=[F(1), F(2)] if k % 2 else None)
        pointed = rand_pointed(rng, space)
        cases.append(Molecule.make(pointed, {x: rand_fraction(rng, -5, 5) or F(1)
                                             for x in space.points}))
    pivoted = 0
    for m in cases:
        supp = [i for i, v in enumerate(m.ints) if v]
        if not supp:
            continue
        nodes = [*supp, m.pointed.basepoint]
        _, d = m.pointed.space.scaled
        cost = [tuple(d[u][v] for v in nodes) for u in nodes]
        supply = [m.ints[x] for x in supp] + [-sum(m.ints)]
        arcs, g = freespace._network_simplex(cost, supply)
        assert (sorted(arcs), g) == _reference_network_simplex(cost, supply), m
        pivoted += sorted(arcs) != sorted(
            (x, len(supp), b) if b > 0 else (len(supp), x, -b) for x, b in enumerate(supply[:-1])
        )
    assert pivoted > 150


def test_the_network_simplex_stops_at_its_pivot_budget(monkeypatch, line013_pointed):
    """With no pivot allowed, the star tree answers only where it is
    optimal: a point molecule, not 2 [1] - [3], whose plan ships 1 -> 3."""
    monkeypatch.setattr(freespace, "_PIVOTS_PER_ARC", 0)
    assert aell_norm_dual(Molecule.point(line013_pointed, "3"))[0] == 3
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    with pytest.raises(InternalCheckError, match="^network simplex pivot budget exhausted$"):
        aell_norm_dual(m)


def test_the_network_simplex_refuses_a_cycle_with_no_arc_to_leave():
    """A cycle of negative cost, which no metric has, lowers the cost
    without bound: no arc of the pivot cycle blocks."""
    with pytest.raises(InternalCheckError, match="^pivot cycle has no arc to leave$"):
        freespace._network_simplex([[0, -1], [-1, 0]], [1, -1])


def test_the_plan_of_a_tree_flow_ships_through_a_source_directly():
    """Node 1, a source, passes node 0's unit on to node 3: the plan ships
    it 0 -> 3, and node 1's own unit 1 -> 2."""
    flow = [(0, 1, 1), (1, 2, 1), (1, 3, 1)]
    assert freespace._direct([1, 1, -1, -1], flow) == [(0, 3, 1), (1, 2, 1)]


@pytest.mark.parametrize("tamper, message", [
    (lambda f: (1, *f[1:]), "^witness must vanish at the basepoint$"),
    (lambda f: (*f[:2], f[2] + 100), r"^witness is not 1-Lipschitz at \(0, 3\)$"),
], ids=["not vanishing", "not 1-Lipschitz"])
def test_dual_refuses_a_tampered_witness_on_its_ints(monkeypatch, line013_pointed,
                                                     tamper, message):
    """The dual's int witness goes through the same two checks as a public
    one: tampered after its min-plus extension, it is refused before the
    norm is returned."""
    real = freespace.min_plus
    monkeypatch.setattr(freespace, "min_plus", lambda rows, vals: tamper(real(rows, vals)))
    m = Molecule.make(line013_pointed, {"1": F(2), "3": F(-1)})
    with pytest.raises(DomainError, match=message):
        aell_norm_dual(m)


def test_moving_lower_bound_pairs_in_the_molecules_unit(monkeypatch):
    """Tampered: the affine image of v is halved, so the int pairing over
    the image's unit gives half the gap 5, not the gap."""
    action = rotation_action(12)
    pointed = PointedSpace(action.space, 0)
    g6 = action.images[action.group.index("g6")]
    v = Molecule.make(pointed, {"1": F(1)})
    real = freespace.affine_extend
    assert moving_lower_bound(pointed, ["0", "1"], g6, v, v) == 5
    monkeypatch.setattr(freespace, "affine_extend",
                        lambda g, m: real(g, m).scale(F(1, 2)))
    with pytest.raises(
        InternalCheckError, match="^witness pairing missed the certified bound$"
    ):
        moving_lower_bound(pointed, ["0", "1"], g6, v, v)


def test_a_witness_built_on_ints_equals_the_public_one():
    """The dual's witness, stored from its ints, equals and hashes as the
    public constructor's on its ``values``; ``values`` is the mapping passed
    in, and ``pair`` on the ints is the ``Fraction`` sum."""
    rng = Random(4545)
    for k in range(60):
        pointed = rand_pointed(rng, rand_metric_space(rng, 2 + k % 7))
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        _, witness = aell_norm_dual(m)
        public = LipschitzWitness(pointed, dict(witness.values))
        assert public == witness and hash(public) == hash(witness)
        assert public.values == witness.values
        assert gcd(public.unit, *public.ints) == 1
        assert public.pair(m) == sum(
            (v * witness.values[x] for x, v in m.coeffs), F(0))
        # c d(x, *) with |c| <= 1 is 1-Lipschitz, and finer than the distances
        c, bp = rand_fraction(rng, -1, 1, 5), pointed.basepoint_label
        values = {x: c * pointed.space.d_label(x, bp) for x in pointed.space.points}
        assert LipschitzWitness(pointed, values).values == values


@pytest.mark.parametrize("values", [
    ["0", "1", "2"], ("0", "1", "2"), {"0", "1", "2"}, dict.fromkeys("012").keys(),
])
def test_witness_values_that_are_not_a_mapping_assign_no_point(values):
    pointed = PointedSpace(cycle_space(3), 0)
    with pytest.raises(DomainError, match="witness must assign a value to every point"):
        LipschitzWitness(pointed, values)


def _non_lipschitz_pairs(pointed, values):
    """The pair loop over every (i, j), j > i, in order, that the witness
    check ran before its row test, kept as its oracle: every pair with
    |f(i) - f(j)| > d(i, j), in the order the loop meets them."""
    space = pointed.space
    den, sd = space.scaled
    unit, f = scale([values[x] for x in space.points], "witness values", den)
    step = unit // den
    return [
        (space.points[i], space.points[j])
        for i in range(space.n)
        for j in range(i + 1, space.n)
        if abs(f[i] - f[j]) > step * sd[i][j]
    ]


def test_witness_reports_the_first_failing_pair_of_the_pair_loop():
    """On random witnesses, some 1-Lipschitz and most failing at several
    pairs, some with denominators that the distances lack, the row test
    reports the pair loop's first failing pair."""
    rng = Random(3131)
    kinds = set()
    for k in range(300):
        space = rand_metric_space(rng, 2 + k % 9, pseudo=k % 5 == 0)
        pointed = rand_pointed(rng, space)
        values = {x: rand_fraction(rng, -2, 2, 1 + k % 3) for x in space.points}
        values[pointed.basepoint_label] = F(0)
        pairs = _non_lipschitz_pairs(pointed, values)
        if not pairs:
            LipschitzWitness(pointed, values)
            kinds.add("valid")
            continue
        with pytest.raises(DomainError) as err:
            LipschitzWitness(pointed, values)
        x, y = pairs[0]
        assert str(err.value) == f"witness is not 1-Lipschitz at ({x}, {y})"
        if len(pairs) > 1:
            kinds.add("several")
        if pairs[0][0] != space.points[0]:
            kinds.add("not on the first row")
        if any(space.scaled[0] % v.denominator for v in values.values()):
            kinds.add("finer than the distances")
    assert kinds == {
        "valid", "several", "not on the first row", "finer than the distances"
    }
