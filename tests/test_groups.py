"""Finite groups, the permutation composition and the queue closure that
``actions`` and ``jsonio`` share."""

from itertools import permutations, product
from operator import itemgetter

import pytest

from exactmetric import (
    DomainError,
    FiniteGroup,
    StructuralError,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from exactmetric.groups import closure, compose, permutation_table

from test_actions import LOOP5


def test_compose_is_p_after_q():
    p, q = (1, 2, 0), (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(q, p) == (2, 1, 0)
    for p, q in product(permutations(range(4)), repeat=2):
        assert compose(p, q) == tuple(p[q[i]] for i in range(4))
    assert compose([2, 0, 1], [1, 2, 0]) == (0, 1, 2)  # lists in, a tuple out


def test_closure_lists_elements_in_queue_order_with_the_first_pair():
    """Z6 from 0 under +2 and +3: each element joins the queue's end, and
    keeps the pair that reached it first, not a later one (5 = 2 + 3 is
    reached again as 3 + 2)."""
    z6 = cyclic_group(6)
    reached = closure([0], [2, 3], z6.mul)
    assert list(reached.items()) == [
        (0, None), (2, (0, 2)), (3, (0, 3)), (4, (2, 2)), (5, (2, 3)), (1, (4, 3)),
    ]


def test_closure_of_permutations_right_multiplies():
    """From the identity, a rotation r and a reflection s of the square reach
    the 8 symmetries; each is its pair's product, a after b."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    reached = closure([(0, 1, 2, 3)], [r, s], compose)
    assert list(reached)[:3] == [(0, 1, 2, 3), r, s]
    assert len(reached) == 8
    for c, pair in list(reached.items())[1:]:
        a, b = pair
        assert list(reached).index(a) < list(reached).index(c)
        assert c == compose(a, b)


def test_closure_of_generators_that_reach_nothing_new():
    z4 = cyclic_group(4)
    assert closure([0], [], z4.mul) == {0: None}
    assert closure([0], [0], z4.mul) == {0: None}
    # seeds keep None even when a product reaches them again, and repeats
    # among the seeds are read once
    assert list(closure([0, 2, 0], [2], z4.mul).items()) == [(0, None), (2, None)]


def test_permutation_table_indexes_p_after_q():
    perms = sorted(permutations(range(3)))
    table = permutation_table(perms)
    for i, j in product(range(6), repeat=2):
        assert perms[table[i][j]] == compose(perms[i], perms[j])
    assert table != tuple(map(tuple, zip(*table)))  # S3 is not abelian


def brute_force_is_group(group):
    n = group.order
    t = group.table
    e = group.identity
    return (all(t[t[a][b]][c] == t[a][t[b][c]]
                for a, b, c in product(range(n), repeat=3))
            and all(t[e][a] == a == t[a][e] for a in range(n))
            and all(t[a][group.inv(a)] == e == t[group.inv(a)][a] for a in range(n)))


@pytest.mark.parametrize("make, order", [
    (lambda: cyclic_group(5), 5),
    (lambda: dihedral_group(4), 8),
    (lambda: symmetric_group(3), 6),
    (lambda: direct_product(cyclic_group(2), cyclic_group(3)), 6),
], ids=["C5", "D4", "S3", "C2xC3"])
def test_the_catalog_builds_groups(make, order):
    group = make()
    assert group.order == order and brute_force_is_group(group)


def test_dihedral_relations():
    """r1 has order n, s0 has order 2, and s0 r1 s0 = r1^-1."""
    for n in range(2, 7):
        d = dihedral_group(n)
        r, s = d.index("r1"), d.index("s0")
        power, k = r, 1
        while power != d.identity and k <= 2 * n:
            power, k = d.mul(power, r), k + 1
        assert k == n
        assert d.mul(s, s) == d.identity
        assert d.mul(d.mul(s, r), s) == d.inv(r)
        assert d.mul(r, s) == d.index("s1")  # r1 after s0


def test_direct_product_multiplies_componentwise():
    g, h = cyclic_group(2), cyclic_group(3)
    gh = direct_product(g, h)
    for (a, b), (c, d) in product(product(range(2), range(3)), repeat=2):
        x, y = gh.index(f"{a}|{b}"), gh.index(f"{c}|{d}")
        assert gh.elements[gh.mul(x, y)] == f"{g.mul(a, c)}|{h.mul(b, d)}"


def test_a_table_without_an_identity_is_a_domain_error():
    with pytest.raises(DomainError, match="^multiplication table has no identity$"):
        FiniteGroup(("a", "b"), ((1, 0), (0, 0)))


def test_group_sizes_must_be_integers():
    for build in (cyclic_group, dihedral_group, symmetric_group):
        with pytest.raises(DomainError, match="^a group size must be an integer$"):
            build(2.0)


def gather_scan_verdict(elements, table):
    """The first message ``FiniteGroup`` gave before it tested associativity
    on a generating set, kept as the oracle (``None`` for a group): entries
    read one by one, then the identity, then (gh)k == g(hk) for every g
    and h at once over k, row gh against row g gathered through row h, then
    the inverses."""
    n = len(table)
    for row in table:
        for v in row:
            if type(v) is not int:
                return "table entries must be integers"
            if not 0 <= v < n:
                return "table entry out of range"
    ids = [e for e in range(n)
           if all(table[e][g] == g and table[g][e] == g for g in range(n))]
    if not ids:
        return "multiplication table has no identity"
    gathers = [itemgetter(*row) for row in table] if n > 1 else []
    for tg in table:
        for gh, gather in zip(tg, gathers):
            if table[gh] != gather(tg):
                return "multiplication table is not associative"
    for g in range(n):
        if ids[0] not in table[g]:
            return f"element {elements[g]!r} has no inverse"
    return None


def verdict(elements, table):
    try:
        FiniteGroup(elements, table)
    except (DomainError, StructuralError) as exc:
        return str(exc)
    return None


SMALL_TABLES = {
    "Z6": cyclic_group(6),
    "D4": dihedral_group(4),
    "S3": symmetric_group(3),
    "Z2xZ4": direct_product(cyclic_group(2), cyclic_group(4)),
    "loop5": (tuple("abcde"), LOOP5),
}


@pytest.mark.parametrize("name", SMALL_TABLES)
def test_generating_set_test_matches_the_gather_scan(name):
    """Every single-entry change of a small table, to each other index and to
    -1, n, 1.0 and True, is accepted or refused as the full gather scan
    accepts or refuses it, with the same first message."""
    made = SMALL_TABLES[name]
    elements, table = made if isinstance(made, tuple) else (made.elements, made.table)
    n = len(table)
    messages = {verdict(elements, table)}
    assert messages == {gather_scan_verdict(elements, table)}
    for i, j in product(range(n), repeat=2):
        for v in [*range(-1, n + 1), 1.0, True]:
            if type(v) is int and v == table[i][j]:
                continue  # the entry unchanged
            rows = [list(row) for row in table]
            rows[i][j] = v
            want = gather_scan_verdict(elements, rows)
            assert verdict(elements, rows) == want, (i, j, v)
            messages.add(want)
    assert {"multiplication table is not associative",
            "multiplication table has no identity",
            "table entry out of range",
            "table entries must be integers"} <= messages


def gathered_rows(monkeypatch, elements, table):
    """The labels of the rows s whose gather ``FiniteGroup`` makes to test
    associativity (the identity's column is read with one index), and its
    verdict."""
    rows = []

    def recording(*items):
        if len(items) > 1:
            rows.append(elements[table.index(items)])
        return itemgetter(*items)

    monkeypatch.setattr("exactmetric.groups.itemgetter", recording)
    try:
        return rows, verdict(elements, table)
    finally:
        monkeypatch.undo()


def test_associativity_is_tested_on_a_greedy_generating_set(monkeypatch):
    """S4 in lexicographic order: each element not yet reached from the
    identity joins S, and each doubles the subgroup reached or more
    (2, 6, 24 elements), so only their three rows are gathered."""
    s4 = symmetric_group(4)
    rows = ["0132", "0213", "1023"]
    assert gathered_rows(monkeypatch, s4.elements, s4.table) == (rows, None)


def test_a_generator_that_does_not_double_the_reach_tests_every_row(monkeypatch):
    """The null semigroup on a, b, z with an identity adjoined is associative
    but no group: a reaches e, a, z, and b then only itself, fewer than
    twice as many, so every row is tested, and all pass."""
    elements = ("e", "a", "b", "z")
    table = ((0, 1, 2, 3), (1, 3, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3))
    assert gathered_rows(monkeypatch, elements, table) == (
        list(elements), "element 'a' has no inverse"
    )


@pytest.mark.parametrize("table", [((0, 1),), ((0, 1), (1,)), ((0, 1), (1, 0, 0))])
def test_a_table_of_the_wrong_shape_is_structural(table):
    with pytest.raises(StructuralError, match="^multiplication table shape mismatch$"):
        FiniteGroup(("e", "a"), table)
