"""Answer checks that share no code with the library under test.

Each check takes the request document and the emitted answer (both parsed
JSON, exactly as a user would see them) and returns a list of problems; an
empty list means the answer is right.  Norms are re-solved by
``networkx.network_simplex`` on the integer-scaled transport problem;
extension results are rebuilt with the min-plus formula and re-validated in
integers; quotient results are compared with distances on the cycle computed
from the dihedral permutations directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

import networkx as nx


def Q(v) -> Fraction:
    return Fraction(v)


def space_matrix(doc) -> tuple[list[str], list[list[Fraction]]]:
    return list(doc["points"]), [[Q(v) for v in row] for row in doc["dist"]]


def common_scale(values) -> int:
    """The least common multiple of the denominators of the given rationals."""
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out


def scaled(values, scale: int) -> list[int]:
    out = []
    for v in values:
        s = v * scale
        if s.denominator != 1:
            raise ValueError("scale does not clear a denominator")
        out.append(s.numerator)
    return out


def _flat(matrix):
    return [v for row in matrix for v in row]


def metric_problems(d: list[list[int]]) -> list[str]:
    """Exact metric axioms on an integer distance matrix."""
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            return [f"nonzero diagonal at {i}"]
        for j in range(n):
            if d[i][j] != d[j][i]:
                return [f"asymmetric at ({i}, {j})"]
            if i != j and d[i][j] <= 0:
                return [f"non-positive distance at ({i}, {j})"]
    for i in range(n):
        row_i = d[i]
        for j in range(n):
            dij = row_i[j]
            row_j = d[j]
            for k in range(n):
                if row_i[k] > dij + row_j[k]:
                    return [f"triangle inequality fails at ({i}, {j}, {k})"]
    return []


# ---------------------------------------------------------------- norms


def transport_cost(points, dist, balance: dict[str, Fraction]) -> Fraction:
    """Cheapest shipment of a zero-sum imbalance over the complete digraph,
    solved by networkx on integers scaled by the denominators' LCM."""
    cs = common_scale(balance.values())
    ds = common_scale(_flat(dist))
    g = nx.DiGraph()
    for x in points:
        # networkx: negative demand supplies flow, positive demand absorbs it
        g.add_node(x, demand=-scaled([balance.get(x, Fraction(0))], cs)[0])
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if i != j:
                g.add_edge(x, y, weight=scaled([dist[i][j]], ds)[0])
    cost, _ = nx.network_simplex(g)
    return Fraction(cost, cs * ds)


def molecule_balance(points, bp, coeffs: dict[str, Fraction]) -> dict[str, Fraction]:
    """Imbalance of a molecule: its coefficients, with the basepoint
    absorbing the total (the basepoint is the zero of the free space)."""
    bal = {x: v for x, v in coeffs.items() if x != bp and v != 0}
    bal[bp] = -sum(bal.values(), Fraction(0))
    return bal


def check_norm(doc, ans) -> list[str]:
    mol = doc["molecule"]
    points, dist = space_matrix(mol["space"])
    bp = mol["basepoint"]
    bal = molecule_balance(points, bp, {x: Q(v) for x, v in mol["coeffs"].items()})
    expected = transport_cost(points, dist, bal)
    dual, primal = Q(ans["dual"]), Q(ans["primal"])
    problems = []
    if dual != expected or primal != expected:
        problems.append(f"norm dual={dual} primal={primal}, oracle {expected}")
    if ans["equal"] is not True:
        problems.append("answer does not report dual == primal")
    idx = {x: i for i, x in enumerate(points)}
    # the witness is a 1-Lipschitz function vanishing at the basepoint whose
    # pairing with the molecule is the norm
    w = {x: Q(v) for x, v in ans["witness"].items()}
    if set(w) != set(points) or w[bp] != 0:
        problems.append("witness domain or basepoint value is wrong")
    elif any(
        abs(w[x] - w[y]) > dist[idx[x]][idx[y]] for x, y in combinations(points, 2)
    ):
        problems.append("witness is not 1-Lipschitz")
    elif sum((v * w[x] for x, v in bal.items()), Fraction(0)) != dual:
        problems.append("witness pairing differs from the norm")
    # the plan is a transport of the imbalance whose cost is the norm
    net = dict.fromkeys(points, Fraction(0))
    cost = Fraction(0)
    for arc in ans["plan"]:
        amount = Q(arc["amount"])
        if amount <= 0:
            problems.append("plan has a non-positive amount")
            break
        net[arc["from"]] += amount
        net[arc["to"]] -= amount
        cost += amount * dist[idx[arc["from"]]][idx[arc["to"]]]
    if any(net[x] != bal.get(x, Fraction(0)) for x in points):
        problems.append("plan does not ship the imbalance")
    if cost != primal:
        problems.append(f"plan costs {cost}, primal is {primal}")
    return problems


def check_distance(doc, ans) -> list[str]:
    points, dist = space_matrix(doc["space"])
    bp = doc["space"]["basepoint"]
    diff = {x: Q(doc["v"].get(x, 0)) - Q(doc["w"].get(x, 0)) for x in points}
    expected = transport_cost(points, dist, molecule_balance(points, bp, diff))
    got = Q(ans["distance"])
    return [] if got == expected else [f"distance {got}, oracle {expected}"]


# ---------------------------------------------------------------- extensions


def min_plus_hat(d, support_idx, values) -> tuple[int, ...]:
    """hat(f)(x) = min over y in the support of f(y) + d(y, x)."""
    n = len(d)
    return tuple(
        min(values[k] + d[y][x] for k, y in enumerate(support_idx)) for x in range(n)
    )


def one_point_extension(d, functions) -> tuple[list[tuple[int, ...]], list[int]]:
    """Realize each (support, values) by its hat.  Returns the distinct new
    profiles in order of first appearance and, per function, the index of its
    point in the extended space (an old point when the hat is the distance
    profile of one)."""
    n = len(d)
    known = {tuple(row): i for i, row in enumerate(d)}
    fresh: list[tuple[int, ...]] = []
    where = []
    for support_idx, values in functions:
        h = min_plus_hat(d, support_idx, values)
        if h not in known:
            known[h] = n + len(fresh)
            fresh.append(h)
        where.append(known[h])
    return fresh, where


def extended_matrix(d, fresh) -> list[list[int]]:
    rows = [list(row) + [h[i] for h in fresh] for i, row in enumerate(d)]
    for a in fresh:
        rows.append(list(a) + [max(abs(x - y) for x, y in zip(a, b)) for b in fresh])
    return rows


def _scaled_space(space_doc, extra=()):
    points, dist = space_matrix(space_doc)
    return points, dist, common_scale(_flat(dist) + list(extra))


def _scaled_answer(ans_space, scale):
    points, dist = space_matrix(ans_space)
    try:
        return points, [scaled(row, scale) for row in dist]
    except ValueError:
        return points, None


def _compare_extension(points, d, fresh, ans_space, scale) -> list[str]:
    ans_points, got = _scaled_answer(ans_space, scale)
    if got is None:
        return ["result has a distance outside the expected grid"]
    if ans_points[: len(points)] != points:
        return ["result does not keep the base points first"]
    problems = metric_problems(got)
    if got != extended_matrix(d, fresh):
        problems.append(
            f"result differs from the min-plus extension "
            f"({len(got)} points, expected {len(points) + len(fresh)})"
        )
    return problems


def check_star(doc, ans) -> list[str]:
    atts = doc["attachments"]
    vals = [Q(v) for a in atts for v in a["values"].values()]
    points, dist, scale = _scaled_space(doc["space"], vals)
    d = [scaled(row, scale) for row in dist]
    idx = {x: i for i, x in enumerate(points)}
    functions = [
        (
            [idx[x] for x in a["support"]],
            scaled([Q(a["values"][x]) for x in a["support"]], scale),
        )
        for a in atts
    ]
    fresh, where = one_point_extension(d, functions)
    problems = _compare_extension(points, d, fresh, ans["space"], scale)
    prov = ans["provenance"]
    labels = ans["space"]["points"]
    if len(prov) != len(atts):
        return problems + ["provenance length differs from the attachment count"]
    seen = set()
    for rec, w in zip(prov, where):
        if labels.index(rec["point"]) != w:
            problems.append(f"attachment realized at {rec['point']}, expected {labels[w]}")
            break
        if rec["fresh"] != (w >= len(points) and w not in seen):
            problems.append(f"wrong fresh flag at {rec['point']}")
            break
        seen.add(w)
    return problems


def check_tower(doc, ans) -> list[str]:
    step, cap = Q(doc["grid_step"]), Q(doc["value_cap"])
    grid = [step * k for k in range(1, int(cap / step) + 1)]
    points, dist, scale = _scaled_space(doc["space"], grid)
    d = [scaled(row, scale) for row in dist]
    g = scaled(grid, scale)
    functions = []
    for k in range(1, doc["support_size"] + 1):
        for supp in combinations(range(len(points)), k):
            for vals in product(g, repeat=k):
                if all(
                    abs(vals[a] - vals[b]) <= d[supp[a]][supp[b]] <= vals[a] + vals[b]
                    for a, b in combinations(range(k), 2)
                ):
                    functions.append((list(supp), list(vals)))
    fresh, _ = one_point_extension(d, functions)
    return _compare_extension(points, d, fresh, ans, scale)


def check_hat(doc, ans) -> list[str]:
    f = doc["function"]
    points, dist = space_matrix(f["space"])
    idx = {x: i for i, x in enumerate(points)}
    values = [Q(f["values"][x]) for x in f["support"]]
    hat = min_plus_hat(dist, [idx[x] for x in f["support"]], values)
    if ans["support"] != points:
        return ["hat extension is not defined on the whole space"]
    got = [Q(ans["values"][x]) for x in points]
    return [] if got == list(hat) else ["hat values differ from the min-plus formula"]


def check_prop_k(doc, ans) -> list[str]:
    points, dist = space_matrix(doc["space"])
    idx = {x: i for i, x in enumerate(points)}
    a = [idx[x] for x in doc["A"]]
    b = [idx[x] for x in doc["B"]]
    hphi = min_plus_hat(dist, a, [Q(doc["phi"][x]) for x in doc["A"]])
    hpsi = min_plus_hat(dist, b, [Q(doc["psi"][x]) for x in doc["B"]])
    gap = max(abs(x - y) for x, y in zip(hphi, hpsi))
    eps = min(dist[i][j] for i in a for j in b)
    expected = {"gap": str(gap), "epsilon": str(eps), "certified": gap >= eps}
    return [] if ans == expected else [f"prop-k answer {ans}, oracle {expected}"]


# ---------------------------------------------------------------- quotients


def compose(p, q) -> tuple[int, ...]:
    """(p after q)(i) = p[q[i]]."""
    return tuple(p[j] for j in q)


def cycle_distance(n: int, i: int, j: int) -> int:
    k = abs(i - j) % n
    return min(k, n - k)


def dihedral(n: int) -> tuple[list[str], list[tuple[int, ...]]]:
    """Labels and permutations of the isometry group of the n-cycle:
    rotations r_k: i -> i + k and reflections s_k: i -> k - i (mod n)."""
    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    perms = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    perms += [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return labels, perms


def _cycle_meta(doc):
    n, xi = doc["meta"]["n"], doc["meta"]["xi"]
    labels, perms = dihedral(n)
    return n, xi, dict(zip(labels, perms))


def check_iso_enum(doc, ans) -> list[str]:
    n = len(doc["space"]["points"])
    expected = sorted(dihedral(n)[1])
    got = [tuple(p) for p in ans["isometries"]]
    if got != expected or ans["count"] != len(expected):
        return [f"{ans['count']} isometries, expected the {len(expected)} of D{n}"]
    return []


def check_closure(doc, ans) -> list[str]:
    n = len(doc["space"]["points"])
    images = {k: tuple(v) for k, v in ans["images"].items()}
    group = ans["group"]
    if sorted(images.values()) != sorted(dihedral(n)[1]):
        return [f"closure is not the dihedral group D{n}"]
    elems = group["elements"]
    for a, row in enumerate(group["table"]):
        for b, c in enumerate(row):
            if images[elems[c]] != compose(images[elems[a]], images[elems[b]]):
                return ["multiplication table disagrees with composition"]
    return []


def check_pullback(doc, ans) -> list[str]:
    n, xi, perm = _cycle_meta(doc)
    elems = ans["elements"]
    if elems != doc["action"]["group"]["elements"]:
        return ["pullback changed the group"]
    for a, row in zip(elems, ans["pseudometric"]):
        for b, v in zip(elems, row):
            if Q(v) != cycle_distance(n, perm[a][xi], perm[b][xi]):
                return [f"pullback distance at ({a}, {b}) is not the orbit distance"]
    return []


def _coset_points(n, xi, perm, labels):
    """Orbit point of each coset label 'gH' (g applied to xi)."""
    return [perm[label[:-1]][xi] for label in labels]


def check_quotient(doc, ans) -> list[str]:
    n, xi, perm = _cycle_meta(doc)
    space = ans["space"]
    pts = _coset_points(n, xi, perm, space["points"])
    if sorted(pts) != list(range(n)):
        return ["cosets do not correspond one-to-one to the orbit"]
    for i, row in enumerate(space["dist"]):
        for j, v in enumerate(row):
            if Q(v) != cycle_distance(n, pts[i], pts[j]):
                return ["quotient distance differs from the orbit distance"]
    for g, image in ans["action"]["images"].items():
        if [pts[k] for k in image] != [perm[g][p] for p in pts]:
            return [f"translation by {g} is not the left action on the orbit"]
    return []


def check_orbit(doc, ans) -> list[str]:
    n, xi, perm = _cycle_meta(doc)
    labels = sorted(ans)
    pts = _coset_points(n, xi, perm, labels)
    if [int(ans[label]) for label in labels] != pts or sorted(pts) != list(range(n)):
        return ["orbit isomorphism is not g H -> g xi onto the orbit"]
    return []


def check_certificate(doc, ans) -> list[str]:
    n, xi, perm = _cycle_meta(doc)
    labels = doc["group"]["elements"]
    radius = Q(doc["radius"])
    ball = [perm[g] for g in labels if cycle_distance(n, perm[g][xi], xi) < radius]
    inverse = {}
    for g in labels:
        for h in labels:
            if compose(perm[g], perm[h]) == tuple(range(n)):
                inverse[perm[g]] = perm[h]
    if len(ans) != len(doc["phis"]):
        return ["one certificate entry per queried set expected"]
    for phi, entry in zip(doc["phis"], ans):
        sym = {perm[g] for g in phi} | {inverse[perm[g]] for g in phi}
        covered = {compose(compose(a, v), b) for a in sym for v in ball for b in sym}
        outside = [g for g in labels if perm[g] not in covered]
        if entry["phi"] != sorted(set(phi), key=labels.index):
            return ["certificate entry names the wrong set"]
        if not outside:
            if entry["witness"] is not None:
                return ["witness given although phi V phi covers the group"]
            continue
        if entry["witness"] != outside[0]:
            return [f"witness {entry['witness']}, expected {outside[0]}"]
        w = perm[entry["witness"]]
        gap = min(
            cycle_distance(n, a[xi], w[b[xi]]) for a in sym for b in sym
        )
        if Q(entry["gap"]) != gap or gap < radius:
            return [f"gap {entry['gap']}, oracle {gap} (radius {radius})"]
    return []


def check_fvf(doc, ans) -> list[str]:
    labels, perms = dihedral(doc["meta"]["n"])
    perm = dict(zip(labels, perms))
    f = [perm[g] for g in ans["F"]]
    v = [perm[g] for g in doc["V"]]
    cover = {compose(compose(a, b), c) for a in f for b in v for c in f}
    problems = []
    if len(f) != ans["k"]:
        problems.append(f"|F| = {len(f)} but k = {ans['k']}")
    if cover != set(perms):
        problems.append(f"F V F misses {len(perms) - len(cover)} group elements")
    return problems


CHECKS = {
    "norm": check_norm,
    "distance": check_distance,
    "star": check_star,
    "tower": check_tower,
    "hat-extend": check_hat,
    "prop-k": check_prop_k,
    "iso-enum": check_iso_enum,
    "closure": check_closure,
    "pullback": check_pullback,
    "quotient": check_quotient,
    "orbit": check_orbit,
    "certificate": check_certificate,
    "fvf": check_fvf,
}
