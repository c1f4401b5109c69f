"""Named randomized invariant suites with reproducible seeds.

Each suite checks one random instance drawn from the ``Random`` it is given
and returns ``None``, or the counterexample serialized as JSON.
``run_suite`` runs ``trials`` independently seeded instances of one suite.
These are the library's executable invariants; the CLI exposes them under
the ``proptest`` subcommand, and the test suite runs them at reduced trial
counts.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import jsonio
from .actions import enumerate_isometries, moving_gap
from .errors import DomainError
from .freespace import (
    Molecule,
    aell_norm_dual,
    aell_norm_primal,
    affine_extend,
    fixed_point,
    moving_lower_bound,
    norm_distance,
    rebase,
)
from .katetov import (
    act_on_katetov,
    hat_extension,
    is_katetov,
    point_function,
    prop_k_gap,
    star_fragment,
    sup_distance,
)
from .metric import FiniteMetricSpace, validate
from .quotients import (
    min_fvf_cover,
    orbit_isomorphism,
    pullback_pseudometric,
    quotient_space,
)
from .randgen import (
    rand_action,
    rand_coeffs,
    rand_fraction,
    rand_group,
    rand_invariant_pseudometric,
    rand_katetov,
    rand_metric_space,
    rand_pointed,
)

ZERO = Fraction(0)
MAX_FAILURES = 5


def suite_metric_fuzz(rng: Random):
    """validate() accepts valid spaces and pins planted violations."""
    # n >= 3 so a planted oversized distance actually breaks a triangle
    space = rand_metric_space(rng, rng.randint(3, 7))
    if not validate(space).ok:
        return {"what": "valid space rejected",
                "space": jsonio.space_to_json(space)}
    n = space.n
    den, rows = space.scaled
    d = [list(row) for row in rows]
    kind = rng.choice(["symmetry", "diagonal", "triangle", "separation"])
    i, j = rng.randrange(n), rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    if kind == "symmetry":
        d[i][j] = d[i][j] + den
    elif kind == "diagonal":
        d[i][i] = den
    elif kind == "triangle":
        big = 3 * max(max(row) for row in d) + den
        d[i][j] = d[j][i] = big
    else:
        d[i][j] = d[j][i] = 0
    broken = FiniteMetricSpace.from_scaled(space.points, den, d)
    report = validate(broken)
    if report.ok:
        return {"what": f"planted {kind} violation not found",
                "space": jsonio.space_to_json(broken)}
    # a planted break may legitimately trip an earlier axiom in the
    # check order; only the planted kind coming back ok is a failure
    return None


def suite_duality(rng: Random):
    """Exact agreement of the two norm solvers, plus norm axioms."""
    space = rand_metric_space(rng, rng.randint(2, 9))
    pointed = rand_pointed(rng, space)
    m = Molecule.make(pointed, rand_coeffs(rng, pointed))
    dual, witness = aell_norm_dual(m)
    primal, plan = aell_norm_primal(m)
    if dual != primal:
        return {
            "what": "duality gap",
            "dual": str(dual),
            "primal": str(primal),
            "molecule": jsonio.molecule_to_json(m),
        }
    q = rand_fraction(rng, -3, 3)
    if aell_norm_primal(m.scale(q))[0] != abs(q) * primal:
        return {"what": "homogeneity failure",
                "molecule": jsonio.molecule_to_json(m), "q": str(q)}
    m2 = Molecule.make(pointed, rand_coeffs(rng, pointed))
    if aell_norm_primal(m + m2)[0] > primal + aell_norm_primal(m2)[0]:
        return {"what": "triangle inequality failure",
                "molecule": jsonio.molecule_to_json(m),
                "other": jsonio.molecule_to_json(m2)}
    if primal == ZERO and m.coeffs:
        return {"what": "nonzero molecule with zero norm",
                "molecule": jsonio.molecule_to_json(m)}
    return None


def suite_embedding(rng: Random):
    """Point differences recover the distance exactly."""
    space = rand_metric_space(rng, rng.randint(2, 8))
    pointed = rand_pointed(rng, space)
    for x in space.points:
        for y in space.points:
            got = norm_distance(Molecule.point(pointed, x),
                                Molecule.point(pointed, y))
            if got != space.d_label(x, y):
                return {
                    "what": "embedding not isometric",
                    "pair": [x, y],
                    "got": str(got),
                    "space": jsonio.space_to_json(space),
                }
    return None


def suite_katetov(rng: Random):
    """Hat extension: validity, restriction, maximality; sup metric on
    point profiles reproduces the distance; fragments validate."""
    space = rand_metric_space(rng, rng.randint(2, 6))
    pts = list(space.points)
    rng.shuffle(pts)
    supp = tuple(sorted(pts[: rng.randint(1, space.n)]))
    f = rand_katetov(rng, space, supp)
    hat = hat_extension(f)
    if not is_katetov(space, hat.values).ok:
        return {"what": "hat not Katetov", "f": jsonio.katetov_to_json(f)}
    if any(hat.value(y) != f.value(y) for y in supp):
        return {"what": "hat does not restrict to f",
                "f": jsonio.katetov_to_json(f)}
    g = rand_katetov(rng, space, tuple(space.points))
    if all(g.value(y) == f.value(y) for y in supp):
        if any(g.value(x) > hat.value(x) for x in space.points):
            return {"what": "hat not maximal",
                    "f": jsonio.katetov_to_json(f),
                    "g": jsonio.katetov_to_json(g)}
    for x in space.points:
        for y in space.points:
            lhs = sup_distance(point_function(space, x),
                               point_function(space, y))
            if lhs != space.d_label(x, y):
                return {"what": "point profiles not isometric",
                        "pair": [x, y],
                        "space": jsonio.space_to_json(space)}
    frag = star_fragment(space, [f, g])
    if not validate(frag.result).ok:
        return {"what": "fragment failed validation",
                "f": jsonio.katetov_to_json(f)}
    return None


def suite_prop_k(rng: Random):
    """Hat extensions of functions on separated supports stay separated."""
    space = rand_metric_space(rng, rng.randint(2, 6))
    pts = list(space.points)
    rng.shuffle(pts)
    cut = rng.randint(1, space.n - 1) if space.n > 1 else 1
    a = tuple(sorted(pts[:cut]))
    b = tuple(sorted(pts[cut:])) or a
    phi = rand_katetov(rng, space, a)
    psi = rand_katetov(rng, space, b)
    res = prop_k_gap(phi, psi)
    if not res.certified:
        return {
            "what": "gap below separation",
            "gap": str(res.gap),
            "epsilon": str(res.epsilon),
            "phi": jsonio.katetov_to_json(phi),
            "psi": jsonio.katetov_to_json(psi),
        }
    return None


def suite_equivariance(rng: Random):
    """Pushing forward then extending equals extending then relabeling."""
    action = rand_action(rng, 6)
    space = action.space
    pts = list(space.points)
    rng.shuffle(pts)
    supp = tuple(sorted(pts[: rng.randint(1, space.n)]))
    f = rand_katetov(rng, space, supp)
    iso = action.images[rng.randrange(action.group.order)]
    lhs = hat_extension(act_on_katetov(iso, f))
    rhs_src = hat_extension(f)
    ginv = iso.inverse()
    rhs = {x: rhs_src.value(ginv.apply_label(x)) for x in space.points}
    if dict(lhs.values) != rhs:
        return {"what": "equivariance failure",
                "f": jsonio.katetov_to_json(f),
                "perm": list(iso.perm)}
    return None


def suite_affine_laws(rng: Random):
    """The affine extension is a norm-preserving group action."""
    space = rand_metric_space(
        rng, rng.randint(2, 7),
        palette=[Fraction(1), Fraction(2), Fraction(3)],
    )
    isos = enumerate_isometries(space)
    pointed = rand_pointed(rng, space)
    m = Molecule.make(pointed, rand_coeffs(rng, pointed, 5))
    m2 = Molecule.make(pointed, rand_coeffs(rng, pointed, 5))
    for g in isos:
        for h in isos:
            lhs = affine_extend(g.compose(h), m)
            rhs = affine_extend(g, affine_extend(h, m))
            if lhs != rhs:
                return {"what": "composition law failure",
                        "g": list(g.perm), "h": list(h.perm),
                        "molecule": jsonio.molecule_to_json(m)}
    for g in isos:
        if norm_distance(affine_extend(g, m), affine_extend(g, m2)) != \
                norm_distance(m, m2):
            return {"what": "norm not preserved",
                    "g": list(g.perm),
                    "molecule": jsonio.molecule_to_json(m)}
    return None


def suite_fixed_point(rng: Random):
    """The orbit barycenter is exactly invariant (checked internally, too)."""
    action = rand_action(rng, 7)
    pointed = rand_pointed(rng, action.space)
    seed_m = Molecule.make(pointed, rand_coeffs(rng, pointed, 4))
    bary = fixed_point(action, seed_m)
    for iso in action.images:
        if affine_extend(iso, bary) != bary:
            return {"what": "barycenter moved",
                    "molecule": jsonio.molecule_to_json(seed_m)}
    return None


def suite_extension(rng: Random):
    """Moving constants survive the passage to the free space.

    For the gap-attaining group element, every molecule pair supported in
    the moved set separates by at least the gap, certified by the capped
    witness and confirmed by the exact norm.
    """
    action = rand_action(rng, 8)
    space = action.space
    pointed = rand_pointed(rng, space)
    pts = list(space.points)
    rng.shuffle(pts)
    phi = sorted(pts[: rng.randint(1, max(1, space.n // 2))])
    phi_plus = sorted(set(phi) | {pointed.basepoint_label})
    best_gap, witness = moving_gap(action, phi_plus)
    if best_gap == ZERO:
        return None  # nothing to certify for this instance
    best_g = action.images[action.group.index(witness)]
    free = [x for x in phi_plus if x != pointed.basepoint_label]
    v = Molecule.make(pointed, {x: rand_fraction(rng, -3, 3) for x in free})
    w = Molecule.make(pointed, {x: rand_fraction(rng, -3, 3) for x in free})
    bound = moving_lower_bound(pointed, phi, best_g, v, w)
    lp = norm_distance(affine_extend(best_g, v), w)
    if bound != best_gap or lp < bound:
        return {
            "what": "extension bound failure",
            "bound": str(bound),
            "gap": str(best_gap),
            "norm": str(lp),
            "v": jsonio.molecule_to_json(v),
            "w": jsonio.molecule_to_json(w),
        }
    return None


def suite_rebase(rng: Random):
    """Re-basing preserves all pairwise norm distances."""
    space = rand_metric_space(rng, rng.randint(2, 6))
    pointed = rand_pointed(rng, space)
    new_bp = rng.choice(space.points)
    m1 = Molecule.make(pointed, rand_coeffs(rng, pointed, 4))
    m2 = Molecule.make(pointed, rand_coeffs(rng, pointed, 4))
    before = norm_distance(m1, m2)
    after = norm_distance(rebase(m1, new_bp), rebase(m2, new_bp))
    if before != after:
        return {"what": "rebase changed a norm distance",
                "before": str(before), "after": str(after),
                "m1": jsonio.molecule_to_json(m1),
                "m2": jsonio.molecule_to_json(m2),
                "new_basepoint": new_bp}
    return None


def suite_quotient(rng: Random):
    """Quotient metrics are well-defined, the translation action is
    isometric and transitive, and pullbacks round-trip to orbits."""
    group = rand_group(rng, 24)
    pm = rand_invariant_pseudometric(rng, group)
    try:
        qspace, action = quotient_space(pm)
    except DomainError as exc:
        return {"what": f"quotient failed: {exc}",
                "record": jsonio.pseudometric_to_json(pm)}
    xi = rng.choice(qspace.points)
    back = pullback_pseudometric(action, xi)
    try:
        orbit_isomorphism(action, xi)
    except DomainError as exc:
        return {"what": f"orbit round trip failed: {exc}",
                "record": jsonio.pseudometric_to_json(back)}
    return None


def suite_fvf_monotone(rng: Random):
    """Enlarging V never increases the minimal cover size."""
    group = rand_group(rng, 12)
    n = group.order
    small = sorted(
        {group.identity} | {rng.randrange(n) for _ in range(rng.randint(1, 3))}
    )
    big = sorted(set(small) | {rng.randrange(n) for _ in range(2)})
    k_small, _ = min_fvf_cover(group, small)
    k_big, _ = min_fvf_cover(group, big)
    if k_big > k_small:
        return {"what": "cover size grew with larger V",
                "group": jsonio.group_to_json(group),
                "small": small, "big": big,
                "k_small": k_small, "k_big": k_big}
    return None


SUITES = {
    "metric-fuzz": suite_metric_fuzz,
    "duality": suite_duality,
    "embedding": suite_embedding,
    "katetov": suite_katetov,
    "prop-k": suite_prop_k,
    "equivariance": suite_equivariance,
    "affine-laws": suite_affine_laws,
    "fixed-point": suite_fixed_point,
    "extension": suite_extension,
    "rebase": suite_rebase,
    "quotient": suite_quotient,
    "fvf-monotone": suite_fvf_monotone,
}


def run_suite(name: str, trials: int, seed: int):
    """Run ``trials`` seeded instances of one suite, stopping at
    ``MAX_FAILURES`` failures.

    Each failure carries its ``trial`` index and ``trial_seed``;
    ``SUITES[name](Random(trial_seed))`` replays it.
    """
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; known: {sorted(SUITES)}"
        )
    if trials < 0:
        raise DomainError("trial count must be non-negative")
    rng = Random(seed)
    failures = []
    for t in range(trials):
        trial_seed = rng.getrandbits(64)
        problem = SUITES[name](Random(trial_seed))
        if problem is not None:
            failures.append({**problem, "trial": t, "trial_seed": trial_seed})
            if len(failures) >= MAX_FAILURES:
                break
    return {
        "suite": name,
        "trials": trials,
        "failures": failures,
        "passed": not failures,
    }
