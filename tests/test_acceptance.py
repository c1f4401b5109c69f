"""Acceptance gate: ten exact, zero-tolerance criteria.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s`` or in the captured output of a failing run) and asserts with no
tolerance: every comparison is between exact rationals or exact structures.
"""

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from exactmetric import (
    FiniteMetricSpace,
    KatetovFunction,
    Molecule,
    PointedSpace,
    aell_norm_dual,
    aell_norm_primal,
    affine_extend,
    cyclic_group,
    enumerate_isometries,
    fixed_point,
    hat_extension,
    is_katetov,
    min_fvf_cover,
    moving_lower_bound,
    norm_distance,
    point_function,
    prop_k_gap,
    quotient_space,
    set_distance,
    star_fragment,
    sup_distance,
    validate,
)
from exactmetric.randgen import (
    rand_action,
    rand_coeffs,
    rand_group,
    rand_invariant_pseudometric,
    rand_katetov,
    rand_metric_space,
    rand_pointed,
    rotation_action,
)

from conftest import cli_env, fixture_generator

F = Fraction


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num}: FAIL  {desc}")
                raise
            print(f"criterion {num}: PASS  {desc}")
        return wrapper
    return deco


def _rand_support(rng, space, lo=1):
    pts = list(space.points)
    rng.shuffle(pts)
    return tuple(sorted(pts[: rng.randint(lo, space.n)]))


@criterion(1, "isometric embedding of 500 random spaces")
def test_criterion_1_embedding():
    rng = Random(1001)
    start = time.monotonic()
    for _ in range(500):
        sp = rand_metric_space(rng, rng.randint(2, 8))
        pointed = rand_pointed(rng, sp)
        mols = {x: Molecule.point(pointed, x) for x in sp.points}
        for i, x in enumerate(sp.points):
            for y in sp.points[i + 1:]:
                assert norm_distance(mols[x], mols[y]) == sp.d_label(x, y)
    assert time.monotonic() - start < 60


@criterion(2, "strong duality on 1000 random molecules")
def test_criterion_2_duality():
    rng = Random(1002)
    for _ in range(1000):
        sp = rand_metric_space(rng, rng.randint(2, 9))
        pointed = rand_pointed(rng, sp)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        assert aell_norm_dual(m)[0] == aell_norm_primal(m)[0]


@criterion(3, "hat-extension separation certified on 1000 instances")
def test_criterion_3_separation():
    # the concrete two-point instance with distance 5
    line05 = FiniteMetricSpace(("a", "b"), ((F(0), F(5)), (F(5), F(0))))
    res = prop_k_gap(
        KatetovFunction(line05, ("a",), {"a": F(1)}),
        KatetovFunction(line05, ("b",), {"b": F(1)}),
    )
    assert res.gap == 5 and res.certified

    rng = Random(1003)
    done = 0
    while done < 1000:
        sp = rand_metric_space(rng, rng.randint(2, 7))
        pts = list(sp.points)
        rng.shuffle(pts)
        cut = rng.randint(1, sp.n - 1)
        a = tuple(sorted(pts[:cut]))
        b = tuple(sorted(pts[cut:]))
        eps = set_distance(sp, a, b)
        if eps <= 0:
            continue
        phi = rand_katetov(rng, sp, a)
        psi = rand_katetov(rng, sp, b)
        res = prop_k_gap(phi, psi)
        assert res.epsilon == eps
        assert res.certified and res.gap >= eps
        done += 1


@criterion(4, "affine extension separates molecules with the same constant")
def test_criterion_4_extension():
    def check(action, rng):
        space = action.space
        pts = list(space.points)
        rng.shuffle(pts)
        phi = sorted(pts[: rng.randint(1, max(1, space.n // 2))])
        pointed = PointedSpace(space, space.index(phi[0]))
        best_gap, best = F(0), action.group.identity
        for gi in range(action.group.order):
            iso = action.images[gi]
            gap = set_distance(space, phi, [iso.apply_label(x) for x in phi])
            if gap > best_gap:
                best_gap, best = gap, gi
        iso = action.images[best]
        for _ in range(3):
            v = Molecule.make(
                pointed,
                {x: F(rng.randint(-5, 5)) for x in phi},
            )
            w = Molecule.make(
                pointed,
                {x: F(rng.randint(-5, 5)) for x in phi},
            )
            bound = moving_lower_bound(pointed, phi, iso, v, w)
            assert bound == best_gap
            assert norm_distance(affine_extend(iso, v), w) >= bound

    rng = Random(1004)
    check(rotation_action(12), rng)
    for _ in range(100):
        check(rand_action(rng), rng)


@criterion(5, "affine extension satisfies the group-action laws")
def test_criterion_5_action_laws():
    rng = Random(1005)
    for _ in range(50):
        sp = rand_metric_space(
            rng, rng.randint(2, 7), palette=[F(1), F(2)]
        )
        isos = enumerate_isometries(sp)
        pointed = rand_pointed(rng, sp)
        m = Molecule.make(pointed, rand_coeffs(rng, pointed))
        extended = {g.perm: affine_extend(g, m) for g in isos}
        v = Molecule.make(pointed, rand_coeffs(rng, pointed))
        for g in isos:
            for h in isos:
                assert extended[g.compose(h).perm] == \
                    affine_extend(g, extended[h.perm])
            # norms of differences are preserved (the extension is an
            # affine isometry, so it moves the origin but not distances)
            assert norm_distance(
                affine_extend(g, m), affine_extend(g, v)
            ) == norm_distance(m, v)


@criterion(6, "barycenters are exactly invariant fixed points")
def test_criterion_6_fixed_point():
    rng = Random(1006)
    for _ in range(40):
        action = rand_action(rng)
        pointed = rand_pointed(rng, action.space)
        seed = Molecule.make(pointed, rand_coeffs(rng, pointed))
        bary = fixed_point(action, seed)
        for iso in action.images:
            assert affine_extend(iso, bary) == bary


@criterion(7, "quotients of 200 random invariant pseudometrics are well defined")
def test_criterion_7_quotients():
    rng = Random(1007)
    for _ in range(200):
        group = rand_group(rng, max_order=24)
        pm = rand_invariant_pseudometric(rng, group)
        # quotient_space asserts constancy over all representative pairs,
        # isometry of every translation, and transitivity; reaching the
        # return value is the certificate
        space, action = quotient_space(pm)
        assert validate(space).ok
        assert group.order % space.n == 0
        assert len(action.images) == group.order


@criterion(8, "minimal covering sets: exact witness and monotonicity")
def test_criterion_8_fvf():
    z5 = cyclic_group(5)
    v = [0, 1, 4]  # the identity and its two neighbours
    k, f = min_fvf_cover(z5, v)
    assert k == 2
    fvf = {z5.mul(z5.mul(a, b), c) for a in f for b in v for c in f}
    assert fvf == set(range(5))
    # independent oracle: no singleton covers
    for x in range(5):
        single = {z5.mul(z5.mul(x, b), x) for b in v}
        assert single != set(range(5))

    rng = Random(1008)
    for _ in range(100):
        group = rand_group(rng, max_order=12)
        n = group.order
        small = sorted(rng.sample(range(n), rng.randint(1, n)))
        bigger = sorted(set(small) | set(rng.sample(range(n), rng.randint(1, n))))
        ks, fs = min_fvf_cover(group, small)
        kl, _ = min_fvf_cover(group, bigger)
        assert kl <= ks
        cover = {
            group.mul(group.mul(a, b), c)
            for a in fs for b in small for c in fs
        }
        assert cover == set(range(n))


@criterion(9, "one-point extension suite on 1000 random instances each")
def test_criterion_9_katetov():
    rng = Random(1009)
    bump = F(1, 7)
    for _ in range(1000):
        sp = rand_metric_space(rng, rng.randint(2, 6))
        supp = _rand_support(rng, sp)
        f = rand_katetov(rng, sp, supp)
        hat = hat_extension(f)
        assert is_katetov(sp, dict(hat.values)).ok
        assert all(hat.value(y) == f.value(y) for y in supp)
        # pointwise maximality: raising the value anywhere off the support
        # breaks the upper Katetov inequality against some support point
        for x in sp.points:
            if x in supp:
                continue
            raised = dict(hat.values)
            raised[x] += bump
            assert not is_katetov(sp, raised).ok

    rng = Random(2009)
    for _ in range(1000):
        sp = rand_metric_space(rng, rng.randint(2, 6))
        x, y = rng.choice(sp.points), rng.choice(sp.points)
        assert sup_distance(
            point_function(sp, x), point_function(sp, y)
        ) == sp.d_label(x, y)

    rng = Random(3009)
    for _ in range(1000):
        sp = rand_metric_space(rng, rng.randint(2, 5))
        fns = [
            rand_katetov(rng, sp, _rand_support(rng, sp))
            for _ in range(rng.randint(1, 3))
        ]
        frag = star_fragment(sp, fns)
        assert validate(frag.result).ok


@criterion(10, "CLI output is byte-identical across runs and to its golden file")
def test_criterion_10_cli_determinism():
    # One run per invocation: the golden file is the output of an earlier
    # run, and each process draws its own hash seed, so matching it pins the
    # output across runs.
    generate = fixture_generator()
    env = cli_env()
    env.pop("PYTHONHASHSEED", None)
    for invocation in generate.CLI_INVOCATIONS:
        cmd = [sys.executable, "-m", "exactmetric.cli"] + generate.cli_argv(invocation)
        run = subprocess.run(cmd, capture_output=True, env=env)
        assert run.returncode == 0, run.stdout
        assert run.stdout == generate.golden_path(invocation).read_bytes(), invocation
        json.loads(run.stdout)  # well-formed output
