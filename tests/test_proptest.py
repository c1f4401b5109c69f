import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from exactmetric import (
    DomainError,
    ExactMetricError,
    FiniteMetricSpace,
    InternalCheckError,
    Isometry,
    Molecule,
    StarFragment,
    katetov,
)
from exactmetric import proptest
from exactmetric.metric import ValidationReport
from exactmetric.proptest import MAX_FAILURES, SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_briefly(name):
    report = run_suite(name, trials=10, seed=13)
    assert report["suite"] == name
    assert report["trials"] == 10
    assert report["passed"] is True and report["failures"] == []


def test_same_seed_same_report():
    assert run_suite("duality", 8, 99) == run_suite("duality", 8, 99)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("no-such-suite", 1, 0)


def test_trial_count_must_be_non_negative():
    with pytest.raises(DomainError, match="trial count must be non-negative"):
        run_suite("duality", -1, 0)
    assert run_suite("duality", 0, 0) == {
        "suite": "duality", "trials": 0, "failures": [], "passed": True}


def test_failures_stop_at_the_limit_and_replay_from_their_seeds(monkeypatch):
    def fails_on_odd_draws(rng):
        draw = rng.getrandbits(8)
        return {"what": "odd draw", "draw": draw} if draw % 2 else None

    monkeypatch.setitem(SUITES, "odd-draws", fails_on_odd_draws)
    trials, seed = 40, 5
    report = run_suite("odd-draws", trials, seed)
    rng = Random(seed)
    trial_seeds = [rng.getrandbits(64) for _ in range(trials)]
    failing = [
        (t, s) for t, s in enumerate(trial_seeds)
        if fails_on_odd_draws(Random(s)) is not None
    ]
    assert len(failing) > MAX_FAILURES  # the limit, not the trials, stops it
    assert report["passed"] is False and report["trials"] == trials
    failures = report["failures"]
    assert [(f["trial"], f["trial_seed"]) for f in failures] \
        == failing[:MAX_FAILURES]
    for failure in failures:
        replay = SUITES["odd-draws"](Random(failure["trial_seed"]))
        assert {**replay, "trial": failure["trial"],
                "trial_seed": failure["trial_seed"]} == failure


def assert_replays_by_raising(failure, name):
    with pytest.raises(ExactMetricError) as raised:
        SUITES[name](Random(failure["trial_seed"]))
    assert raised.value.as_json() == {"error": failure["error"]}


def planted_fault_failures(name, message):
    """The failures of ``name`` at 40 trials, each checked to carry the
    planted fault's ``InternalCheckError`` and to replay from its seed."""
    failures = run_suite(name, 40, 0)["failures"]
    assert failures
    for failure in failures:
        assert failure["error"]["kind"] == "InternalCheckError"
        assert message in failure["error"]["message"]
        assert_replays_by_raising(failure, name)
    return failures


def test_a_library_error_in_a_trial_is_its_failure_and_replays(monkeypatch):
    def raises_on_odd_draws(rng):
        draw = rng.getrandbits(8)
        if draw % 2:
            raise InternalCheckError(f"odd draw {draw}")

    monkeypatch.setitem(SUITES, "odd-draws", raises_on_odd_draws)
    trials, seed = 40, 5
    report = run_suite("odd-draws", trials, seed)
    rng = Random(seed)
    trial_seeds = [rng.getrandbits(64) for _ in range(trials)]
    failing = [
        (t, s) for t, s in enumerate(trial_seeds) if Random(s).getrandbits(8) % 2
    ]
    assert len(failing) > MAX_FAILURES  # the limit, not the trials, stops it
    assert report["passed"] is False and report["trials"] == trials
    failures = report["failures"]
    assert [(f["trial"], f["trial_seed"]) for f in failures] \
        == failing[:MAX_FAILURES]
    for failure in failures:
        assert set(failure) == {"error", "trial", "trial_seed"}
        assert failure["error"]["kind"] == "InternalCheckError"
        assert_replays_by_raising(failure, "odd-draws")


def test_a_barycenter_that_moves_is_reported_with_its_seed(monkeypatch):
    """``fixed_point`` checks the invariance the suite no longer repeats."""
    scale = Molecule.scale
    monkeypatch.setattr(Molecule, "scale", lambda m, q: scale(m, 2 * q))
    planted_fault_failures("fixed-point", "orbit barycenter is not invariant")


def test_a_hat_that_does_not_restrict_is_reported_with_its_seed(monkeypatch):
    """``hat_extension`` checks the restriction the suite no longer repeats;
    adding 1 keeps every hat Katetov but moves it off f."""
    min_plus = katetov.min_plus
    monkeypatch.setattr(katetov, "min_plus",
                        lambda rows, values: tuple(v + 1 for v in min_plus(rows, values)))
    failures = planted_fault_failures("katetov", "failed to restrict to f")
    assert len(failures) == MAX_FAILURES


def test_a_fragment_that_fails_the_axioms_is_reported_with_its_seed(monkeypatch):
    """``star_fragment`` validates the result the suite no longer repeats;
    the last point is planted at distance 0 from the first."""
    assemble = katetov._assemble

    def collapsed(space, pairs, budget=None):
        frag = assemble(space, pairs, budget)
        r = frag.result
        den, rows = r.scaled
        d = [list(row) for row in rows]
        d[0][-1] = d[-1][0] = 0
        result = FiniteMetricSpace.from_scaled(r.points, den, d, r.pseudo)
        return StarFragment(frag.attached, result)

    monkeypatch.setattr(katetov, "_assemble", collapsed)
    failures = planted_fault_failures("katetov", "failed metric validation")
    assert len(failures) == MAX_FAILURES


KINDS = ["symmetry", "diagonal", "triangle", "separation"]


class Planting(Random):
    """A ``Random`` that picks the given kind of metric break."""

    def __init__(self, seed, kind):
        super().__init__(seed)
        self.kind = kind

    def choice(self, seq):
        return self.kind if seq == KINDS else super().choice(seq)


@pytest.mark.parametrize("kind", KINDS)
def test_metric_fuzz_plants_the_break_it_names(monkeypatch, kind):
    """The broken space differs from the valid one exactly as its kind says:
    one distance raised by 1, a diagonal entry 1, or a symmetric pair set
    past three times the diameter, or to 0."""
    checked = []
    validate = proptest.validate
    monkeypatch.setattr(proptest, "validate",
                        lambda space: checked.append(space.dist) or validate(space))
    for seed in range(12):
        checked.clear()
        assert SUITES["metric-fuzz"](Planting(seed, kind)) is None
        valid, broken = checked
        changed = sorted((i, j) for i, row in enumerate(broken)
                         for j, v in enumerate(row) if v != valid[i][j])
        (i, j), *rest = changed
        if kind == "symmetry":
            assert rest == [] and i != j and broken[i][j] == valid[i][j] + 1
        elif kind == "diagonal":
            assert rest == [] and i == j and broken[i][i] == 1
        else:
            assert rest == [(j, i)] and i != j
            big = 3 * max(map(max, valid)) + 1 if kind == "triangle" else 0
            assert broken[i][j] == broken[j][i] == big


def test_duality_reports_a_sum_past_the_triangle_bound(monkeypatch):
    """``m + m2`` tripled breaks the triangle inequality that the duality
    suite checks on the sum, and on nothing else it checks."""
    add = Molecule.__add__
    monkeypatch.setattr(Molecule, "__add__", lambda m, other: add(m, other).scale(3))
    failures = run_suite("duality", 40, 0)["failures"]
    assert len(failures) == MAX_FAILURES
    assert {f["what"] for f in failures} == {"triangle inequality failure"}


def test_prop_k_splits_the_points_into_two_supports(monkeypatch):
    pairs = []
    gap = proptest.prop_k_gap
    monkeypatch.setattr(proptest, "prop_k_gap",
                        lambda phi, psi: pairs.append((phi, psi)) or gap(phi, psi))
    assert run_suite("prop-k", 30, 0)["passed"]
    for phi, psi in pairs:
        assert phi.support and psi.support
        assert sorted(phi.support + psi.support) == sorted(phi.space.points)


def test_extension_draws_molecules_on_phi_without_the_basepoint(monkeypatch):
    drawn = []
    certificate = proptest.extension_certificate

    def recorded(action, pointed, phi, v, w):
        drawn.append((pointed, phi, v, w))
        return certificate(action, pointed, phi, v, w)

    monkeypatch.setattr(proptest, "extension_certificate", recorded)
    assert run_suite("extension", 30, 0)["passed"]
    for pointed, phi, v, w in drawn:
        assert set(v.support) | set(w.support) <= set(phi) - {pointed.basepoint_label}
    assert sum(bool(v.support) for _, _, v, _ in drawn) > len(drawn) / 2


def zero_space(rng, n, **_):
    """A space on ``n`` points with every distance 0: a pseudometric, where
    the suite asked for a metric."""
    labels = tuple(f"x{i}" for i in range(n))
    return FiniteMetricSpace.from_scaled(labels, 1, [[0] * n] * n, pseudo=True)


# Each counterexample a suite can return, by its "what": the suite, and the
# one name patched to answer wrong, with the wrong answer made from the
# real one.  The duality suite's "triangle inequality failure" has its own
# test above.
TAMPERS = {
    "valid space rejected": (
        "metric-fuzz", proptest, "validate", lambda real: lambda space:
        ValidationReport(False)),
    "planted (symmetry|diagonal|triangle|separation) violation not found": (
        "metric-fuzz", proptest, "validate", lambda real: lambda space:
        ValidationReport(True)),
    "duality gap": (
        "duality", proptest, "aell_norm_dual", lambda real: lambda m:
        (real(m)[0] + 1, real(m)[1])),
    "homogeneity failure": (
        "duality", Molecule, "scale", lambda real: lambda m, q: real(m, 2 * q)),
    "nonzero molecule with zero norm": (
        "duality", proptest, "rand_metric_space", lambda real: zero_space),
    "embedding not isometric": (
        "embedding", proptest, "norm_distance", lambda real: lambda a, b:
        real(a, b) + 1),
    "hat not maximal": (
        "katetov", proptest, "hat_extension", lambda real: lambda f:
        proptest.point_function(f.space, f.support[0])),
    "point profiles not isometric": (
        "katetov", proptest, "sup_distance", lambda real: lambda f, g:
        real(f, g) + 1),
    "gap below separation": (
        "prop-k", proptest, "prop_k_gap", lambda real: lambda phi, psi:
        replace(real(phi, psi), certified=False)),
    "equivariance failure": (
        "equivariance", proptest, "act_on_katetov", lambda real: lambda g, f: f),
    "composition law failure": (
        "affine-laws", Isometry, "compose", lambda real: lambda g, h: g),
    "norm not preserved": (
        "affine-laws", proptest, "norm_distance", lambda real: lambda a, b:
        real(a, b) + Fraction(a.ints[0], a.unit)),
    "extension bound failure": (
        "extension", proptest, "extension_certificate", lambda real: lambda *args:
        (*real(*args)[:4], False)),
    "rebase changed a norm distance": (
        "rebase", proptest, "rebase", lambda real: lambda m, basepoint:
        real(m, basepoint).scale(2)),
    "cover size grew with larger V": (
        "fvf-monotone", proptest, "min_fvf_cover", lambda real: lambda group, v:
        (len(v), None)),
}


@pytest.mark.parametrize("what", sorted(TAMPERS))
def test_each_counterexample_is_reported_and_replays(monkeypatch, what):
    """With one name answering wrong, the suite's failures are all this
    counterexample, and each replays from its ``trial_seed``."""
    name, owner, attribute, wrong = TAMPERS[what]
    monkeypatch.setattr(owner, attribute, wrong(getattr(owner, attribute)))
    failures = run_suite(name, 40, 0)["failures"]
    assert failures
    for failure in failures:
        assert re.fullmatch(what, failure["what"])
        replay = SUITES[name](Random(failure["trial_seed"]))
        assert {**replay, "trial": failure["trial"],
                "trial_seed": failure["trial_seed"]} == failure
