from random import Random

import pytest

from exactmetric import (
    DomainError,
    ExactMetricError,
    FiniteMetricSpace,
    InternalCheckError,
    Molecule,
    StarFragment,
    katetov,
)
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
