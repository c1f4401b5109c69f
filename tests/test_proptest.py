from random import Random

import pytest

from exactmetric import DomainError
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
