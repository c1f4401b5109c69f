from fractions import Fraction
from random import Random

import pytest

from exactmetric import DomainError, KatetovFunction, is_katetov, katetov, randgen
from exactmetric.groups import cyclic_group, symmetric_group
from exactmetric.randgen import (
    cycle_space,
    rand_action,
    rand_fraction,
    rand_group,
    rand_invariant_pseudometric,
    rand_katetov,
    rand_metric_space,
)

F = Fraction


def fraction_rand_katetov(rng, space, support):
    """``rand_katetov`` as it was, on ``Fraction`` proposals, with the record
    checking the accepted function a second time, kept as the oracle.
    Returns the record and the number of candidates it drew."""
    for candidates in range(1, 65):
        values = fraction_propose(rng, space, support)
        if rng.random() < 0.5:
            other = fraction_propose(rng, space, support)
            values = {x: min(values[x], other[x]) for x in support}
        if is_katetov(space, values, support).ok:
            return KatetovFunction(space, support, values), candidates
    raise DomainError("failed to sample a Katetov function")


def fraction_propose(rng, space, support):
    z = rng.choice(support)
    c = rand_fraction(rng, 0, 4)
    return {x: c + space.d_label(z, x) for x in support}


def ladder_draws(seeds=range(6)):
    """``(rng, space, support)`` over the extension ladder's sizes: spaces of
    6..11 points, supports of 1-4 points and the whole space, and a palette
    space whose denominator 21 does not divide 12.  ``rng`` is left where
    the draw of its support put it."""
    palette = [F(5, 7), F(1, 3), F(2)]
    for seed in seeds:
        rng = Random(seed)
        spaces = [rand_metric_space(rng, n) for n in range(6, 12)]
        spaces.append(rand_metric_space(rng, 7, palette=palette))
        for space in spaces:
            for k in (1, 2, 3, 4, space.n):
                for _ in range(3):
                    yield rng, space, tuple(rng.sample(space.points, k))


def test_rand_katetov_matches_the_fraction_oracle():
    redrawn = 0
    for rng, space, support in ladder_draws():
        oracle_rng = Random()
        oracle_rng.setstate(rng.getstate())
        f = rand_katetov(rng, space, support)
        g, candidates = fraction_rand_katetov(oracle_rng, space, support)
        assert f == g
        assert list(f.values.items()) == list(g.values.items())
        assert all(type(v) is Fraction for v in f.values.values())
        assert rng.getstate() == oracle_rng.getstate()
        redrawn += candidates > 1
    assert redrawn  # the sweep reaches the redraw after a failed candidate


def test_rand_katetov_reads_a_support_list_as_its_tuple():
    space = cycle_space(6)
    f = rand_katetov(Random(3), space, ["4", "1", "2"])
    assert f.support == ("4", "1", "2")
    assert f == rand_katetov(Random(3), space, ("4", "1", "2"))


def test_rand_katetov_checks_each_candidate_once(monkeypatch):
    # the oracle and rand_katetov draw alike (see the test above), so both
    # passes over the ladder see the same supports
    draws = candidates = 0
    for rng, space, support in ladder_draws(range(3)):
        draws += 1
        candidates += fraction_rand_katetov(rng, space, support)[1]
    assert candidates > draws  # some draws need more than one candidate

    calls = []
    original = katetov.is_katetov

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(katetov, "is_katetov", counting)
    monkeypatch.setattr(randgen, "is_katetov", counting)
    for rng, space, support in ladder_draws(range(3)):
        rand_katetov(rng, space, support)
    assert len(calls) == candidates


def test_rand_katetov_gives_up_after_64_refused_candidates(monkeypatch):
    """Tampered: ``is_katetov`` refuses every candidate, and the draw is
    refused after exactly 64 of them."""
    calls = []

    def refuse_all(space, values, support):
        calls.append(support)
        return katetov.KatetovReport(False, (support[0], support[0]), "upper")

    monkeypatch.setattr(randgen, "is_katetov", refuse_all)
    with pytest.raises(DomainError, match="^failed to sample a Katetov function$"):
        rand_katetov(Random(1), cycle_space(4), ("0", "2"))
    assert calls == [("0", "2")] * 64


@pytest.mark.parametrize("support, message", [
    ((), "a Katetov function needs a non-empty support"),
    (("0", "1", "0"), "support repeats the label '0'"),
    (("0", "9"), "unknown point label '9'"),
    (("9", "9"), "unknown point label '9'"),
])
def test_rand_katetov_refuses_as_the_record_before_any_draw(support, message):
    space = cycle_space(4)
    with pytest.raises(DomainError) as record:
        KatetovFunction(space, support, dict.fromkeys(support, F(1)))
    assert str(record.value) == message
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(DomainError) as drawn:
        rand_katetov(rng, space, support)
    assert str(drawn.value) == message
    assert rng.getstate() == state


def test_rand_group_draws_s4_only_when_its_order_fits():
    s4 = symmetric_group(4)
    assert any(rand_group(Random(seed)) == s4 for seed in range(40))
    assert not any(rand_group(Random(seed), 23) == s4 for seed in range(40))


def test_rand_invariant_pseudometric_on_the_trivial_group():
    # no non-identity letter to zero out, so no draw of one
    assert rand_invariant_pseudometric(Random(0), cyclic_group(1)).delta == (0,)


def test_rand_action_builds_the_kind_its_first_draw_names():
    kinds = set()
    for seed in range(30):
        action = rand_action(Random(seed))
        kind = Random(seed).randrange(3)
        kinds.add(kind)
        n = action.space.n
        if kind == 2:  # a palette space
            assert action.space.points[0] == "x0"
        else:  # a cycle's rotations, or all its symmetries
            assert action.space == cycle_space(n)
            assert action.group.order == (n if kind == 0 else 2 * n)
    assert kinds == {0, 1, 2}
